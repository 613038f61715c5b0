"""Exact polyhedral geometry.

H-representation polyhedra and cones over the rationals, with the cone
calculus used by the stability analyses: tangent cones, normal and
critical cones on a point's `tight_rows`, the polar and dual of a cone,
face enumeration, the differences F1 - F2 of nested faces and their
polars, horizon cones, Euclidean projection (a strictly convex QP solved
by `qp.StrictQpSolver`), and, off the verdict path, Fourier-Motzkin
projection (for `plq.PlqPenalty.graph_pieces`) and limiting normal
cones of finite unions (through a hyperplane arrangement; the reference
for the face-pair formula in `plq`).

Generator representations are computed by an incremental double
description sweep and are intended for desk scale (dimension <= 8 or
so); complexity is exponential in the number of rows.  The sweep and
the face enumeration are combinatorial: rays are combined only when
adjacent, and face closures are read off the rays' zero sets, so
neither solves an LP.  The affine dimension of a polyhedron is the rank
of its tangent cone's generators, so it needs no LP beyond emptiness.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InternalConsistencyError
from .linalg import identity, rank, rref
from .lp import LpInfeasible, LpOptimal, lp_feasible_point, lp_max
from .qp import StrictQpSolver, _subsets
from .rational import (ONE, ZERO, Rat, format_rat, is_zero_vec, primitive,
                       primitive_ints, rat, rats, scaled_ints, vadd, vdot,
                       vscale, vsub)
from .record import FrozenRecord

__all__ = [
    "Polyhedron",
    "PolyCone",
    "Face",
    "PolyUnion",
    "tangent_cone",
    "face_differences",
    "difference_polar",
    "horizon_cone",
    "fm_project",
    "limiting_normal_cone_union",
    "intersect_cones",
]

_GEN_MEMO: dict = {}
_FACES_MEMO: dict = {}
_FROM_GEN_MEMO: dict = {}


def _canon_row(b, a):
    """Jointly scale (b, alpha) to a primitive integer row."""
    joint = primitive(tuple(b) + (a,))
    return joint[:-1], joint[-1]


class Polyhedron:
    """{y : <b_i, y> <= alpha_i, i = 1..p} in R^dim with exact rational data.

    The dimension is the length of the rows; a polyhedron given no rows
    must be given `dim`, and one given both must agree.  Each row
    (b_i, alpha_i) is canonicalized once, as a tuple of primitive
    integers that keys the deduplication (first occurrences kept, in
    order), and only the kept rows become `Rat`s; opposite row pairs are
    recognized internally as equalities so that enumerative routines only
    branch on genuine inequalities.
    """

    def __init__(self, b_rows, alpha, dim=None):
        b_rows = list(b_rows)
        alpha = list(alpha)
        if len(b_rows) != len(alpha):
            raise ValueError("row/alpha count mismatch")
        if b_rows:
            if dim is None:
                dim = len(b_rows[0])
            if any(len(b) != dim for b in b_rows):
                raise ValueError("row length does not match the dimension")
        elif dim is None:
            raise ValueError("a polyhedron without rows needs its dimension")
        self.dim = dim
        rows = {}  # primitive integer (b, alpha) tuples, first occurrences
        for b, a in zip(b_rows, alpha):
            row = tuple(primitive_ints(scaled_ints([*map(rat, b), rat(a)])[0]))
            if row[-1] < 0 or any(row[:-1]):  # else trivially true
                rows[row] = None
        self.b = tuple(tuple(Rat(v) for v in r[:-1]) for r in rows)
        self.alpha = tuple(Rat(r[-1]) for r in rows)
        self._normal_cones = {}  # tight row set -> normal cone (`normal_cone_of`)

    # -- construction ------------------------------------------------------
    @staticmethod
    def empty(dim):
        return Polyhedron(((ZERO,) * dim,), (-ONE,))

    # -- derived equality/inequality split ----------------------------------
    @cached_property
    def _split(self):
        """Indices: (equality pair list [(i, j)], inequality index list)."""
        n = len(self.b)
        paired = {}
        eq_pairs = []
        used = set()
        index = {(self.b[i], self.alpha[i]): i for i in range(n)}
        for i in range(n):
            if i in used:
                continue
            neg = (tuple(-v for v in self.b[i]), -self.alpha[i])
            j = index.get(neg)
            if j is not None and j != i and j not in used:
                eq_pairs.append((i, j))
                used.add(i)
                used.add(j)
        ineq = [i for i in range(n) if i not in used]
        return eq_pairs, ineq

    def eq_system(self):
        """(rows, rhs) of the recognized equality part."""
        pairs, _ = self._split
        return ([self.b[i] for i, _ in pairs], [self.alpha[i] for i, _ in pairs])

    # -- membership --------------------------------------------------------
    def contains(self, y) -> bool:
        y = rats(y)
        if len(y) != self.dim:
            raise ValueError("point dimension mismatch")
        return all(vdot(b, y) <= a for b, a in zip(self.b, self.alpha))

    def tight_rows(self, y):
        """Indices of the rows tight at y, or None when y violates a row:
        membership and the active set in one pass over the rows."""
        y = rats(y)
        if len(y) != self.dim:
            raise ValueError("point dimension mismatch")
        tight = []
        for i, (b, a) in enumerate(zip(self.b, self.alpha)):
            s = vdot(b, y)
            if s > a:
                return None
            if s == a:
                tight.append(i)
        return frozenset(tight)

    def normal_cone_of(self, tight) -> "PolyCone":
        """The cone generated by the rows in `tight`, one per tight set:
        the normal cone at every point whose tight rows those are."""
        if tight is None:
            raise ValueError("normal cone requested at an exterior point")
        if tight not in self._normal_cones:
            self._normal_cones[tight] = PolyCone.from_generators(
                (), [self.b[i] for i in sorted(tight)], self.dim)
        return self._normal_cones[tight]

    def critical_cone_of(self, tight, v) -> "PolyCone":
        """The tangent cone at a point whose tight rows are `tight`,
        intersected with the orthogonal complement of v, which must be a
        normal vector there (verified exactly)."""
        if tight is None:
            raise ValueError("critical cone requested at an exterior point")
        v = rats(v)
        if not self.normal_cone_of(tight).contains(v):
            raise ValueError("v is not in the normal cone at the base point")
        rows = [self.b[i] for i in sorted(tight)]
        if not is_zero_vec(v):
            rows.append(v)
            rows.append(tuple(-x for x in v))
        return PolyCone(rows, dim=self.dim)

    def active_set(self, y) -> "Face":
        tight = self.tight_rows(y)
        if tight is None:
            raise ValueError("active set requested at an exterior point")
        rows = list(self.b) + [tuple(-v for v in self.b[i]) for i in sorted(tight)]
        rhs = list(self.alpha) + [-self.alpha[i] for i in sorted(tight)]
        return Face(tight=tight, piece=Polyhedron(rows, rhs, self.dim))

    def is_empty(self) -> bool:
        """Decided by one LP, unless the origin satisfies every row or a
        point of the set is known (`_feasible_point`)."""
        if all(a >= 0 for a in self.alpha):
            return False
        return self._feasible_point is None

    @cached_property
    def _feasible_point(self):
        """A point of the set, or None for the empty set: the LP's, unless
        a caller that holds a point checked by `contains` assigned it first
        (`VarSystem.multiplier_set`, with a certified multiplier)."""
        return lp_feasible_point(self.b, self.alpha, n=self.dim)

    def some_point(self):
        if self.is_empty():
            return None
        return self._feasible_point

    # -- misc geometry -------------------------------------------------------
    def affine_dimension(self):
        """Dimension of the affine hull; -1 for the empty set.

        Without inequality rows the set is an affine subspace.  Otherwise
        its affine hull is y plus the span of its tangent cone at y, the
        origin when that satisfies every row, else `_feasible_point`: the
        rank of the cone's generators, with no further LP.
        """
        if self.is_empty():
            return -1
        pairs, ineq = self._split
        if not ineq:
            return self.dim - rank([self.b[i] for i, _ in pairs])
        y = ((ZERO,) * self.dim if all(a >= 0 for a in self.alpha)
             else self._feasible_point)
        lin, rays = _cone_generators(
            [self.b[i] for i in sorted(self.tight_rows(y))], self.dim)
        return rank(lin + rays)

    def irredundant(self) -> "Polyhedron":
        """Equivalent description with LP-redundant rows removed."""
        rows = list(self.b)
        rhs = list(self.alpha)
        i = 0
        while i < len(rows):
            others = rows[:i] + rows[i + 1:]
            orhs = rhs[:i] + rhs[i + 1:]
            o = lp_max(rows[i], tuple(others), tuple(orhs))
            if isinstance(o, LpInfeasible):
                return Polyhedron.empty(self.dim)
            if isinstance(o, LpOptimal) and o.value <= rhs[i]:
                rows.pop(i)
                rhs.pop(i)
            else:
                i += 1
        return Polyhedron(rows, rhs, self.dim)

    # -- Euclidean projection -------------------------------------------------
    def project_point(self, x):
        """Euclidean projection: (nearest point, squared distance), exact.

        The nearest point minimizes 1/2 |y|^2 - <x, y> over the set, a
        strictly convex QP: `StrictQpSolver` (Q = I, one solver per
        polyhedron) tries active sets by increasing size and returns the
        first whose exact KKT certificate holds, multipliers >= 0 and
        every inactive row feasible.  The minimizer is unique, so the
        first certified active set gives it.  The first set tried has no
        inequality rows, and for an x in P it gives y = x.
        """
        if self.is_empty():
            raise ValueError("projection onto an empty polyhedron")
        x = rats(x)
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        y = self._projector.solve(tuple(-v for v in x))
        return y, vdot(vsub(x, y), vsub(x, y))

    @cached_property
    def _projector(self):
        return StrictQpSolver(identity(self.dim), self)

    # -- serialization ---------------------------------------------------------
    def to_doc(self):
        return {"b": [[format_rat(v) for v in row] for row in self.b],
                "alpha": [format_rat(a) for a in self.alpha]}

    def __repr__(self):
        return "Polyhedron(rows=%d, dim=%d)" % (len(self.b), self.dim)


class Face(FrozenRecord):
    """A face as its tight row indices plus the induced piece."""

    __slots__ = ("tight", "piece")


class PolyCone(Polyhedron):
    """Polyhedral cone {x : <b_i, x> <= 0}: a polyhedron whose right-hand
    sides are all zero, with lazy generators.

    The generator form (lineality basis + extreme rays modulo lineality)
    is produced by double description and memoized per canonical
    H-representation; both forms are cross-checked on creation of the
    generator form.  Faces are enumerated from the incidences of the
    extreme rays with the rows.
    """

    def __init__(self, rows, dim=None):
        rows = list(rows)
        super().__init__(rows, (ZERO,) * len(rows), dim)

    @property
    def rows(self):
        """The primitive integer rows, deduplicated in order, zero rows
        dropped: the cone's name for `b`."""
        return self.b

    @staticmethod
    def from_generators(lineality, rays, dim):
        """Cone spanned by a lineality space and nonnegative ray combinations."""
        gens = _all_generator_vectors((lineality, rays))
        canon = tuple(sorted(PolyCone(gens, dim).rows))
        key = (dim, canon)
        if key not in _FROM_GEN_MEMO:
            _FROM_GEN_MEMO[key] = PolyCone(
                _all_generator_vectors(_cone_generators(canon, dim)), dim=dim)
        return _FROM_GEN_MEMO[key]

    def _key(self):
        return (self.dim, frozenset(self.rows))

    # -- generators -----------------------------------------------------------
    def generators(self):
        """(lineality basis, extreme rays), memoized."""
        key = self._key()
        if key not in _GEN_MEMO:
            gens = _cone_generators(self.rows, self.dim)
            if not all(self.contains(g) for g in _all_generator_vectors(gens)):
                raise InternalConsistencyError(
                    "generator violates H-representation")
            _GEN_MEMO[key] = gens
        return _GEN_MEMO[key]

    @cached_property
    def span_basis(self):
        """Basis of the linear span of the cone."""
        lin, rays = self.generators()
        stacked = list(lin) + list(rays)
        if not stacked:
            return ()
        red, piv = rref(stacked)
        return tuple(primitive(tuple(red[i])) for i in range(len(piv)))

    # -- polarity ---------------------------------------------------------------
    def polar(self) -> "PolyCone":
        """Nonpositive polar {v : <v, x> <= 0 for all x in the cone}."""
        return PolyCone(_all_generator_vectors(self.generators()), dim=self.dim)

    def dual(self) -> "PolyCone":
        """Nonnegative polar {v : <v, x> >= 0 for all x in the cone}."""
        p = self.polar()
        return PolyCone([tuple(-v for v in r) for r in p.rows], dim=self.dim)

    def set_equal(self, other: "PolyCone") -> bool:
        """Exact set equality via mutual generator membership."""
        for g in _all_generator_vectors(self.generators()):
            if not other.contains(g):
                return False
        for g in _all_generator_vectors(other.generators()):
            if not self.contains(g):
                return False
        return True

    # -- faces ---------------------------------------------------------------
    def faces(self):
        """All nonempty faces as Face(tight rows, sub-cone), memoized.

        The face tight on a subset S of the inequality rows is spanned by
        the lineality space and the extreme rays that vanish on S, so its
        closure (every inequality row tight on the whole face) is the set
        of rows vanishing on all of those rays, or every inequality row
        when no ray does.  The memo is keyed by the set of rows and keeps
        each face's tight rows as vectors, so the indices in `tight` refer
        to the row order of this cone, whichever cone with the same rows
        filled the memo.
        """
        key = self._key()
        if key not in _FACES_MEMO:
            pairs, ineq = self._split
            always = frozenset(i for pair in pairs for i in pair)
            zero_sets = [frozenset(i for i in ineq if vdot(self.rows[i], r) == 0)
                         for r in self.generators()[1]]
            found = {}
            for subset in _subsets(tuple(ineq)):
                closure = frozenset(ineq).intersection(
                    *(z for z in zero_sets if z.issuperset(subset)))
                if closure in found:
                    continue
                rows = list(self.rows) + [tuple(-v for v in self.rows[i])
                                          for i in sorted(closure)]
                found[closure] = (frozenset(self.rows[i] for i in closure | always),
                                  PolyCone(rows, dim=self.dim))
            _FACES_MEMO[key] = tuple(found.values())
        index = {r: i for i, r in enumerate(self.rows)}
        return tuple(Face(tight=frozenset(index[r] for r in tight), piece=piece)
                     for tight, piece in _FACES_MEMO[key])

    def __repr__(self):
        return "PolyCone(rows=%d, dim=%d)" % (len(self.rows), self.dim)


def _all_generator_vectors(generators):
    """The rays, then each lineality vector and its negative, of a
    (lineality basis, extreme rays) pair: the cone is their conic hull."""
    lin, rays = generators
    out = list(rays)
    for l in lin:
        out.append(l)
        out.append(tuple(-v for v in l))
    return out


def _cone_generators(rows, dim):
    """Double description: H-rows -> (lineality basis, extreme rays).

    A row that leaves some lineality vector nonzero turns that vector
    into a ray and shrinks the lineality space.  Any other row keeps the
    rays on its nonpositive side and combines each positive ray with each
    adjacent negative one.  Two rays are adjacent when no third ray
    vanishes on every processed row on which both vanish; the combination
    of a non-adjacent pair is never extreme, so the rays stay exactly the
    extreme rays without pruning (Fukuda and Prodon, 1996).
    """
    lineality = [tuple(ONE if j == i else ZERO for j in range(dim))
                 for i in range(dim)]
    rays: list = []
    for k, b in enumerate(rows):
        lv = [vdot(b, l) for l in lineality]
        hit = next((i for i, v in enumerate(lv) if v != 0), None)
        if hit is not None:
            l0, s = lineality[hit], lv[hit]
            if s > 0:
                l0 = tuple(-v for v in l0)
                s = -s
            new_lin = []
            for i, l in enumerate(lineality):
                if i == hit:
                    continue
                f = lv[i] / s
                new_lin.append(vsub(l, vscale(f, l0)))
            rays = [vsub(r, vscale(vdot(b, r) / s, l0)) for r in rays]
            rays.append(l0)
            lineality = new_lin
        else:
            slack = [vdot(b, r) for r in rays]
            zeros = [frozenset(j for j in range(k) if vdot(rows[j], r) == 0)
                     for r in rays]
            pos = [i for i, v in enumerate(slack) if v > 0]
            neg = [i for i, v in enumerate(slack) if v < 0]
            combo = []
            for i in pos:
                for j in neg:
                    common = zeros[i] & zeros[j]
                    if not any(common <= z for t, z in enumerate(zeros)
                               if t not in (i, j)):
                        combo.append(vadd(vscale(slack[i], rays[j]),
                                          vscale(-slack[j], rays[i])))
            rays = ([rays[j] for j in neg]
                    + [r for r, v in zip(rays, slack) if v == 0] + combo)
        rays = [primitive(r) for r in rays]
    lin_basis = ()
    if lineality:
        red, piv = rref(lineality)
        lin_basis = tuple(primitive(tuple(red[i])) for i in range(len(piv)))
    return lin_basis, tuple(rays)


# -- cone operations on polyhedra -------------------------------------------

def tangent_cone(p: Polyhedron, y) -> PolyCone:
    """Feasible-direction cone at a point: relax the non-tight rows."""
    tight = p.tight_rows(y)
    if tight is None:
        raise ValueError("tangent cone requested at an exterior point")
    return PolyCone([p.b[i] for i in sorted(tight)], dim=p.dim)


def difference_polar(f1: PolyCone, f2: PolyCone):
    """polar(F1 - F2) for cones F2 <= F1, as rows (eq, le):
    {w : <h, w> = 0 for h in eq, <h, w> <= 0 for h in le}.

    polar(F1 - F2) = polar(F1) cap polar(-F2), and every w in polar(F1)
    is <= 0 on F2 already, so the set is polar(F1) cap span(F2)-perp: eq
    holds F1's lineality basis and a basis of span(F2), le F1's extreme
    rays.  Both generator forms come from the memos, so no double
    description runs per pair.
    """
    lin, rays = f1.generators()
    return list(lin) + list(f2.span_basis), list(rays)


def face_differences(cone: PolyCone):
    """F1 - F2 for each pair of faces F2 <= F1 of the cone, as the pair
    ((eq, le), polar), polar = `difference_polar(F1, F2)`.

    With T1 <= T2 the tight row sets of F1 and F2, F1 - F2 is the tangent
    cone of F1 at a relative interior point of F2:
    {v : <r, v> = 0 for r in eq, <r, v> <= 0 for r in le}, eq the rows in
    T1 (one of each opposite pair) and le the rows in T2 - T1.
    """
    faces = cone.faces()
    out = []
    for f1 in faces:
        eq = []
        for i in sorted(f1.tight):
            if tuple(-v for v in cone.rows[i]) not in eq:
                eq.append(cone.rows[i])
        for f2 in faces:
            if f1.tight <= f2.tight:
                le = [cone.rows[i] for i in sorted(f2.tight - f1.tight)]
                out.append(((eq, le), difference_polar(f1.piece, f2.piece)))
    return out


def horizon_cone(p: Polyhedron) -> PolyCone:
    """Recession cone {y : <b_i, y> <= 0 for all i}; requires nonempty input."""
    if p.is_empty():
        raise ValueError("horizon cone of an empty polyhedron")
    return PolyCone(p.b, dim=p.dim)


# -- Fourier-Motzkin projection ----------------------------------------------

def fm_project(p: Polyhedron, keep) -> Polyhedron:
    """Exact projection onto the kept coordinates (ascending order).

    Eliminates one coordinate at a time, preferring substitution through
    recognized equality rows, with LP-based redundancy pruning after
    every elimination.
    """
    keep = sorted(set(keep))
    d = p.dim
    if any(k < 0 or k >= d for k in keep):
        raise ValueError("keep index out of range")
    drop = [j for j in range(d) if j not in keep]
    rows = [list(r) for r in p.b]
    rhs = list(p.alpha)

    for v in drop:
        rows, rhs = _eliminate_var(rows, rhs, v)
        pr = Polyhedron([tuple(r) for r in rows], rhs, d).irredundant()
        rows = [list(r) for r in pr.b]
        rhs = list(pr.alpha)

    out_rows = []
    for r in rows:
        if any(r[j] != 0 for j in drop):
            raise InternalConsistencyError("eliminated coordinate survives")
        out_rows.append(tuple(r[j] for j in keep))
    return Polyhedron(out_rows, rhs, len(keep))


def _eliminate_var(rows, rhs, v):
    # substitution through an equality pair touching v, when available
    n = len(rows)
    index = {}
    for i, r in enumerate(rows):
        index[(tuple(r), rhs[i])] = i
    for i, r in enumerate(rows):
        if r[v] == 0:
            continue
        neg = (tuple(-x for x in r), -rhs[i])
        cneg = _canon_row(*neg)
        j = None
        for k, rr in enumerate(rows):
            if k != i and _canon_row(tuple(rr), rhs[k]) == cneg:
                j = k
                break
        if j is not None:
            base, brhs, piv = rows[i], rhs[i], rows[i][v]
            new_rows, new_rhs = [], []
            for k, rr in enumerate(rows):
                if k in (i, j):
                    continue
                f = rr[v] / piv
                new_rows.append([a - f * bv for a, bv in zip(rr, base)])
                new_rhs.append(rhs[k] - f * brhs)
            return new_rows, new_rhs
    # classic Fourier-Motzkin combination step
    pos = [i for i, r in enumerate(rows) if r[v] > 0]
    neg = [i for i, r in enumerate(rows) if r[v] < 0]
    zero = [i for i, r in enumerate(rows) if r[v] == 0]
    new_rows = [list(rows[i]) for i in zero]
    new_rhs = [rhs[i] for i in zero]
    for ip in pos:
        a = rows[ip][v]
        for im in neg:
            c = rows[im][v]
            # a > 0, c < 0: (-c) * row_p + a * row_m kills coordinate v
            new_rows.append([(-c) * x + a * y for x, y in zip(rows[ip], rows[im])])
            new_rhs.append((-c) * rhs[ip] + a * rhs[im])
    return new_rows, new_rhs


# -- unions and limiting normals ----------------------------------------------

class PolyUnion:
    """Finite union of polyhedral pieces; membership tests each piece."""

    def __init__(self, pieces):
        self.pieces = tuple(pieces)

    def contains(self, y) -> bool:
        return any(p.contains(y) for p in self.pieces)

    def __len__(self):
        return len(self.pieces)

    def __iter__(self):
        return iter(self.pieces)


def intersect_cones(cones, dim) -> PolyCone:
    rows = []
    for c in cones:
        rows.extend(c.rows)
    return PolyCone(rows, dim=dim)


def limiting_normal_cone_union(union: PolyUnion, point):
    """Limiting normal cone to a finite union of polyhedra, exactly.

    Locally the union agrees with the union of the tangent cones of the
    pieces containing the point.  Regular normal cones are constant on
    the relatively open cells of the hyperplane arrangement spanned by
    all tangent rows, so the limiting cone is the union, over the cells
    contained in the local union, of the intersections of the normal
    cones of the covering pieces.  Returns a PolyUnion of PolyCone.
    """
    point = rats(point)
    holders = [p for p in union.pieces if p.contains(point)]
    if not holders:
        raise ValueError("point outside the union")
    dim = holders[0].dim
    tangents = [tangent_cone(p, point) for p in holders]

    # hyperplane arrangement data: sign-canonical primitive normals
    hyper = []
    hindex = {}
    trows = []  # per tangent: list of (hyper index, required sign of <h,x>)
    for t in tangents:
        req = []
        for b in t.rows:
            h = primitive(b)
            neg = tuple(-v for v in h)
            if h in hindex:
                req.append((hindex[h], -1))        # <b,x> <= 0 with b = +h
            elif neg in hindex:
                req.append((hindex[neg], +1))       # b = -h: <h,x> >= 0
            else:
                hindex[h] = len(hyper)
                hyper.append(h)
                req.append((hindex[h], -1))
        trows.append(req)

    cells = _arrangement_cells(hyper, dim)

    cones = []
    seen = set()
    for signs in cells:
        covering = [k for k, req in enumerate(trows)
                    if all(signs[hi] == 0 or signs[hi] == s for hi, s in req)]
        if not covering:
            continue
        normal_parts = []
        for k in covering:
            gens = [tangents[k].rows[j] for j, b in enumerate(tangents[k].rows)
                    if _row_sign_on_cell(b, hindex, signs) == 0]
            normal_parts.append(PolyCone.from_generators((), gens, dim))
        cone = intersect_cones(normal_parts, dim)
        key = frozenset(cone.rows)
        if key not in seen:
            seen.add(key)
            cones.append(cone)

    # the regular normal cone at the point must be covered
    regular = intersect_cones(
        [PolyCone.from_generators((), list(t.rows), dim) for t in tangents], dim)
    for g in _all_generator_vectors(regular.generators()):
        if not any(c.contains(g) for c in cones):
            raise InternalConsistencyError(
                "regular normal cone escaped the limiting cone union")
    return PolyUnion(cones)


def _row_sign_on_cell(b, hindex, signs):
    h = primitive(b)
    if h in hindex:
        return signs[hindex[h]]
    return -signs[hindex[tuple(-v for v in h)]]


def _arrangement_cells(hyper, dim):
    """Sign vectors of the nonempty cells of a central arrangement."""
    cells = []

    def feasible(assign):
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for hi, s in enumerate(assign):
            h = hyper[hi]
            if s == 0:
                a_eq.append(h)
                b_eq.append(ZERO)
            elif s < 0:
                a_ub.append(h)
                b_ub.append(-ONE)
            else:
                a_ub.append(tuple(-v for v in h))
                b_ub.append(-ONE)
        return lp_feasible_point(tuple(a_ub), tuple(b_ub),
                                 tuple(a_eq), tuple(b_eq), n=dim) is not None

    def rec(assign):
        if len(assign) == len(hyper):
            cells.append(tuple(assign))
            return
        for s in (0, -1, 1):
            assign.append(s)
            if feasible(assign):
                rec(assign)
            assign.pop()

    if hyper:
        rec([])
    else:
        cells.append(())
    return cells
