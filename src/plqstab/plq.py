"""Calculus of piecewise linear-quadratic penalties.

theta(u) = sup_{y in Y} { <y, u> - 1/2 <y, B y> }

for a nonempty convex polyhedron Y and a symmetric PSD matrix B.  The
module provides exact evaluation, the domain cone, subdifferentials and
their inverses, the proximal map (with a per-call verified identity,
and a float evaluator on its cached exact affine pieces),
second subderivatives, graphical derivatives, second-order difference
quotients, and the limiting normal cones of the subdifferential graph
(the coderivative test).

The subdifferential graph is the preimage of gph N_Y under the
invertible map A(z, lam) = (lam, z - B lam).  By the reduction lemma
and Dontchev and Rockafellar (SIAM J. Optim. 6, 1996), the limiting
normal cone of gph N_Y at (lam, z - B lam) is the union, over faces
F2 <= F1 of the critical cone K, of polar(F1 - F2) x (F1 - F2); pulled
back through A^T it is the union of the cones
{(u, v) : u in F1 - F2, v + B u in polar(F1 - F2)}, with the rows of
polar(F1 - F2) = polar(F1) cap span(F2)-perp read off the generators of
F1 and the span of F2 (`polyhedra.difference_polar`).  `graph_pieces` (one
polyhedron per face of Y) with `polyhedra.limiting_normal_cone_union`
computes the same union through a hyperplane arrangement; the two are
kept as the differential reference, off the verdict path.

All values are exact rationals; +infinity is represented by ExtReal.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import InternalConsistencyError
from .linalg import RatMatrix, psd_check
from .polyhedra import (PolyCone, Polyhedron, PolyUnion, face_differences,
                        fm_project)
from .qp import (QpOptimal, QpUnbounded, StrictQpSolver, _fdot, _subsets,
                 qp_solve)
from .rational import ONE, ZERO, rat, rats, to_float, vadd, vdot, vscale, vsub

__all__ = ["ExtReal", "NotPsdError", "PLUS_INF", "PlqPenalty",
           "coderivative_contains", "subdiff_graph_normal_cones"]


class ExtReal:
    """A rational number or +infinity, with absorbing arithmetic."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = None if value is None else rat(value)

    @property
    def is_finite(self):
        return self.value is not None

    def __add__(self, other):
        if isinstance(other, ExtReal):
            if self.is_finite and other.is_finite:
                return ExtReal(self.value + other.value)
            return PLUS_INF
        if self.is_finite:
            return ExtReal(self.value + rat(other))
        return PLUS_INF

    __radd__ = __add__

    def scale(self, t):
        """Multiply by a positive rational (positive homogeneity only)."""
        t = rat(t)
        if t <= 0:
            raise ValueError("scale factor must be positive")
        return ExtReal(self.value * t) if self.is_finite else PLUS_INF

    def __eq__(self, other):
        if isinstance(other, ExtReal):
            return self.value == other.value
        return self.is_finite and self.value == rat(other)

    def __lt__(self, other):
        o = other if isinstance(other, ExtReal) else ExtReal(other)
        if not self.is_finite:
            return False
        if not o.is_finite:
            return True
        return self.value < o.value

    def __le__(self, other):
        return self == other or self < other

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "+inf" if not self.is_finite else "ExtReal(%s)" % (self.value,)


PLUS_INF = ExtReal(None)


def _float_rows(mat: RatMatrix):
    return tuple(tuple(to_float(v) for v in row) for row in mat.rows)


class NotPsdError(ValueError):
    """B is not symmetric positive semidefinite; raised by `PlqPenalty`
    before any check of Y, so that a problem file reports B first."""


class PlqPenalty:
    """The pair (Y, B) and the calculus of its dualizing penalty."""

    def __init__(self, poly_y: Polyhedron, bmat: RatMatrix):
        if not psd_check(bmat):
            raise NotPsdError("B must be symmetric positive semidefinite")
        if poly_y.dim != bmat.nrows:
            raise ValueError("Y and B dimension mismatch")
        self.Y = poly_y
        self.B = bmat
        self.m = bmat.nrows
        if self.Y.is_empty():
            raise ValueError("Y must be nonempty (penalty would be improper)")
        self._theta = {}  # exact u -> (theta(u), maximizer or None)
        self._pieces = {}  # active set -> exact prox piece (J, o)
        # active set -> float Jacobian blocks (I - J, -J) of the prox pieces
        # `prox_float` has met
        self._float_jacs = {}

    # -- evaluation ------------------------------------------------------------
    def theta_with_argmax(self, u):
        """(theta(u), a maximizer or None when the value is +infinity),
        memoized per exact u on this instance: the solution check of a
        point (`subdiff_contains`) and its multiplier set (`subdiff`) share
        one QP at Phi(x)."""
        u = rats(u)
        if u not in self._theta:
            out = qp_solve(self.B, tuple(-v for v in u), self.Y)
            if isinstance(out, QpUnbounded):
                self._theta[u] = PLUS_INF, None
            elif isinstance(out, QpOptimal):
                self._theta[u] = ExtReal(-out.value), out.point
            else:  # Y nonempty was checked
                raise InternalConsistencyError("QP over nonempty Y is infeasible")
        return self._theta[u]

    def theta(self, u) -> ExtReal:
        return self.theta_with_argmax(u)[0]

    # -- domain -----------------------------------------------------------------
    @cached_property
    def domain_cone(self) -> PolyCone:
        """dom theta: nonpositive polar of (horizon of Y) intersect ker B."""
        rows = list(self.Y.b)
        for r in self.B.rows:
            rows.append(tuple(r))
            rows.append(tuple(-v for v in r))
        return PolyCone(rows, dim=self.m).polar()

    # -- subdifferential ----------------------------------------------------------
    def subdiff(self, u) -> Polyhedron:
        """The exact maximizer polyhedron; empty iff u is outside the domain."""
        u = rats(u)
        val, ystar = self.theta_with_argmax(u)
        if ystar is None:
            return Polyhedron.empty(self.m)
        by = self.B.matvec(ystar)
        grad = vsub(u, by)  # u - B y*, constant on the solution set
        rows = list(self.Y.b)
        rhs = list(self.Y.alpha)
        for i, brow in enumerate(self.B.rows):
            rows.append(tuple(brow))
            rhs.append(by[i])
            rows.append(tuple(-v for v in brow))
            rhs.append(-by[i])
        rows.append(grad)
        rhs.append(vdot(grad, ystar))
        rows.append(tuple(-v for v in grad))
        rhs.append(-vdot(grad, ystar))
        return Polyhedron(rows, rhs, self.m)

    def subdiff_contains(self, u, lam) -> bool:
        """lam in the subdifferential at u, i.e. u - B lam normal to Y at lam.

        Cross-checked against the Fenchel equality
        theta(u) == <lam, u> - 1/2 <lam, B lam>.
        """
        lam = rats(lam)
        return self.subdiff_contains_at(u, lam, self.Y.tight_rows(lam))

    def subdiff_contains_at(self, u, lam, tight) -> bool:
        """`subdiff_contains(u, lam)` with `tight` the rows of Y tight at
        lam (`Polyhedron.tight_rows`, None off Y), read by the caller."""
        if tight is None:
            return False
        u = rats(u)
        lam = rats(lam)
        result = self.Y.normal_cone_of(tight).contains(
            vsub(u, self.B.matvec(lam)))
        val = self.theta(u)
        fenchel = val.is_finite and \
            val.value == vdot(lam, u) - vdot(lam, self.B.matvec(lam)) / 2
        if result != fenchel:
            raise InternalConsistencyError(
                "subgradient test disagrees with Fenchel equality")
        return result

    def inverse_subdiff(self, lam) -> Polyhedron:
        """{u : lam in subdiff(u)} = B lam + N_Y(lam); empty off Y."""
        lam = rats(lam)
        nc = self._normal_cone_at(lam)
        if nc is None:
            return Polyhedron.empty(self.m)
        shift = self.B.matvec(lam)
        rows = nc.rows
        rhs = [vdot(r, shift) for r in rows]
        return Polyhedron(rows, rhs, self.m)

    def inverse_subdiff_dist2(self, u, lam):
        """Squared distance from u to `inverse_subdiff(lam)`, exact; None
        off Y.  The set is B lam + N_Y(lam), so this projects u - B lam
        onto the normal cone, one memoized cone per tight set of Y."""
        u = rats(u)
        lam = rats(lam)
        nc = self._normal_cone_at(lam)
        if nc is None:
            return None
        return nc.project_point(vsub(u, self.B.matvec(lam)))[1]

    def _normal_cone_at(self, lam):
        """N_Y(lam) from one pass over the rows of Y, or None off Y."""
        tight = self.Y.tight_rows(lam)
        return None if tight is None else self.Y.normal_cone_of(tight)

    # -- proximal map ---------------------------------------------------------------
    @cached_property
    def _prox_solver(self) -> StrictQpSolver:
        q = RatMatrix([[self.B.rows[i][j] + (ONE if i == j else ZERO)
                        for j in range(self.m)] for i in range(self.m)])
        return StrictQpSolver(q, self.Y)

    def prox(self, x, with_subset=False):
        """Proximal point, via the conjugate pair: prox(x) = x - y*(x)
        with y* the minimizer of 1/2<y,By> + 1/2|x-y|^2 over Y.  With
        `with_subset`, the pair (prox(x), active set of the solve).

        Postcondition verified on every call: x - prox(x) is a
        subgradient at prox(x), through the normal-cone characterization
        prox(x) - B y* in N_Y(y*).
        """
        x = rats(x)
        ystar, subset = self._prox_solver.solve(tuple(-v for v in x),
                                                  with_subset=True)
        p = vsub(x, ystar)
        nc = self._normal_cone_at(ystar)
        if nc is None or not nc.contains(vsub(p, self.B.matvec(ystar))):
            raise InternalConsistencyError("proximal identity failed")
        return (p, subset) if with_subset else p

    def _piece(self, subset):
        """Exact (J, o) of prox on the active set `subset`: prox(v) =
        v - y*(v) = J v + o there, with y*(v) = M v + d and J = I - M,
        o = -d."""
        if subset not in self._pieces:
            mmat, d = self._prox_solver.piece(subset)
            jac = RatMatrix([[(ONE if i == j else ZERO) - mmat[i][j]
                              for j in range(self.m)] for i in range(self.m)])
            self._pieces[subset] = (jac, tuple(-v for v in d))
        return self._pieces[subset]

    def prox_linearization(self, x):
        """An active-piece affine model of prox at x: (matrix J, offset o).

        On the active piece of the exact, postcondition-checked prox the
        map is affine, prox(v) = J v + o; J is a generalized Jacobian
        element at kinks.
        """
        x = rats(x)
        p, subset = self.prox(x, with_subset=True)
        jac, offset = self._piece(subset)
        if vadd(jac.matvec(x), offset) != p:
            raise InternalConsistencyError("active prox piece misses prox(x)")
        return jac, offset

    def _jac_blocks(self, rows):
        """(I - J, -J) as tuples of rows for the float Jacobian J with these
        rows, each entry (1.0 or 0.0) - J_ik and -J_ik: the blocks the
        Newton matrix reads, computed once per piece."""
        return (tuple(tuple((1.0 if i == k else 0.0) - v
                            for k, v in enumerate(row))
                      for i, row in enumerate(rows)),
                tuple(tuple(-v for v in row) for row in rows))

    def prox_float(self, v):
        """(prox(v), (I - J, -J)) in float for a float point v: prox(v) a
        list of floats, J the piece's Jacobian (`_jac_blocks`).

        The active piece is chosen by `StrictQpSolver.solve_float`, and
        prox(v) = v - y is one float subtraction per entry; J is the
        piece's exact Jacobian rounded once, cached as its blocks per
        piece.  The first time a piece is chosen, `prox_linearization` runs
        the exact prox at the exact value of v before the piece enters the
        cache; when no piece passes in float, the exact piece it returns
        is used.  A v past float range has no exact value; where one is
        needed, prox(v) and J are nan.
        """
        hit = self._prox_solver.solve_float([-a for a in v])
        float_jacs = self._float_jacs
        if hit is not None and hit[0] in float_jacs:
            return [a - b for a, b in zip(v, hit[1])], float_jacs[hit[0]]
        if hit is None or hit[0] not in self._pieces:
            if not all(map(math.isfinite, v)):
                return ([math.nan] * self.m,
                        self._jac_blocks([[math.nan] * self.m] * self.m))
            jac, offset = self.prox_linearization(rats(v))
            if hit is None:
                jac = _float_rows(jac)
                return ([_fdot(row, v) + to_float(o)
                         for row, o in zip(jac, offset)], self._jac_blocks(jac))
        float_jacs[hit[0]] = self._jac_blocks(_float_rows(self._piece(hit[0])[0]))
        return [a - b for a, b in zip(v, hit[1])], float_jacs[hit[0]]

    # -- second-order objects ----------------------------------------------------------
    def critical_cone_at(self, zbar, lam) -> PolyCone:
        """K_Y(lam, zbar - B lam) for a verified graph pair (zbar, lam)."""
        zbar = rats(zbar)
        lam = rats(lam)
        tight = self.Y.tight_rows(lam)
        if not self.subdiff_contains_at(zbar, lam, tight):
            raise ValueError("(zbar, lam) is not in the subdifferential graph")
        return self.Y.critical_cone_of(tight, vsub(zbar, self.B.matvec(lam)))

    def second_subderivative(self, zbar, lam, u) -> ExtReal:
        """Twice theta with Y replaced by the critical cone at (zbar, lam)."""
        k = self.critical_cone_at(zbar, lam)
        return PlqPenalty(k, self.B).theta(u).scale(2)

    def graph_derivative_contains(self, zbar, lam, u, eta) -> bool:
        """eta in D(subdiff)(zbar, lam)(u), by the conic reformulation:
        eta in K, u - B eta in polar(K), <u - B eta, eta> = 0.
        """
        k = self.critical_cone_at(zbar, lam)
        u = rats(u)
        eta = rats(eta)
        if not k.contains(eta):
            return False
        resid = vsub(u, self.B.matvec(eta))
        if vdot(resid, eta) != 0:
            return False
        return k.polar().contains(resid)

    def difference_quotient(self, xbar, ybar, w, t) -> ExtReal:
        """Second-order difference quotient
        (theta(xbar + t w) - theta(xbar) - t<ybar, w>) / (t^2/2).
        """
        t = rat(t)
        if t <= 0:
            raise ValueError("step must be positive")
        base = self.theta(xbar)
        if not base.is_finite:
            raise ValueError("base point outside the domain")
        xbar = rats(xbar)
        w = rats(w)
        shifted = self.theta(vadd(xbar, vscale(t, w)))
        if not shifted.is_finite:
            return PLUS_INF
        num = shifted.value - base.value - t * vdot(rats(ybar), w)
        return ExtReal(num / (t * t / 2))

    # -- graph structure ------------------------------------------------------------------
    def graph_pieces(self) -> PolyUnion:
        """gph(subdiff) in (z, lam) space as a finite union of polyhedra.

        One piece per face of Y: lam tight on the face, z - B lam in the
        cone spanned by the tight rows (lifted multipliers eliminated by
        Fourier-Motzkin projection).  The reference for the limiting
        normals of `subdiff_graph_normal_cones`, through
        `polyhedra.limiting_normal_cone_union`; no verdict reads it.
        """
        m = self.m
        eq_pairs, ineq = self.Y._split
        eq_rows, eq_rhs = self.Y.eq_system()
        pieces = []
        for subset in _subsets(tuple(ineq)):
            gen_rows = list(eq_rows) + [self.Y.b[i] for i in subset]
            nb = len(gen_rows)
            nb_free = len(eq_rows)  # multipliers of equality rows are free
            dim = 2 * m + nb
            rows, rhs = [], []
            # lam constraints: tight on subset, feasible elsewhere
            for k, r in enumerate(eq_rows):
                row = [ZERO] * dim
                for j in range(m):
                    row[m + j] = r[j]
                rows.append(tuple(row)); rhs.append(eq_rhs[k])
                rows.append(tuple(-v for v in row)); rhs.append(-eq_rhs[k])
            for i in ineq:
                row = [ZERO] * dim
                for j in range(m):
                    row[m + j] = self.Y.b[i][j]
                if i in subset:
                    rows.append(tuple(row)); rhs.append(self.Y.alpha[i])
                    rows.append(tuple(-v for v in row)); rhs.append(-self.Y.alpha[i])
                else:
                    rows.append(tuple(row)); rhs.append(self.Y.alpha[i])
            # z - B lam = sum beta_k b_k   (beta free on equality rows, >= 0 else)
            for r_ix in range(m):
                row = [ZERO] * dim
                row[r_ix] = ONE
                for j in range(m):
                    row[m + j] = -self.B.rows[r_ix][j]
                for k in range(nb):
                    row[2 * m + k] = -gen_rows[k][r_ix]
                rows.append(tuple(row)); rhs.append(ZERO)
                rows.append(tuple(-v for v in row)); rhs.append(ZERO)
            for k in range(nb_free, nb):
                row = [ZERO] * dim
                row[2 * m + k] = -ONE
                rows.append(tuple(row)); rhs.append(ZERO)
            lifted = Polyhedron(rows, rhs, dim)
            piece = fm_project(lifted, range(2 * m))
            if not piece.is_empty():
                pieces.append(piece)
        return PolyUnion(pieces)

    def __repr__(self):
        return "PlqPenalty(m=%d, rows=%d)" % (self.m, len(self.Y.b))


def subdiff_graph_normal_cones(penalty: PlqPenalty, zbar, lam) -> PolyUnion:
    """Limiting normal cones to gph(subdiff) at (zbar, lam), in (z, lam)
    space: one cone {(u, v) : u in D, v + B u in polar(D)} per pair of
    faces F2 <= F1 of the critical cone, D = F1 - F2, with the rows of
    polar(D) from `polyhedra.difference_polar`."""
    kcone = penalty.critical_cone_at(zbar, lam)
    m, bmat = penalty.m, penalty.B
    zero = (ZERO,) * m
    cones = []
    for (eq, le), (polar_eq, polar_le) in face_differences(kcone):
        # u in D, and <h, v + B u> = <(B h, h), (u, v)> is <= 0 on the le
        # rows h of polar(D) and = 0 on its eq rows
        le_rows = [tuple(r) + zero for r in le]
        le_rows += [tuple(bmat.matvec(h)) + tuple(h) for h in polar_le]
        eq_rows = [tuple(r) + zero for r in eq]
        eq_rows += [tuple(bmat.matvec(h)) + tuple(h) for h in polar_eq]
        rows = le_rows + eq_rows + [tuple(-v for v in r) for r in eq_rows]
        cones.append(PolyCone(rows, dim=2 * m))
    return PolyUnion(cones)


def coderivative_contains(penalty: PlqPenalty, zbar, lam, w, u) -> bool:
    """u in D*(subdiff)(zbar, lam)(w), i.e. (u, -w) is a limiting normal
    of the subdifferential graph at (zbar, lam)."""
    cones = subdiff_graph_normal_cones(penalty, zbar, lam)
    return cones.contains(rats(u) + tuple(-rat(v) for v in w))
