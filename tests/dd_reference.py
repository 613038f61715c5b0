"""Reference double description and face enumeration for differential
tests.

The LP-based versions that `polyhedra` replaced by incidence tests:
`cone_generators_by_lp` combines every positive ray with every negative
one and then drops each ray that a feasibility LP finds in the cone of
the others plus the lineality space.  `faces_by_lp` closes each subset
of the inequality rows with a relative-interior LP and, when that LP
finds the face thinner, one LP per remaining row, all under a box
normalisation.  `in_cone_span` is the LP membership test v in
cone(rays) + span(lineality).

The LP-free versions, by enumeration on the elimination of
`rational_reference`: `cone_generators_by_subsets` reads each extreme
ray off a row subset of rank dim - 1 (the lineality basis counted), and
`faces_by_incidence` closes each subset of the inequality rows through
the rays that vanish on it.  `canonical_generators` puts a generator
pair in the form both return.
"""

from itertools import combinations

from plqstab.linalg import rref
from plqstab.lp import LpOptimal, lp_feasible_point, lp_max
from plqstab.polyhedra import PolyCone
from plqstab.qp import _subsets
from plqstab.rational import (ONE, ZERO, is_zero_vec, primitive, vadd, vdot,
                              vscale, vsub)
from rational_reference import (kernel_basis_reference, primitive_reference,
                                rank_reference, rref_reference)


def cone_generators_by_lp(rows, dim):
    """H-rows -> (lineality basis, extreme rays), pruned by LPs."""
    lineality = [tuple(ONE if j == i else ZERO for j in range(dim))
                 for i in range(dim)]
    rays = []
    for b in rows:
        lv = [vdot(b, l) for l in lineality]
        hit = next((i for i, v in enumerate(lv) if v != 0), None)
        if hit is not None:
            l0, s = lineality[hit], lv[hit]
            if s > 0:
                l0 = tuple(-v for v in l0)
                s = -s
            lineality = [vsub(l, vscale(lv[i] / s, l0))
                         for i, l in enumerate(lineality) if i != hit]
            rays = [vsub(r, vscale(vdot(b, r) / s, l0)) for r in rays]
            rays.append(l0)
        else:
            pos = [r for r in rays if vdot(b, r) > 0]
            neg = [r for r in rays if vdot(b, r) < 0]
            zero = [r for r in rays if vdot(b, r) == 0]
            combo = [vadd(vscale(vdot(b, rp), rn), vscale(-vdot(b, rn), rp))
                     for rp in pos for rn in neg]
            rays = neg + zero + combo
        rays = _prune_rays(rays, lineality)
    lin_basis = ()
    if lineality:
        red, piv = rref(lineality)
        lin_basis = tuple(primitive(tuple(red[i])) for i in range(len(piv)))
    return lin_basis, tuple(rays)


def _prune_rays(rays, lineality):
    out = []
    for r in rays:
        r = primitive(r)
        if not is_zero_vec(r) and r not in out:
            out.append(r)
    i = 0
    while i < len(out):
        if in_cone_span(out[i], out[:i] + out[i + 1:], lineality):
            out.pop(i)
        else:
            i += 1
    return out


def in_cone_span(v, rays, lineality):
    """v in cone(rays) + span(lineality)?  LP feasibility."""
    n = len(v)
    k, kl = len(rays), len(lineality)
    if k == 0 and kl == 0:
        return is_zero_vec(v)
    a_eq = [tuple(r[j] for r in rays) + tuple(l[j] for l in lineality)
            for j in range(n)]
    a_ub = [tuple(-ONE if j == i else ZERO for j in range(k + kl))
            for i in range(k)]
    return lp_feasible_point(tuple(a_ub), (ZERO,) * k, tuple(a_eq), tuple(v),
                             n=k + kl) is not None


def faces_by_lp(cone):
    """((tight row indices, face piece rows), ...) in `PolyCone.faces` order."""
    pairs, ineq = _opposite_pairs(cone.rows)
    always = frozenset(i for pair in pairs for i in pair)
    found = {}
    for subset in _subsets(tuple(ineq)):
        closure = _face_closure(cone, subset, ineq)
        if closure not in found:
            rows = list(cone.rows) + [tuple(-v for v in cone.rows[i])
                                      for i in sorted(closure)]
            found[closure] = (closure | always, PolyCone(rows, dim=cone.dim).rows)
    return tuple(found.values())


def _opposite_pairs(rows):
    index = {r: i for i, r in enumerate(rows)}
    used = set()
    pairs = []
    for i, r in enumerate(rows):
        if i in used:
            continue
        j = index.get(tuple(-v for v in r))
        if j is not None and j not in used and j != i:
            pairs.append((i, j))
            used.update((i, j))
    return pairs, [i for i in range(len(rows)) if i not in used]


def _face_closure(cone, subset, ineq):
    """Inequality rows identically zero on the face tight on `subset`."""
    n = cone.dim
    box_rows = [tuple(s if j == i else ZERO for j in range(n))
                for i in range(n) for s in (ONE, -ONE)]
    box_rhs = [ONE] * (2 * n)
    eq = [cone.rows[i] for i in subset]
    others = [i for i in ineq if i not in subset]
    # relative-interior probe over (x, t): maximize t subject to
    # <b_i, x> <= -t for the rows outside the subset; t* > 0 means the
    # subset is already closed
    a_ub = [tuple(r) + (ZERO,) for r in cone.rows]
    a_ub += [tuple(cone.rows[i]) + (ONE,) for i in others]
    a_ub += [tuple(r) + (ZERO,) for r in box_rows]
    a_ub.append((ZERO,) * n + (ONE,))
    b_ub = [ZERO] * (len(cone.rows) + len(others)) + box_rhs + [ONE]
    o = lp_max((ZERO,) * n + (ONE,), a_ub, b_ub,
               [tuple(r) + (ZERO,) for r in eq], [ZERO] * len(eq))
    if not isinstance(o, LpOptimal):
        raise AssertionError("face probe LP is not optimal")
    if o.value > 0:
        return frozenset(subset)
    # row i is identically zero on the face iff max -<b_i, x> is 0 there
    closure = set(subset)
    for i in others:
        o = lp_max(tuple(-v for v in cone.rows[i]), list(cone.rows) + box_rows,
                   [ZERO] * len(cone.rows) + box_rhs, eq, [ZERO] * len(eq))
        if not isinstance(o, LpOptimal):
            raise AssertionError("face closure LP is not optimal")
        if o.value == 0:
            closure.add(i)
    return frozenset(closure)


# -- LP-free: row subsets and ray incidences -------------------------------------


def _reduced_basis(vectors):
    """The primitive rows of the reduced echelon form of the vectors' span."""
    red, pivots = rref_reference(vectors) if vectors else ([], [])
    return tuple(primitive_reference(red[i]) for i in range(len(pivots))), pivots


def canonical_generators(lineality, rays):
    """(reduced lineality basis, frozenset of rays), each ray reduced
    modulo the lineality space (zero in its pivot columns) and made
    primitive: two generator pairs of one cone agree in this form."""
    basis, pivots = _reduced_basis(list(lineality))
    out = set()
    for r in rays:
        for b, c in zip(basis, pivots):
            r = vsub(r, vscale(r[c] / b[c], b))
        out.add(primitive_reference(r))
    return basis, frozenset(out)


def cone_generators_by_subsets(rows, dim):
    """(reduced lineality basis, frozenset of extreme rays) of the cone
    {x : <b, x> <= 0 for b in rows}, with no LP.

    The lineality space is the kernel of the rows.  An extreme ray
    orthogonal to it is, up to sign, the one-dimensional kernel of some
    row subset stacked on the lineality basis with rank dim - 1; it is
    kept when it satisfies every row.  Subsets of dim - 1 - (lineality
    dimension) rows suffice."""
    rows = [tuple(r) for r in rows]
    unit = [tuple(ONE if j == i else ZERO for j in range(dim))
            for i in range(dim)]
    lin = kernel_basis_reference(rows) if rows else unit
    rays = set()
    if len(lin) == dim:  # the whole space
        return canonical_generators(lin, rays)
    for subset in combinations(rows, dim - 1 - len(lin)):
        stacked = list(subset) + list(lin)
        if rank_reference(stacked) != dim - 1:
            continue
        ray = (kernel_basis_reference(stacked) if stacked else unit)[0]
        for r in (ray, tuple(-v for v in ray)):
            if all(vdot(b, r) <= 0 for b in rows):
                rays.add(primitive_reference(r))
    return canonical_generators(lin, rays)


def faces_by_incidence(cone, rays):
    """((tight row indices, face piece rows), ...) in `PolyCone.faces`
    order: the face tight on a subset S of the inequality rows is spanned
    by the lineality space and the rays vanishing on S, so every
    inequality row vanishing on all of those rays is tight on all of it."""
    pairs, ineq = _opposite_pairs(cone.rows)
    always = frozenset(i for pair in pairs for i in pair)
    zero_sets = [frozenset(i for i in ineq if vdot(cone.rows[i], r) == 0)
                 for r in rays]
    found = {}
    for subset in _subsets(tuple(ineq)):
        closure = frozenset(ineq).intersection(
            *(z for z in zero_sets if z.issuperset(subset)))
        if closure not in found:
            rows = list(cone.rows) + [tuple(-v for v in cone.rows[i])
                                      for i in sorted(closure)]
            found[closure] = (closure | always, PolyCone(rows, dim=cone.dim).rows)
    return tuple(found.values())
