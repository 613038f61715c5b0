"""Reference Euclidean projection for differential tests: the affine
projection onto every subset of the inequality rows (with the equality
rows), each through an exact Gram pseudo-inverse, keeping the nearest
feasible candidate.  The projection lies on some face, where it equals
the affine projection onto the rows tight there, so the scan is exact;
it costs 2^p pseudo-inverses for p inequality rows.  The same scan, with
the multipliers of each feasible candidate decided by the reference LP,
gives the first certified active set in size order.
"""

from itertools import combinations

from lp_reference import reference_lp_solve
from plqstab.linalg import RatMatrix, pseudo_inverse_psd
from plqstab.lp import LpInfeasible, LpProblem
from plqstab.rational import ONE, ZERO, rat, vdot, vsub


def _affine_projection(poly, x, eq_rows, eq_rhs, subset):
    """The affine projection of x onto {E y = e, <b_i, y> = alpha_i for i
    in subset}, or None when that system is inconsistent."""
    rows = list(eq_rows) + [poly.b[i] for i in subset]
    rhs = tuple(eq_rhs) + tuple(poly.alpha[i] for i in subset)
    if not rows:
        return x
    amat = RatMatrix(rows)
    mu = pseudo_inverse_psd(amat @ amat.T).matvec(vsub(amat.matvec(x), rhs))
    cand = vsub(x, amat.rmatvec(mu))
    return cand if amat.matvec(cand) == rhs else None


def _feasible_candidates(poly, x):
    """(subset, affine projection) for every subset of the inequality rows,
    by increasing size, whose affine projection lies in `poly`."""
    eq_rows, eq_rhs = poly.eq_system()
    _, ineq = poly._split
    for k in range(len(ineq) + 1):
        for subset in combinations(ineq, k):
            cand = _affine_projection(poly, x, eq_rows, eq_rhs, subset)
            if cand is not None and poly.contains(cand):
                yield subset, cand


def project_by_subsets(poly, x):
    """(nearest point, squared distance) of x on the nonempty `poly`."""
    x = tuple(rat(v) for v in x)
    best, best_d = None, None
    for _, cand in _feasible_candidates(poly, x):
        d = vdot(vsub(x, cand), vsub(x, cand))
        if best_d is None or d < best_d:
            best, best_d = cand, d
    if best is None:
        raise AssertionError("nonempty polyhedron with no projection candidate")
    return best, best_d


def first_certified_subset(poly, x):
    """The first subset S of the inequality rows, by increasing size, whose
    affine projection y lies in `poly` and has x - y = A_S^T mu + E^T nu
    for some mu >= 0 and free nu (E the equality rows, dependent ones
    kept).  The reference LP decides the multipliers of every feasible
    candidate, one with linearly dependent rows included."""
    x = tuple(rat(v) for v in x)
    eq_rows, _ = poly.eq_system()
    for subset, y in _feasible_candidates(poly, x):
        gens = [poly.b[i] for i in subset] + list(eq_rows)
        resid = vsub(x, y)
        if not gens:
            if not any(resid):
                return subset
            continue
        ns, nv = len(subset), len(gens)
        a_ub = [tuple(-ONE if k == j else ZERO for k in range(nv))
                for j in range(ns)]
        a_eq = [tuple(g[r] for g in gens) for r in range(poly.dim)]
        lp = LpProblem((ZERO,) * nv, a_ub, (ZERO,) * ns, a_eq, resid)
        if not isinstance(reference_lp_solve(lp), LpInfeasible):
            return subset
    raise AssertionError("nonempty polyhedron with no certified active set")
