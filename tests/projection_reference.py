"""Reference Euclidean projection for differential tests: the affine
projection onto every subset of the inequality rows (with the equality
rows), each through an exact Gram pseudo-inverse, keeping the nearest
feasible candidate.  The projection lies on some face, where it equals
the affine projection onto the rows tight there, so the scan is exact;
it costs 2^p pseudo-inverses for p inequality rows.
"""

from itertools import combinations

from plqstab.linalg import RatMatrix, pseudo_inverse_psd
from plqstab.rational import rat, vdot, vsub


def project_by_subsets(poly, x):
    """(nearest point, squared distance) of x on the nonempty `poly`."""
    x = tuple(rat(v) for v in x)
    eq_rows, eq_rhs = poly.eq_system()
    _, ineq = poly._split()
    best, best_d = None, None
    for k in range(len(ineq) + 1):
        for subset in combinations(ineq, k):
            rows = list(eq_rows) + [poly.b[i] for i in subset]
            rhs = tuple(eq_rhs) + tuple(poly.alpha[i] for i in subset)
            if rows:
                amat = RatMatrix(rows)
                mu = pseudo_inverse_psd(amat @ amat.T).matvec(
                    vsub(amat.matvec(x), rhs))
                cand = vsub(x, amat.rmatvec(mu))
                if amat.matvec(cand) != rhs:
                    continue  # inconsistent affine system
            else:
                cand = x
            if not poly.contains(cand):
                continue
            d = vdot(vsub(x, cand), vsub(x, cand))
            if best_d is None or d < best_d:
                best, best_d = cand, d
    if best is None:
        raise AssertionError("nonempty polyhedron with no projection candidate")
    return best, best_d
