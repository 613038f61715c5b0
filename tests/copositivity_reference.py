"""Reference copositivity decision for differential tests: the subset
loop that `enlp.copositive_on_cone` replaced by a Schur complement over
the lineality space.

The loop runs over every subset of the cone's generator vectors (the
extreme rays, then each lineality vector and its negative): the minimum
of the form over the simplex of generator coefficients is attained at a
stationary family of some simplex face; each family is solved by
rational elimination, its (constant) value is thresholded, and
realizability plus, for a zero value under the strict test, a nonzero
represented direction are decided by LPs.
"""

from plqstab.linalg import RatMatrix, solve_general
from plqstab.lp import LpOptimal, lp_feasible_point, lp_max_each
from plqstab.polyhedra import _all_generator_vectors
from plqstab.qp import _subsets
from plqstab.rational import ONE, ZERO


def copositive_on_cone(qform, cone, strict):
    """(verdict, witness direction or None), as the loop decided it."""
    gens = _all_generator_vectors(cone.generators())
    if not gens:
        return True, None
    nvec = len(gens)
    gcols = RatMatrix.from_cols(gens)  # n x N
    mhat = gcols.T @ qform @ gcols

    for subset in _subsets(tuple(range(nvec))):
        if not subset:
            continue
        k = len(subset)
        # stationarity of c^T Mhat c on the face affine hull:
        # 2 (Mhat c)_i = nu on the subset, sum c = 1, c zero elsewhere
        a = []
        b = []
        for i in subset:
            row = [2 * mhat.rows[i][j] for j in subset] + [-ONE]
            a.append(tuple(row))
            b.append(ZERO)
        a.append(tuple([ONE] * k + [ZERO]))
        b.append(ONE)
        fam = solve_general(a, b)
        if fam is None:
            continue
        c0 = fam[0][:k]
        val = _form_value(mhat, subset, c0)
        if strict and val > 0:
            continue
        if not strict and val >= 0:
            continue
        feasible = _family_point(a, b, k)
        if feasible is None:
            continue
        if val < 0:
            return False, _combine(gens, subset, feasible[:k])
        # strict case, val == 0: a represented nonzero direction?
        witness = _nonzero_direction(a, b, k, gens, subset)
        if witness is not None:
            return False, witness
    return True, None


def _form_value(mhat, subset, coeffs):
    total = ZERO
    for ii, i in enumerate(subset):
        for jj, j in enumerate(subset):
            total += coeffs[ii] * mhat.rows[i][j] * coeffs[jj]
    return total


def _simplex_rows(k):
    """c >= 0 over the k family coefficients (nu free)."""
    a_ub = []
    for i in range(k):
        row = [ZERO] * (k + 1)
        row[i] = -ONE
        a_ub.append(tuple(row))
    return a_ub, [ZERO] * k


def _family_point(a_eq, b_eq, k):
    """A stationary-family point on the simplex face (c >= 0), or None."""
    a_ub, b_ub = _simplex_rows(k)
    return lp_feasible_point(tuple(a_ub), tuple(b_ub), tuple(a_eq),
                             tuple(b_eq), n=k + 1)


def _combine(gens, subset, coeffs):
    n = len(gens[0])
    out = [ZERO] * n
    for c, i in zip(coeffs, subset):
        for j in range(n):
            out[j] += c * gens[i][j]
    return tuple(out)


def _nonzero_direction(a_eq, b_eq, k, gens, subset):
    """A family point whose generator combination is nonzero, or None."""
    n = len(gens[0])
    a_ub, b_ub = _simplex_rows(k)
    objectives = (tuple(gens[i][j] * sign for i in subset) + (ZERO,)
                  for j in range(n) for sign in (1, -1))
    for o in lp_max_each(objectives, a_ub, b_ub, a_eq, b_eq):
        if isinstance(o, LpOptimal) and o.value > 0:
            return _combine(gens, subset, o.point[:k])
    return None
