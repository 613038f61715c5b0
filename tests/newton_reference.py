"""Reference Newton probe for differential tests: the float residual on
numpy arrays, the float active-set scan that restarts from the empty set
with a per-subset map cache, and the numpy line search, as
`plqstab.stability.solve_perturbed` computed them before its residual
moved to Python floats.  Polynomials are evaluated term by term, one
polynomial at a time.  `solve_perturbed` in the program must return the
same `NewtonResult`, bit for bit, and `StrictQpSolver.solve_float` the
same (subset, y).
"""

import math
import weakref

import numpy as np

from plqstab.qp import _subsets
from plqstab.rational import rat, to_float
from plqstab.stability import NewtonResult, _exact_residual_norm

_MAPS = weakref.WeakKeyDictionary()  # solver -> {subset: float maps}


def poly_float(poly, point):
    total = 0.0
    try:
        for term, powers in poly._float_coefficients():
            for j, k in powers:
                term *= float(point[j]) ** k
            total += term
    except OverflowError:
        return math.nan
    return total


def _map_float(pmap, point):
    return tuple(poly_float(c, point) for c in pmap.components)


def _matrix_float(polys, point):
    return np.array([[poly_float(p, point) for p in row] for row in polys],
                    dtype=float)


def solve_float(solver, c):
    """(subset, y) of the first active set, in the order of the exact
    solve, whose float maps pass for the float linear term c, or None."""
    cache = _MAPS.setdefault(solver, {})
    for subset in _subsets(tuple(solver._ineq)):
        if subset not in cache:
            cache[subset] = solver._float_maps(subset)
        maps = cache[subset]
        if maps is None:
            continue
        yrows, murows, inactive = maps
        if any(d - sum(a * b for a, b in zip(row, c)) < 0 for row, d in murows):
            continue
        y = [d - sum(a * b for a, b in zip(row, c)) for row, d in yrows]
        if all(sum(a * b for a, b in zip(row, y)) <= alpha for row, alpha in inactive):
            return subset, y
    return None


def _float_rows(mat):
    return tuple(tuple(to_float(v) for v in row) for row in mat.rows)


def prox_float(penalty, v):
    """(prox(v), J as a tuple of rows) in float."""
    hit = solve_float(penalty._prox_solver(), tuple(-a for a in v))
    if hit is None or hit[0] not in penalty._cache.get("prox_pieces", {}):
        if not all(map(math.isfinite, v)):
            return (math.nan,) * penalty.m, ((math.nan,) * penalty.m,) * penalty.m
        jac, offset = penalty.prox_linearization(tuple(rat(a) for a in v))
        if hit is None:
            jac = _float_rows(jac)
            return (tuple(sum(a * b for a, b in zip(row, v)) + to_float(o)
                          for row, o in zip(jac, offset)), jac)
    return (tuple(a - b for a, b in zip(v, hit[1])),
            _float_rows(penalty._piece(hit[0])[0]))


def float_residual(system, p1, p2, x, lam):
    xs = x.tolist()
    g = _matrix_float(system.phi._jacobian_polys(), xs)
    z = np.array(_map_float(system.phi, xs)) + p2
    arg = lam + z
    prox_pt, pj = prox_float(system.penalty, tuple(arg.tolist()))
    r1 = np.array(_map_float(system.f, xs)) + g.T @ lam - p1
    r2 = z - np.array(prox_pt)
    r = np.concatenate([r1, r2])
    return r, float(np.linalg.norm(r)), g, np.array(pj)


def _psi_jacobian_x_float(system, x, lam):
    xs = x.tolist()
    a = _matrix_float(system.f._jacobian_polys(), xs)
    for i, li in enumerate(lam.tolist()):
        if li != 0:
            a = a + li * _matrix_float(system.phi._hessian_polys(i), xs)
    return a


def solve_perturbed(system, p1, p2, start, tol=1e-10, max_iter=200):
    n, m = system.n, system.m
    p1f = np.array([float(v) for v in p1], dtype=float)
    p2f = np.array([float(v) for v in p2], dtype=float)
    x = np.array([float(v) for v in start[0]], dtype=float)
    lam = np.array([float(v) for v in start[1]], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        r, rnorm, g, pj = float_residual(system, p1f, p2f, x, lam)
        evaluations = 1
        iterations, reason = max_iter, "max_iter"
        for it in range(max_iter):
            if rnorm <= tol:
                iterations = it
                break
            if not math.isfinite(rnorm):
                iterations, reason = it, "overflow"
                break
            a = _psi_jacobian_x_float(system, x, lam)
            top = np.hstack([a, g.T])
            bottom = np.hstack([(np.eye(m) - pj) @ g, -pj])
            jmat = np.vstack([top, bottom])
            if not np.isfinite(jmat).all():
                iterations, reason = it + 1, "overflow"
                break
            try:
                step = np.linalg.solve(jmat, -r)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jmat, -r, rcond=None)
            damp = 1.0
            best = None
            for _ in range(30):
                xn = x + damp * step[:n]
                ln = lam + damp * step[n:]
                rn, rn_norm, gn, pjn = float_residual(system, p1f, p2f, xn, ln)
                evaluations += 1
                if rn_norm < rnorm or not math.isfinite(rn_norm):
                    best = (xn, ln, rn, rn_norm, gn, pjn)
                    break
                damp /= 2
            if best is None:
                iterations, reason = it + 1, "no_descent"
                break
            if not math.isfinite(best[3]):
                iterations, reason = it + 1, "overflow"
                break
            x, lam, r, rnorm, g, pj = best
    exact_norm = _exact_residual_norm(system, p1, p2, x, lam)
    if exact_norm <= tol:
        reason = "converged"
    elif rnorm <= tol:
        reason = "exact_check"
    return NewtonResult(exact_norm <= tol, tuple(x.tolist()),
                        tuple(lam.tolist()), exact_norm, iterations, reason,
                        evaluations)
