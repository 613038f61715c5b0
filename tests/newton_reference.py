"""Reference Newton probe for differential tests: the plain-Python
definition of `plqstab.probe.solve_perturbed`, with no compiled search
and no early exit.  Polynomials are evaluated one at a time, term by
term, each power multiplied out; the float active-set scan restarts
from the empty set with a per-subset map cache; every trial's residual
is evaluated in full and compared with the current one; and the Newton
system is solved by Gaussian elimination with partial pivoting on the
augmented matrix, or, where a pivot is exactly zero, by the program's
minimum-norm step (which `test_newton.py` checks against the exact
pseudo-inverse).  `solve_perturbed` in the program must return the same
`NewtonResult`, bit for bit, and `StrictQpSolver.solve_float` the same
(subset, y).
"""

import math
import weakref

from plqstab.qp import _subsets
from plqstab.rational import rat, to_float
from plqstab.probe import NewtonResult, _exact_residual_norm, _min_norm_step

_MAPS = weakref.WeakKeyDictionary()  # solver -> {subset: float maps}


def poly_float(poly, point):
    total = 0.0
    for term, powers in poly._float_coefficients():
        for j, k in powers:
            w = point[j]
            for _ in range(k - 1):
                w *= point[j]
            term *= w
        total += term
    return total


def _dot(row, v):
    """0.0 plus each product row_i v_i, added in order."""
    total = 0.0
    for a, b in zip(row, v):
        total += a * b
    return total


def _matrix_float(polys, point):
    return [[poly_float(p, point) for p in row] for row in polys]


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
        if any(d - _dot(row, c) < 0 for row, d in murows):
            continue
        y = [d - _dot(row, c) for row, d in yrows]
        if all(_dot(row, y) <= alpha for row, alpha in inactive):
            return subset, y
    return None


def _float_rows(mat):
    return tuple(tuple(to_float(v) for v in row) for row in mat.rows)


def prox_float(penalty, v):
    """(prox(v), J as a tuple of rows) in float."""
    hit = solve_float(penalty._prox_solver, tuple(-a for a in v))
    if hit is None or hit[0] not in penalty._pieces:
        if not all(map(math.isfinite, v)):
            return (math.nan,) * penalty.m, ((math.nan,) * penalty.m,) * penalty.m
        jac, offset = penalty.prox_linearization(tuple(rat(a) for a in v))
        if hit is None:
            jac = _float_rows(jac)
            return (tuple(_dot(row, v) + to_float(o)
                          for row, o in zip(jac, offset)), jac)
    return (tuple(a - b for a, b in zip(v, hit[1])),
            _float_rows(penalty._piece(hit[0])[0]))


def float_residual(system, p1, p2, x, lam):
    """(R, |R|^2, DPhi(x) as m rows, J) at (x, lam), in full."""
    n, m = system.n, system.m
    f = [poly_float(p, x) for p in system.f.components]
    g = _matrix_float(system.phi._jacobian_polys, x)
    r = []
    for i in range(n):
        e = f[i]
        for j in range(m):
            e += g[j][i] * lam[j]
        r.append(e - p1[i])
    z = [poly_float(p, x) + b for p, b in zip(system.phi.components, p2)]
    prox, jac = prox_float(system.penalty, [a + b for a, b in zip(lam, z)])
    r += [a - b for a, b in zip(z, prox)]
    rsq = 0.0
    for e in r:
        rsq += e * e
    return r, rsq, g, jac


def newton_matrix(system, x, lam, g, jac):
    """[[A, DPhi^T], [(I - J) DPhi, -J]], A = Df + sum_i lam_i Hess(Phi_i)."""
    n, m = system.n, system.m
    a = _matrix_float(system.f._jacobian_polys, x)
    for i, li in enumerate(lam):
        if li != 0:
            h = _matrix_float(system.phi._hessian_polys(i), x)
            a = [[u + li * v for u, v in zip(ra, rh)] for ra, rh in zip(a, h)]
    rows = [a[i] + [g[j][i] for j in range(m)] for i in range(n)]
    for k in range(m):
        row = []
        for i in range(n):
            s = 0.0
            for j in range(m):
                s += ((1.0 if j == k else 0.0) - jac[k][j]) * g[j][i]
            row.append(s)
        rows.append(row + [-v for v in jac[k]])
    return rows


def lu_solve(a, b):
    """x with a x = b by Gaussian elimination with partial pivoting on the
    augmented matrix, or None at an exactly zero pivot."""
    size = len(b)
    aug = [list(row) + [v] for row, v in zip(a, b)]
    for k in range(size):
        p = k
        for i in range(k + 1, size):
            if abs(aug[i][k]) > abs(aug[p][k]):
                p = i
        if aug[p][k] == 0:
            return None
        aug[k], aug[p] = aug[p], aug[k]
        for i in range(k + 1, size):
            l = aug[i][k] / aug[k][k]
            for j in range(k + 1, size + 1):
                aug[i][j] -= l * aug[k][j]
    x = [0.0] * size
    for i in reversed(range(size)):
        s = aug[i][size]
        for j in range(i + 1, size):
            s -= aug[i][j] * x[j]
        x[i] = s / aug[i][i]
    return x


def solve_perturbed(system, p1, p2, start, tol=1e-10, max_iter=200):
    n = system.n
    p1f = [float(v) for v in p1]
    p2f = [float(v) for v in p2]
    x = [float(v) for v in start[0]]
    lam = [float(v) for v in start[1]]
    r, rsq, g, jac = float_residual(system, p1f, p2f, x, lam)
    evaluations = 1
    iterations, reason = max_iter, "max_iter"
    for it in range(max_iter):
        if math.sqrt(rsq) <= tol:
            iterations = it
            break
        if not rsq < math.inf:
            iterations, reason = it, "overflow"
            break
        jmat = newton_matrix(system, x, lam, g, jac)
        if not all(math.isfinite(v) for row in jmat for v in row):
            iterations, reason = it + 1, "overflow"
            break
        rhs = [-v for v in r]
        step = lu_solve(jmat, rhs)
        if step is None:
            step = _min_norm_step(jmat, rhs)
        damp = 1.0
        best = None
        for _ in range(30):
            xn = [a + damp * b for a, b in zip(x, step)]
            ln = [a + damp * b for a, b in zip(lam, step[n:])]
            trial = float_residual(system, p1f, p2f, xn, ln)
            evaluations += 1
            if trial[1] < rsq:
                best = (xn, ln, *trial)
                break
            damp /= 2
        if best is None:
            iterations, reason = it + 1, "no_descent"
            break
        x, lam, r, rsq, g, jac = best
    exact_norm = _exact_residual_norm(system, p1, p2, x, lam)
    if exact_norm <= tol:
        reason = "converged"
    elif math.sqrt(rsq) <= tol:
        reason = "exact_check"
    return NewtonResult(exact_norm <= tol, tuple(x), tuple(lam), exact_norm,
                        iterations, reason, evaluations)
