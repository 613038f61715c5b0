"""The float probes: the critical-ray probe and the damped semismooth
Newton probe of canonically perturbed systems.

`critical_ray_probe` walks a critical witness of `stability`'s verdict
and verifies each step exactly.  `semi_isolated_probe` solves a
deterministic family of canonically perturbed systems with
`solve_perturbed` and records how far each solution moved.  The Newton
iteration runs in Python floats on the system's `FloatKernel`, every sum
in one stated order, so its bits depend only on IEEE-754 arithmetic,
whatever the CPython version: the proximal map is affine on each active set of
its QP, so its value and generalized Jacobian are read off a cached
exact piece (Qi and Sun, Math. Prog. 58, 1993), the polynomial data are
evaluated from cached float coefficients, and the Newton system is
solved by LU with partial pivoting.  A piece enters the cache through
one exact, postcondition-checked prox.  The returned iterate gets one
exact residual evaluation, and only that value decides whether the
solve converged.  A solve that stops making progress ends early
(`stalled`): Newton-type iterates are drawn to critical multipliers and
converge slowly near them (Izmailov and Solodov, TOP 23, 2015).

`report` imports this module for a `--probe` analysis alone, so an
exact analysis does not compile it.
"""

from __future__ import annotations

import math
from itertools import chain

from .errors import InternalConsistencyError
from .polymap import _float_values
from .rational import norm2, rat, sqrt_float, to_float_vec, vadd, vscale, vsub
from .record import FrozenRecord
from .stability import CriticalityVerdict
from .varsys import VarSystem

__all__ = [
    "FloatKernel",
    "ProbeRecord",
    "ProbeTrace",
    "NewtonResult",
    "critical_ray_probe",
    "solve_perturbed",
    "semi_isolated_probe",
    "trace_is_divergent",
]


class ProbeRecord(FrozenRecord):
    # newton is the NewtonResult.reason of a perturbed solve
    __slots__ = ("t", "p1", "p2", "x", "lam", "lhs", "rhs", "ratio", "newton")
    _defaults = {"newton": None}


class ProbeTrace:
    """A table of probe records with CSV serialization."""

    CSV_HEADER = "t,p1,p2,x,lambda,lhs,rhs,ratio"

    def __init__(self, records):
        self.records = tuple(records)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_csv(self) -> str:
        def cell(v):
            if isinstance(v, tuple):
                return ";".join(repr(float(x)) for x in v)
            return repr(float(v))

        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(",".join([cell(r.t), cell(r.p1), cell(r.p2), cell(r.x),
                                   cell(r.lam), cell(r.lhs), cell(r.rhs),
                                   cell(r.ratio)]))
        return "\n".join(lines) + "\n"


def trace_is_divergent(trace: ProbeTrace) -> bool:
    """The ratio grows like 1/t over the last _TAIL records: each record's
    ratio * t is at least 3/4 of the previous record's.  A ratio c/t keeps
    ratio * t near c, whatever c, while a bounded ratio halves ratio * t at
    each halving of t; records whose perturbation vanished exactly carry
    an infinite ratio and count as grown."""
    if len(trace) < _TAIL:
        return False
    growth = [r.ratio * r.t for r in trace.records[-_TAIL:]]
    return all(math.isinf(b) or b >= 0.75 * a
               for a, b in zip(growth, growth[1:]))


def critical_ray_probe(system: VarSystem, xbar, lam_bar,
                       verdict: CriticalityVerdict, t_grid=None) -> ProbeTrace:
    """Walk (xbar + t xi, lam_bar + t eta) along a critical witness.

    Each grid point is checked exactly to solve the canonically perturbed
    system with perturbations p1 = Psi(x_t, lam_t) and
    p2 = z_t - Phi(x_t), z_t the linearization of Phi.  The witness is
    tangent to the subgradient graph, so every small t passes, a coarse
    one may not: only passing points are recorded, and none raises.  The
    ratio |x_t - xbar| / (|p1| + |p2|) blows up when the multiplier is
    critical.  A perturbation that vanishes exactly yields an infinite
    ratio (the ray consists of unperturbed solutions)."""
    if not verdict.critical:
        raise ValueError("ray probe requires a critical verdict with a witness")
    if t_grid is None:
        t_grid = [rat(1, 2 ** k) for k in range(1, 11)]
    ctx = system.point(xbar, lam_bar)
    xbar, lam_bar, gmat, zbar = ctx.x, ctx.lam, ctx.gmat, ctx.zbar
    xi = verdict.xi
    eta = verdict.eta
    records = []
    for t in t_grid:
        t = rat(t)
        xt = vadd(xbar, vscale(t, xi))
        lt = vadd(lam_bar, vscale(t, eta))
        zt = vadd(zbar, vscale(t, gmat.matvec(xi)))
        p1 = system.psi(xt, lt)
        p2 = vsub(zt, system.phi.eval(xt))
        # exact membership in the perturbed solution set: Phi(x_t) + p2 = z_t
        if not system.penalty.subdiff_contains(zt, lt):
            continue
        move = norm2(vsub(xt, xbar))
        pert = norm2(p1) + norm2(p2)
        ratio = move / pert if pert > 0 else math.inf
        records.append(ProbeRecord(t=float(t), p1=to_float_vec(p1),
                                   p2=to_float_vec(p2), x=to_float_vec(xt),
                                   lam=to_float_vec(lt), lhs=move, rhs=pert,
                                   ratio=ratio))
    if not records:
        raise InternalConsistencyError(
            "no ray point lies in the perturbed solution set; shrink the grid")
    return ProbeTrace(records)


class NewtonResult(FrozenRecord):
    """Outcome of one perturbed solve.  `residual_norm` is the exact
    residual at the returned float iterate, rounded to float, and
    `converged` means it is <= tol.  `reason` is "converged",
    "no_descent" (the line search found no decrease), "stalled" (the
    float |R| is not below half its value _STALL_WINDOW iterations
    earlier), "max_iter", "exact_check" (the float residual reached tol
    and the exact one did not), or "overflow" (the float residual at the
    start, or a Newton matrix, left float range; the iterate returned is
    the last one reached).  `evaluations` counts the float residual
    evaluations: the start and every line-search trial of
    `FloatKernel.line_search`, whether or not its running sum rejected
    it early; the trials left after one at the iterate count too,
    unevaluated."""

    __slots__ = ("converged", "x", "lam", "residual_norm", "iterations",
                 "reason", "evaluations")
    _defaults = {"evaluations": 0}


def _exact_residual_norm(system: VarSystem, p1, p2, x, lam):
    """|R(x, lam)| from the exact residual at the exact values of the
    float data (exact prox included), rounded to float."""
    xr = tuple(rat(float(v)) for v in x)
    lr = tuple(rat(float(v)) for v in lam)
    zr = vadd(system.phi.eval(xr), tuple(rat(float(v)) for v in p2))
    prox_pt = system.penalty.prox(vadd(lr, zr))
    r1 = vsub(system.psi(xr, lr), tuple(rat(float(v)) for v in p1))
    r2 = vsub(zr, prox_pt)
    return norm2(r1 + r2)


# A line search makes at most _TRIALS trials.  A solve whose float |R| is
# not below half its value _STALL_WINDOW iterations earlier ends there.
_TRIALS = 30
_STALL_WINDOW = 10
_SCALE = 1e-3
_TAIL = 5

# The machine epsilon of the rank rule of `_min_norm_step`.
_EPS = math.ldexp(1.0, -52)


class FloatKernel:
    """The float residual, line search and Newton step of one `VarSystem`,
    built once per system (`VarSystem.float_kernel`), in Python floats
    and in one stated order.

    `residual` evaluates f, Phi and DPhi at a float point in one
    `polymap._float_values` pass over their concatenated term lists, then
    R = (r1, r2): r1_i = f_i + DPhi_0i lam_0 + DPhi_1i lam_1 + ... - p1_i
    left to right; the prox argument lam + z, z = Phi(x) + p2, whose piece
    `PlqPenalty.prox_float` reads off the float active-set scan; and
    r2 = z - prox(lam + z).  |R|^2 is 0.0 plus the squares of r1 and then
    of r2, added in order.  A float sum of nonnegative terms never
    decreases as terms are added, so once the running sum is not below
    the current |R|^2 (`not s < cur`, which inf and nan also meet), the
    trial's |R|^2 would not be below it either: `residual` gives up there,
    after r1 (before the prox scan) or at the end.

    `line_search` backtracks, damp = 1, 1/2, ... (halved by multiplying
    by 0.5, exact), for at most _TRIALS trials, and returns the first
    trial whose |R|^2 is below the current one.  Each trial point is built
    once; one equal to the iterate, compared as lists, ends the search:
    its |R|^2 is the current one, and every smaller damp lands there too.

    `step` gives the Newton step: `newton_matrix` forms the generalized
    Jacobian of R, and the Newton system is solved by LU with partial
    pivoting (`_lu_solve`), or, where a pivot is exactly zero, by the
    minimum-norm least-squares step (`_min_norm_step`).
    """

    def __init__(self, system: VarSystem):
        self.n, self.m = system.n, system.m
        self.prox_float = system.penalty.prox_float
        self.terms = (system.f._component_terms + system.phi._component_terms
                      + system.phi._jacobian_terms)
        # Df(x), then the Hessian of each Phi_i, each n x n row by row
        self.a_terms = system.f._jacobian_terms + system.phi._hessian_terms

    def residual(self, x, lam, p1, p2, cur=math.inf):
        """(values, R, |R|^2, J) at the float point (x, lam), or None once
        the running sum of |R|^2 is not below `cur`: `values` lists f(x),
        Phi(x) and the rows of DPhi(x), R is r1 then r2 as a list, and J
        is the prox piece's Jacobian blocks (`PlqPenalty.prox_float`)."""
        n, m = self.n, self.m
        values = _float_values(self.terms, x)
        dphi = values[n + m:]
        r, s = [], 0.0
        for i in range(n):
            e = values[i]
            for g, v in zip(dphi[i::n], lam):
                e += g * v
            e -= p1[i]
            r.append(e)
            s += e * e
        if not s < cur:
            return None
        z = [a + b for a, b in zip(values[n:n + m], p2)]
        prox, pj = self.prox_float([a + b for a, b in zip(lam, z)])
        for a, b in zip(z, prox):
            e = a - b
            r.append(e)
            s += e * e
        if not s < cur:
            return None
        return values, r, s, pj

    def line_search(self, x, lam, step, p1, p2, cur):
        """The backtracking search from (x, lam) along `step`: (trials
        made, best), best = (x', lam', values, R, |R|^2, J) at the first
        trial, damp = 2^-i for i < _TRIALS, whose |R|^2 is below `cur`, or
        None when no trial is.  x and lam are lists.  Each trial point is
        built once, a + damp * b per entry, and a trial point equal to the
        iterate (`xn == x and ln == lam`) ends the search with
        (_TRIALS, None); the trials it leaves count as made."""
        lam_step = step[self.n:]
        damp = 1.0
        for i in range(_TRIALS):
            xn = [a + damp * b for a, b in zip(x, step)]
            ln = [a + damp * b for a, b in zip(lam, lam_step)]
            # at the iterate R is the current one up to the signs of its
            # zeros, and rounding is monotone, so every smaller damp lands
            # there too
            if xn == x and ln == lam:
                break
            out = self.residual(xn, ln, p1, p2, cur)
            if out is not None:
                return i + 1, (xn, ln, *out)
            damp *= 0.5
        return _TRIALS, None

    def newton_matrix(self, x, lam, values, pj):
        """The generalized Jacobian [[A, DPhi^T], [(I - J) DPhi, -J]] of R
        at (x, lam) as a list of rows, from `values` and the Jacobian blocks
        pj = (I - J, -J) that `residual` gave there.  A = Df(x) +
        sum_i lam_i Hess(Phi_i)(x), from one `_float_values` pass, adds the
        Hessians entry by entry, a + lam_i * h, skipping each lam_i that
        is 0; each entry of (I - J) DPhi is 0.0 plus the products of its
        row and column, added in order."""
        n, m = self.n, self.m
        nn = n * n
        blocks = _float_values(self.a_terms, x)
        a = blocks[:nn]
        for i, li in enumerate(lam):
            if li != 0:
                a = [u + li * h
                     for u, h in zip(a, blocks[nn * (i + 1):nn * (i + 2)])]
        dphi = values[n + m:]
        cols = [dphi[i::n] for i in range(n)]
        rows = [a[i * n:(i + 1) * n] + cols[i] for i in range(n)]
        for ij, nj in zip(*pj):
            row = []
            for col in cols:
                s = 0.0
                for u, v in zip(ij, col):
                    s += u * v
                row.append(s)
            rows.append(row + list(nj))
        return rows

    def step(self, x, lam, values, pj, r):
        """The Newton step s with jmat s = -r at (x, lam), from `values`, R
        = r and the Jacobian blocks pj that `residual` gave there, as a
        list, or None when the Newton matrix jmat is not finite."""
        jmat = self.newton_matrix(x, lam, values, pj)
        if not all(map(math.isfinite, chain.from_iterable(jmat))):
            return None
        rhs = [-v for v in r]
        step = _lu_solve(jmat, rhs)
        return _min_norm_step(jmat, rhs) if step is None else step


def _lu_solve(a, b):
    """x with a x = b, by Gaussian elimination with partial pivoting (LU),
    or None when a pivot is exactly zero.  At column k the pivot row is
    the first row i >= k of largest |a_ik|, found by a scan that moves
    only to a strictly larger |a_ik|, as `max` does (a nan below row k
    never wins, and one in row k is kept); every row i below it takes
    l = a_ik / a_kk, then a_ij - l a_kj for j > k and b_i - l b_k.  Back
    substitution sets x_i = (b_i - a_i,i+1 x_i+1 - a_i,i+2 x_i+2 - ...) /
    a_ii, subtracting left to right."""
    a = [list(row) for row in a]
    b = list(b)
    size = len(b)
    for k in range(size):
        p, big = k, abs(a[k][k])
        for i in range(k + 1, size):
            v = abs(a[i][k])
            if v > big:
                p, big = i, v
        if a[p][k] == 0:
            return None
        a[k], a[p], b[k], b[p] = a[p], a[k], b[p], b[k]
        pivot = a[k]
        for i in range(k + 1, size):
            row = a[i]
            l = row[k] / pivot[k]
            for j in range(k + 1, size):
                row[j] -= l * pivot[j]
            b[i] -= l * b[k]
    x = [0.0] * size
    for i in reversed(range(size)):
        s = b[i]
        for j in range(i + 1, size):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x


def _sum_squares(v):
    s = 0.0
    for e in v:
        s += e * e
    return s


def _reflector(v):
    """(alpha, w, beta) of the Householder reflector H = I - beta w w^T
    with H v = (alpha, 0, ..., 0), or alpha = 0 for a zero v.  v is
    scaled by s = max |v_i| first, so that no square over- or underflows:
    alpha = -sign(v_0) s |v/s|, w = v/s - (alpha/s) e_0 and beta =
    2 / (w . w), each sum 0.0 plus its terms in order."""
    scale = max(map(abs, v))
    if scale == 0:
        return 0.0, None, 0.0
    v = [e / scale for e in v]
    alpha = -math.copysign(math.sqrt(_sum_squares(v)), v[0])
    w = [v[0] - alpha] + v[1:]
    return scale * alpha, w, 2.0 / _sum_squares(w)


def _reflect(y, k, w, beta):
    """y with its entries k, k + 1, ... replaced by H of them, H = I -
    beta w w^T: t = beta (w . y[k:]), then y_k+i - t w_i."""
    s = 0.0
    for u, v in zip(w, y[k:]):
        s += u * v
    t = beta * s
    for i, u in enumerate(w):
        y[k + i] -= t * u


def _min_norm_step(a, b):
    """The minimum-norm x minimizing |a x - b| for a square a, from a
    complete orthogonal decomposition.

    Householder QR with column pivoting gives a P = Q R: at step k the
    pivot is the first remaining column of largest 0.0 + sum of squares
    of its entries k, k + 1, ...  The rank r is the number of leading
    steps with |R_kk| > N 2^-52 |R_00| (N the size), where the
    factorization stops; |R_kk| does not increase with k.  A Householder
    QR (no pivoting) of the transpose of R's first r rows gives
    [R11 R12]^T = Z [T; 0].  Then x = P Z u, with u_i = (c_i - T_0i u_0 -
    ... - T_i-1,i u_i-1) / T_ii for c = (Q^T b)[:r], left to right, and
    u_i = 0 past r.  Zero when a is zero."""
    size = len(b)
    cols = [[row[j] for row in a] for j in range(size)]
    perm = list(range(size))
    qtb = list(b)
    rank = 0
    for k in range(size):
        norms = [_sum_squares(col[k:]) for col in cols[k:]]
        p = k + max(range(size - k), key=norms.__getitem__)
        cols[k], cols[p], perm[k], perm[p] = cols[p], cols[k], perm[p], perm[k]
        alpha, w, beta = _reflector(cols[k][k:])
        if k == 0:
            cutoff = size * _EPS * abs(alpha)
        if not abs(alpha) > cutoff:
            break
        cols[k][k:] = [alpha] + [0.0] * (size - k - 1)
        for col in cols[k + 1:]:
            _reflect(col, k, w, beta)
        _reflect(qtb, k, w, beta)
        rank = k + 1
    # the columns of W = R's first r rows transposed, each of length N
    wcols = [[cols[j][i] for j in range(size)] for i in range(rank)]
    reflectors = []
    for i in range(rank):
        alpha, w, beta = _reflector(wcols[i][i:])
        if alpha == 0:  # a row that rounding made dependent
            rank = i
            break
        wcols[i][i:] = [alpha] + [0.0] * (size - i - 1)
        for col in wcols[i + 1:]:
            _reflect(col, i, w, beta)
        reflectors.append((w, beta))
    # T_ji = wcols[i][j] for j <= i; solve T^T u = c
    u = [0.0] * size
    for i in range(rank):
        s = qtb[i]
        for j in range(i):
            s -= wcols[i][j] * u[j]
        u[i] = s / wcols[i][i]
    for i in reversed(range(rank)):  # Z u = H_0 H_1 ... H_r-1 u
        _reflect(u, i, *reflectors[i])
    x = [0.0] * size
    for j, v in zip(perm, u):
        x[j] = v
    return x


def solve_perturbed(system: VarSystem, p1, p2, start, tol=1e-10, max_iter=200):
    """Damped semismooth Newton for the canonically perturbed system.

    Residual R(x, lam) = (Psi(x, lam) - p1,
                          Phi(x) + p2 - prox(lam + Phi(x) + p2));
    generalized Jacobian elements come from the active piece of the
    proximal map.  The iteration runs in Python floats on the system's
    `FloatKernel`, every sum and product in its stated order: the prox
    value and its Jacobian come from cached exact affine pieces, and the
    Newton system is solved by LU with partial pivoting, or by minimum-norm
    least squares where a pivot is exactly zero (`FloatKernel.step`).
    Each step's line search is one `FloatKernel.line_search`, which
    accepts the first trial whose |R|^2 is below the current one; a trial
    whose |R|^2 overflows is rejected.  A start residual or a Newton
    matrix past float range stops the solve ("overflow").  At iteration
    it >= _STALL_WINDOW, a float |R| not below half its value at
    iteration it - _STALL_WINDOW stops it too ("stalled"); `max_iter`
    stays the outer cap.  The returned iterate gets one exact residual
    evaluation, which decides `converged`.  Reports NewtonResult; never
    raises on stagnation.
    """
    kernel = system.float_kernel
    p1f = [float(v) for v in p1]
    p2f = [float(v) for v in p2]
    x = [float(v) for v in start[0]]
    lam = [float(v) for v in start[1]]
    state = kernel.residual(x, lam, p1f, p2f)
    rnorm = math.inf if state is None else math.sqrt(state[2])
    evaluations = 1
    iterations, reason = max_iter, "max_iter"
    history = []  # the float |R| at the start of each iteration
    for it in range(max_iter):
        if rnorm <= tol:
            iterations = it
            break
        if state is None:  # |R|^2 at the start is not finite
            iterations, reason = it, "overflow"
            break
        if (it >= _STALL_WINDOW
                and not rnorm < 0.5 * history[it - _STALL_WINDOW]):
            iterations, reason = it, "stalled"
            break
        history.append(rnorm)
        values, r, rsq, pj = state
        step = kernel.step(x, lam, values, pj, r)
        if step is None:  # the Newton matrix is not finite
            iterations, reason = it + 1, "overflow"
            break
        trials, best = kernel.line_search(x, lam, step, p1f, p2f, rsq)
        evaluations += trials
        if best is None:
            iterations, reason = it + 1, "no_descent"
            break
        x, lam, *state = best
        rnorm = math.sqrt(state[2])
    exact_norm = _exact_residual_norm(system, p1, p2, x, lam)
    if exact_norm <= tol:
        reason = "converged"
    elif rnorm <= tol:
        reason = "exact_check"
    return NewtonResult(exact_norm <= tol, tuple(x), tuple(lam), exact_norm,
                        iterations, reason, evaluations)


def semi_isolated_probe(system: VarSystem, xbar, lam_bar, grid=8, tol=1e-10,
                        seed=0):
    """Solve `grid` perturbed systems, the k-th of size _SCALE / 2^(k-1),
    and record the ratio (|x - xbar| + dist(lam, multipliers)) / (|p1| + |p2|).

    Returns (ProbeTrace, estimated modulus).  Non-converged solves,
    stalled ones included, are recorded with NaN lhs and excluded from
    the modulus.  Near a critical multiplier the solves converge slowly
    and stall, so a low modulus beside stalled records does not show
    stability.
    """
    import random as _random

    ctx = system.point(xbar, lam_bar).require(
        "probe is anchored at an exact solution")
    xbar, lam_bar = ctx.x, ctx.lam
    n, m = system.n, system.m
    mset = system.multiplier_set(xbar)
    rng = _random.Random(seed)
    dirs = []
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        dirs.append((tuple(e), (0.0,) * m))
        dirs.append((tuple(-v for v in e), (0.0,) * m))
    for i in range(m):
        e = [0.0] * m
        e[i] = 1.0
        dirs.append(((0.0,) * n, tuple(e)))
        dirs.append(((0.0,) * n, tuple(-v for v in e)))
    for _ in range(4):
        d1 = [rng.uniform(-1, 1) for _ in range(n)]
        d2 = [rng.uniform(-1, 1) for _ in range(m)]
        nd = math.hypot(*(d1 + d2)) or 1.0
        dirs.append((tuple(v / nd for v in d1), tuple(v / nd for v in d2)))

    records = []
    modulus = 0.0
    for k in range(1, grid + 1):
        t = math.ldexp(_SCALE, 1 - k)  # 0.0 past underflow
        d1, d2 = dirs[(k - 1) % len(dirs)]
        p1 = tuple(t * v for v in d1)
        p2 = tuple(t * v for v in d2)
        res = solve_perturbed(system, p1, p2, (xbar, lam_bar), tol=tol)
        pert = math.hypot(*p1) + math.hypot(*p2)
        if not res.converged:
            records.append(ProbeRecord(t=t, p1=p1, p2=p2, x=res.x, lam=res.lam,
                                       lhs=math.nan, rhs=pert, ratio=math.nan,
                                       newton=res.reason))
            continue
        lam_exact = tuple(rat(float(v)) for v in res.lam)
        _, d2dist = mset.poly.project_point(lam_exact)
        lhs = norm2(vsub(tuple(rat(float(v)) for v in res.x), xbar)) \
            + sqrt_float(d2dist)
        ratio = lhs / pert if pert > 0 else 0.0
        modulus = max(modulus, ratio)
        records.append(ProbeRecord(t=t, p1=p1, p2=p2, x=res.x, lam=res.lam,
                                   lhs=lhs, rhs=pert, ratio=ratio,
                                   newton=res.reason))
    return ProbeTrace(records), modulus
