"""The float probes: the critical-ray probe and the damped semismooth
Newton probe of canonically perturbed systems.

`critical_ray_probe` walks a critical witness of `stability`'s verdict
and verifies each step exactly.  `semi_isolated_probe` solves a
deterministic family of canonically perturbed systems with
`solve_perturbed` and records how far each solution moved.  The Newton
iteration runs in float on the system's `FloatKernel`: the proximal map
is affine on each active set of its QP, so its value and generalized
Jacobian are read off a cached exact piece (Qi and Sun, Math. Prog. 58,
1993), and the polynomial data are evaluated from cached float
coefficients.  A piece enters the cache through one exact,
postcondition-checked prox.  The returned iterate gets one exact
residual evaluation, and only that value decides whether the solve
converged.  The kernel's compiled line search is written by
`trialsource`.

`report` imports this module for a `--probe` analysis alone, so an
exact analysis neither compiles it nor loads numpy, which only the
probes' code paths import.
"""

from __future__ import annotations

import math
from operator import mul

from .polymap import _float_values
from .rational import norm2, rat, sqrt_float, to_float_vec, vadd, vscale, vsub
from .record import FrozenRecord, set_field
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
    __slots__ = ("t", "p1", "p2", "x", "lam", "lhs", "rhs", "ratio", "newton")

    def __init__(self, t: float, p1: tuple, p2: tuple, x: tuple, lam: tuple,
                 lhs: float, rhs: float, ratio: float,
                 newton: str | None = None):
        set_field(self, "t", t)
        set_field(self, "p1", p1)
        set_field(self, "p2", p2)
        set_field(self, "x", x)
        set_field(self, "lam", lam)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "ratio", ratio)
        # NewtonResult.reason of a perturbed solve
        set_field(self, "newton", newton)


class ProbeTrace:
    """A table of probe records with CSV serialization."""

    CSV_HEADER = "t,p1,p2,x,lambda,lhs,rhs,ratio"

    def __init__(self, records):
        self.records = tuple(records)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def ratios(self):
        return [r.ratio for r in self.records]

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


def trace_is_divergent(trace: ProbeTrace, tail=5, threshold=1e3) -> bool:
    """Ratios grow strictly over the last `tail` records and exceed the
    threshold; records whose perturbation vanished exactly carry an
    infinite ratio and count as grown."""
    rs = trace.ratios()
    if len(rs) < tail:
        return False
    tail_rs = rs[-tail:]
    for a, b in zip(tail_rs, tail_rs[1:]):
        if math.isinf(a) and math.isinf(b):
            continue
        if not b > a:
            return False
    return tail_rs[-1] > threshold


def critical_ray_probe(system: VarSystem, xbar, lam_bar,
                       verdict: CriticalityVerdict, t_grid=None) -> ProbeTrace:
    """Walk (xbar + t xi, lam_bar + t eta) along a critical witness.

    Each step is verified exactly to solve the canonically perturbed
    system with perturbations p1 = Psi(x_t, lam_t) and
    p2 = z_t - Phi(x_t), z_t the linearization of Phi; the recorded
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
        # exact membership in the perturbed solution set
        if not system.penalty.subdiff_contains(vadd(system.phi.eval(xt), p2), lt):
            raise InternalConsistencyError(
                "ray point left the perturbed solution set; shrink the grid")
        move = norm2(vsub(xt, xbar))
        pert = norm2(p1) + norm2(p2)
        ratio = move / pert if pert > 0 else math.inf
        records.append(ProbeRecord(t=float(t), p1=to_float_vec(p1),
                                   p2=to_float_vec(p2), x=to_float_vec(xt),
                                   lam=to_float_vec(lt), lhs=move, rhs=pert,
                                   ratio=ratio))
    return ProbeTrace(records)


class NewtonResult(FrozenRecord):
    """Outcome of one perturbed solve.  `residual_norm` is the exact
    residual at the returned float iterate, rounded to float, and
    `converged` means it is <= tol.  `reason` is "converged",
    "no_descent" (the line search found no decrease), "max_iter",
    "exact_check" (the float residual reached tol and the exact one did
    not), or "overflow" (a float residual or Newton matrix left float
    range; the iterate returned is the last one whose residual did not).
    `evaluations` counts the float residual evaluations: the start and
    every line-search trial of `FloatKernel.line_search`, whether the
    compiled search or the generic `FloatKernel.trial` made it, and
    whether numpy finished it or a rounding bound rejected it first; the
    trials left after one at the iterate count too, unevaluated."""

    __slots__ = ("converged", "x", "lam", "residual_norm", "iterations",
                 "reason", "evaluations")

    def __init__(self, converged: bool, x: tuple, lam: tuple,
                 residual_norm: float, iterations: int, reason: str,
                 evaluations: int = 0):
        set_field(self, "converged", converged)
        set_field(self, "x", x)
        set_field(self, "lam", lam)
        set_field(self, "residual_norm", residual_norm)
        set_field(self, "iterations", iterations)
        set_field(self, "reason", reason)
        set_field(self, "evaluations", evaluations)


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


# The line search's rejection bound (`FloatKernel.rejects`).  _C exceeds
# 2 gamma_(n+m+2) = 2 (n+m+2) u / (1 - (n+m+2) u), u = 2^-53, whenever
# n + m <= _BOUNDED_DIM (two problem-file dimensions); _BIG and _TINY keep
# every square and sum of the bound, and of numpy's norm, in normal range.
_C = 1e-12
_BOUNDED_DIM = 2000
_BIG = math.ldexp(1.0, 400)
_TINY = math.ldexp(1.0, -400)

# The compiled line search (`FloatKernel.line_search`).  A kernel compiles
# after _WARMUP generic trials: a build of a corpus system takes about as
# long as 100 generic trials, and most probe analyses make fewer than 256
# trials in all.  A search function of more than _MAX_LINES lines (5,000
# take about 35 ms and 15 MB to compile) is not built, and its system
# keeps the generic path.  A line search makes at most _TRIALS trials.
_WARMUP = 256
_MAX_LINES = 5000
_TRIALS = 30


class FloatKernel:
    """The float residual, line search and Newton step of one `VarSystem`,
    built once per system (`VarSystem.float_kernel`).

    `parts` evaluates f, Phi and DPhi at a float point in one
    `polymap._float_values` pass over their concatenated term lists, reads
    the prox piece through `PlqPenalty.prox_float` (the float active-set
    scan) and forms the prox block r2 = z - prox(lam + z) of R,
    z = Phi(x) + p2, all in Python floats.  `residual` finishes R in
    numpy: DPhi(x)^T lam is `g.T @ lam` on the C-ordered m x n array g,
    and |R| is `math.sqrt(r.dot(r))`; their BLAS sums can round
    differently from a sequential Python sum, so they stay numpy.
    `rejects` proves, in Python floats, that some trials' |R| would be no
    smaller than the current one.

    `line_search` backtracks, damp = 1, 1/2, ..., for at most _TRIALS
    trials.  A trial is `parts` and then `rejects` (the generic `trial`),
    and numpy's |R| only for a trial the bound does not reject.  Once the
    kernel has served _WARMUP trials the generic way, it compiles the
    whole backtracking loop, with the same float operations in the same
    order, into one Python function (`trialsource.search_source`), with
    the prox scan unrolled over the active sets reached so far and the
    Jacobians cached so far; the function returns the first trial its
    bound does not reject, and a rejected trial builds no list.  A trial
    the function cannot finish (a power overflows, no unrolled set
    passes, or the passing set has no cached Jacobian) goes to the
    generic `trial`, which rebuilds the function when the reached sets or
    the Jacobians have grown, and the search resumes at the next damp on
    the current function.  So every bit is as without it.  Two rules end
    work early: a trial point equal to the iterate ends the search, and
    the compiled function rejects a trial by the bound's first block alone,
    before its prox scan, where that proves `rejects` would (see
    `trialsource`).  The function lives on the kernel.  It is not built
    when it would have more than _MAX_LINES lines, or where `sum` of
    floats is not the sequential sum (Python 3.12 compensates), whose
    scan the unrolled one would not match.

    `newton_matrix` forms A = Df(x) + sum_i lam_i Hess(Phi_i)(x) in Python
    floats, entry by entry as numpy's `a + lam_i * H` rounds it, and
    `newton_step` solves the Newton system with LAPACK's solve, called
    directly.
    """

    def __init__(self, system: VarSystem):
        import numpy as np

        try:
            from numpy.linalg._umath_linalg import solve1 as solve
        except ImportError:
            solve = np.linalg.solve
        self.np, self.solve = np, solve
        self.n, self.m = system.n, system.m
        self.penalty = system.penalty
        self.prox_float = system.penalty.prox_float
        self.terms = (system.f._component_terms + system.phi._component_terms
                      + system.phi._jacobian_terms)
        # Df(x), then the Hessian of each Phi_i, each n x n row by row
        self.a_terms = system.f._jacobian_terms + system.phi._hessian_terms
        self.bounded = self.n + self.m <= _BOUNDED_DIM
        # the compiled search, the sizes of the prox solver's reached sets
        # and of the cached Jacobians it was built from, and the number of
        # trials served the generic way; no build where the polynomials and
        # the bound's 3 n m lines alone pass _MAX_LINES
        self.compiled, self.built_from, self.generic = None, None, 0
        sequential = sum((1.0, 1e100, 1.0, -1e100)) == 0.0
        small = sum(map(len, self.terms)) + 3 * self.n * self.m <= _MAX_LINES
        self.warmup = _WARMUP if sequential and small else math.inf

    def parts(self, x, lam, p2):
        """(values, r2, J) at the float point (x, lam): `values` lists f(x),
        Phi(x) and the rows of DPhi(x), r2 is the prox block of R and J the
        prox Jacobian triple (J, I - J, -J) of m x m numpy arrays of the
        piece at lam + z."""
        n, m = self.n, self.m
        values = _float_values(self.terms, x)
        z = [a + b for a, b in zip(values[n:n + m], p2)]
        v = [a + b for a, b in zip(lam, z)]
        prox, pj = self.prox_float(v)
        return values, [a - b for a, b in zip(z, prox)], pj

    def trial(self, x, lam, step, damp, p1, p2, floor):
        """The generic line-search trial at (x, lam) + damp * step: (x',
        lam', values, r2, J, rejected), with (values, r2, J) what `parts`
        gives at (x', lam') and `rejected` what `rejects` then decides
        against `floor`.  Past the warm-up it (re)builds the compiled
        search."""
        xn = [a + damp * b for a, b in zip(x, step)]
        ln = [a + damp * b for a, b in zip(lam, step[self.n:])]
        values, r2, pj = self.parts(xn, ln, p2)
        rejected = self.rejects(values, r2, ln, p1, floor)
        self.generic += 1
        if self.generic >= self.warmup:
            self._build()
        return xn, ln, values, r2, pj, rejected

    def line_search(self, x, lam, step, p1, p2, rnorm):
        """The backtracking search from (x, lam) along `step`: (trials
        made, best), best = (x', lam', values, R, |R|, DPhi, J) at the first
        trial, damp = 2^-i for i < _TRIALS, whose numpy |R| is below
        `rnorm` or not finite, or None when no trial is.  A trial point
        equal to the iterate ends the search with (_TRIALS, None): numpy
        would reject it and every later trial, which count as made."""
        floor = self.floor(rnorm)
        i = 0
        while i < _TRIALS:
            trial = None
            if self.compiled is not None:
                i, trial = self.compiled(x, lam, step, i, p1, p2, floor)
                if i == _TRIALS:  # it rejected every trial left
                    break
            if trial is None:
                damp = math.ldexp(1.0, -i)
                # at the iterate numpy's |R| is the current one (== leaves
                # only a zero's sign free, which reaches only the signs of
                # zero results, and |R| squares every entry), and rounding
                # is monotone, so every smaller damp lands there too
                if all(a + damp * b == a for a, b in zip(x + lam, step)):
                    break
                *trial, rejected = self.trial(x, lam, step, damp, p1, p2,
                                              floor)
                if rejected:
                    i += 1
                    continue
            xn, ln, values, r2, pj = trial
            r, rn, g = self.residual(values, r2, ln, p1)
            if rn < rnorm or not math.isfinite(rn):
                return i + 1, (xn, ln, values, r, rn, g, pj)
            i += 1
        return _TRIALS, None

    def _build(self):
        """Compile the search function, unless the prox solver's reached
        sets and the cached Jacobians are those it was last built from."""
        solver = self.penalty._prox_solver()
        jacs = self.penalty._float_jacs
        sizes = len(solver._reached), len(jacs)
        if sizes == self.built_from:
            return
        self.built_from = sizes
        from .trialsource import compile_search, search_source

        lines, consts = search_source(self.n, self.m, self.terms, solver,
                                      jacs)
        if len(lines) > _MAX_LINES:
            self.warmup = math.inf  # it only grows: keep the last function
            return
        self.compiled = compile_search(lines, consts)

    def residual(self, values, r2, lam, p1):
        """(R, |R|, DPhi(x)) from `parts`, R and DPhi(x) numpy arrays.  The
        entries of R are f_i + (DPhi^T lam)_i - p1_i, then r2; |R| is inf or
        nan when a value overflows."""
        np, n, m = self.np, self.n, self.m
        g = np.array(values[n + m:], dtype=float).reshape(m, n)
        gl = (g.T @ np.array(lam)).tolist()
        r = np.array([a + b - c for a, b, c in zip(values, gl, p1)] + r2)
        return r, math.sqrt(r.dot(r)), g

    def floor(self, rnorm):
        """|R|^2 (1 + _C), the square that `rejects` must prove a trial
        beats; inf, so that no trial is rejected without numpy, when |R| is
        below _TINY or the system has more than _BOUNDED_DIM coordinates."""
        if self.bounded and rnorm >= _TINY:
            return rnorm * rnorm * (1 + _C)
        return math.inf

    def rejects(self, values, r2, lam, p1, floor) -> bool:
        """Whether the trial's |R|, as `residual` would compute it, is
        provably finite and no smaller than the |R| of `floor`.

        With e_i = f_i + sum_j DPhi_ji lam_j - p1_i and A_i = |f_i| +
        sum_j |DPhi_ji lam_j| + |p1_i| in Python floats, numpy's r1_i and
        e_i both lie within gamma_(m+2) A_i of the exact value, so
        |r1_i| >= |e_i| - _C A_i.  True only when every |r2_i| and A_i is
        below _BIG and L (1 - _C) >= floor, L = sum r2_i^2 +
        sum max(|e_i| - _C A_i, 0)^2: numpy's dot of nonnegative terms is
        then at least (1 - gamma_(n+m)) times their exact sum in any order,
        with or without fused multiply-add, so it is at least |R|^2, and
        its square root rounds to at least |R|.
        """
        total = 0.0
        for v in r2:
            if not abs(v) < _BIG:  # nan fails too
                return False
            total += v * v
        n = self.n
        g = values[n + self.m:]
        for i in range(n):
            e = values[i] - p1[i]
            bound = abs(values[i]) + abs(p1[i])
            for t in map(mul, g[i::n], lam):
                e += t
                bound += abs(t)
            if not bound < _BIG:
                return False
            d = abs(e) - _C * bound
            if d > 0:
                total += d * d
        return total * (1 - _C) >= floor

    def newton_matrix(self, x, lam, values, g, pj):
        """The generalized Jacobian [[A, g^T], [(I - J) g, -J]] of R at
        (x, lam) in one array, A = Df(x) + sum_i lam_i Hess(Phi_i)(x), from
        `values` and g (DPhi(x) as `parts` and `residual` give it) and the
        Jacobian triple pj.  A is added up entry by entry in Python floats
        from one `_float_values` pass, each entry a + lam_i * h as numpy's
        `a + lam_i * H` rounds it; (I - J) g stays numpy."""
        np, n, m = self.np, self.n, self.m
        nn = n * n
        blocks = _float_values(self.a_terms, x)
        a = blocks[:nn]
        for i, li in enumerate(lam):
            if li != 0:
                a = [u + li * h
                     for u, h in zip(a, blocks[nn * (i + 1):nn * (i + 2)])]
        dphi = values[n + m:]
        jmat = np.empty((n + m, n + m))
        jmat[:n] = [a[i * n:(i + 1) * n] + dphi[i::n] for i in range(n)]
        jmat[n:, :n] = pj[1] @ g
        jmat[n:, n:] = pj[2]
        return jmat

    def newton_step(self, jmat, r):
        """The Newton step s with jmat s = -r, as a list, bit for bit what
        `np.linalg.solve` gives, or for a singular jmat least squares
        (`np.linalg.lstsq`).  LAPACK's solve is called directly; its step
        is nan for a singular jmat, and a step that is not finite is
        recomputed through `np.linalg.solve`."""
        np = self.np
        try:
            step = self.solve(jmat, -r).tolist()
            if all(map(math.isfinite, step)):
                return step
            step = np.linalg.solve(jmat, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jmat, -r, rcond=None)
        return step.tolist()


def solve_perturbed(system: VarSystem, p1, p2, start, tol=1e-10, max_iter=200):
    """Damped semismooth Newton for the canonically perturbed system.

    Residual R(x, lam) = (Psi(x, lam) - p1,
                          Phi(x) + p2 - prox(lam + Phi(x) + p2));
    generalized Jacobian elements come from the active piece of the
    proximal map.  The iteration runs in float on the system's
    `FloatKernel`: the prox value and its Jacobian come from cached exact
    affine pieces, iterates, trial points, entrywise residual arithmetic
    and the Newton matrix's A block are Python floats, and
    DPhi(x)^T lam, the norm's inner product, (I - J) DPhi(x) and the
    Newton system (LAPACK's solve, least squares when it is singular) are
    numpy.  Each step's line search is one `FloatKernel.line_search`: its
    trials run in one compiled function once the kernel has warmed up, and
    numpy's |R| is computed only for a trial that the rounding bound does
    not reject.  The bound rejects a trial only when it proves that
    numpy's |R| would be finite and no smaller than the current one, so
    the iterates are those of the all-numpy residual to the last bit.  A
    residual or Newton matrix past float range stops the solve
    ("overflow"), with numpy's floating-point warnings off.  The
    returned iterate gets one exact residual evaluation, which decides
    `converged`.  Reports NewtonResult; never raises on stagnation.
    """
    import numpy as np

    kernel = system.float_kernel
    p1f = [float(v) for v in p1]
    p2f = [float(v) for v in p2]
    x = [float(v) for v in start[0]]
    lam = [float(v) for v in start[1]]
    with np.errstate(over="ignore", invalid="ignore"):
        values, r2, pj = kernel.parts(x, lam, p2f)
        r, rnorm, g = kernel.residual(values, r2, lam, p1f)
        evaluations = 1
        iterations, reason = max_iter, "max_iter"
        for it in range(max_iter):
            if rnorm <= tol:
                iterations = it
                break
            if not math.isfinite(rnorm):  # at the start; later steps check below
                iterations, reason = it, "overflow"
                break
            jmat = kernel.newton_matrix(x, lam, values, g, pj)
            if not np.isfinite(jmat).all():
                iterations, reason = it + 1, "overflow"
                break
            step = kernel.newton_step(jmat, r)
            trials, best = kernel.line_search(x, lam, step, p1f, p2f, rnorm)
            evaluations += trials
            if best is None:
                iterations, reason = it + 1, "no_descent"
                break
            if not math.isfinite(best[4]):
                iterations, reason = it + 1, "overflow"
                break
            x, lam, values, r, rnorm, g, pj = best
    exact_norm = _exact_residual_norm(system, p1, p2, x, lam)
    if exact_norm <= tol:
        reason = "converged"
    elif rnorm <= tol:
        reason = "exact_check"
    return NewtonResult(exact_norm <= tol, tuple(x), tuple(lam), exact_norm,
                        iterations, reason, evaluations)


def semi_isolated_probe(system: VarSystem, xbar, lam_bar, grid=8, scale=1e-3,
                        tol=1e-10, seed=0):
    """Solve a deterministic family of perturbed systems and record the
    ratio (|x - xbar| + dist(lam, multipliers)) / (|p1| + |p2|).

    Returns (ProbeTrace, estimated modulus).  Non-converged solves are
    recorded with NaN lhs and excluded from the modulus.
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
        t = math.ldexp(scale, 1 - k)  # scale / 2^(k-1), 0.0 past underflow
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
