"""The float Newton probe against its numpy reference, bit for bit, and
the soundness of the line search's rejection bound."""

import json
import math
import os
import random
import subprocess
import sys

import newton_reference
import plqstab
import plqstab.stability as stability
from plqstab import (PlqPenalty, PolyMap, Polyhedron, Polynomial, VarSystem,
                     analyze_problem, corpus_names, corpus_path, identity,
                     parse_problem_file)
from plqstab.problemfile import parse_problem_doc
from plqstab.rational import rat, vdot
from plqstab.stability import FloatKernel
from support import quad_penalty_2d, random_enlp_docs, random_penalty


def _probe_solves(monkeypatch, runs):
    """(system, args, kwargs, result) of every Newton solve the default-grid
    probe analyses make, one analysis per (problem file, tol) in `runs`
    (tol None: the file's own)."""
    calls = []
    solve = stability.solve_perturbed

    def recorded(system, *args, **kwargs):
        calls.append((system, args, kwargs, solve(system, *args, **kwargs)))
        return calls[-1][3]

    monkeypatch.setattr(stability, "solve_perturbed", recorded)
    for pf, tol in runs:
        analyze_problem(pf, probe=True, tol=tol)
    monkeypatch.undo()
    return calls


def _overflow_doc():
    """example_3_2a with Phi[0] = x1 + 10^307 x2^3 written out: the float
    residual at the line search's trial points is about 10^298, and its
    squared norm overflows."""
    with open(corpus_path("example_3_2a"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["Phi"] = ["x1 + 1" + "0" * 307 + "*x2^3", "0"]
    return doc


def test_solve_perturbed_matches_the_numpy_reference(monkeypatch):
    # Every default-grid solve of the corpus, of random-enlp pool seeds 1-3
    # and of a file whose residual overflows, and of the corpus again at
    # tol = 1e-14, where the rejection bound works at small |R|: iterates,
    # residual, iterations, reason and evaluations are the reference's to
    # the last bit.  The reference runs after the program, on the same
    # parsed systems; the piece caches it then finds warm decide only
    # which first-met pieces get an exact prox check.
    runs = [(parse_problem_file(corpus_path(name)), None)
            for name in corpus_names()]
    runs += [(parse_problem_doc(doc), None)
             for seed in (1, 2, 3) for _, doc in random_enlp_docs(seed, 5)]
    runs.append((parse_problem_doc(_overflow_doc()), None))
    runs += [(parse_problem_file(corpus_path(name)), 1e-14)
             for name in corpus_names()]
    calls = _probe_solves(monkeypatch, runs)
    assert len(calls) >= 100
    assert {r.reason for _, _, _, r in calls} >= {"converged", "no_descent",
                                                  "max_iter"}
    for system, args, kwargs, result in calls:
        expected = newton_reference.solve_perturbed(system, *args, **kwargs)
        assert repr(result) == repr(expected)


def _boundary_terms(pen, rng):
    """Linear terms c of the prox QP whose unconstrained minimizer
    y = -Q^-1 c lies on the hyperplane of a row of Y: c = -Q y for such a
    y, rounded to float.  At these kinks more than one active set can pass
    in float."""
    q = pen._prox_solver().q
    rows = list(zip(pen.Y.b, pen.Y.alpha))
    out = []
    for b, alpha in rows:
        nb = vdot(b, b)
        if nb == 0:
            continue
        base = tuple(alpha * v / nb for v in b)  # on the row
        for _ in range(3):
            shift = tuple(rat(rng.randint(-2, 2), rng.randint(1, 3))
                          for _ in range(pen.m))
            # move along the row: drop the component along b
            along = vdot(shift, b) / nb
            y = tuple(p + s - along * v for p, s, v in zip(base, shift, b))
            out.append(tuple(-float(v) for v in q.matvec(y)))
        out.append(tuple(-float(v) for v in q.matvec(base)))
    return out


def test_solve_float_matches_the_restarting_scan():
    # Seeded random c, c on row boundaries and c with +-inf entries, each
    # sequence on one solver, so that the program's list of reached active
    # sets grows while the reference rescans from the empty set.
    rng = random.Random(61)
    penalties = [quad_penalty_2d()]
    penalties += [parse_problem_file(corpus_path(name)).problem.penalty
                  for name in corpus_names()]
    penalties += [random_penalty(rng, rng.randint(1, 3))[0] for _ in range(40)]
    checked = inf_checked = 0
    for pen in penalties:
        solver = pen._prox_solver()
        terms = [tuple(rng.uniform(-3, 3) for _ in range(pen.m))
                 for _ in range(15)]
        terms += _boundary_terms(pen, rng)
        for _ in range(3):
            c = [rng.uniform(-3, 3) for _ in range(pen.m)]
            c[rng.randrange(pen.m)] = rng.choice((math.inf, -math.inf))
            terms.append(tuple(c))
        rng.shuffle(terms)
        for c in terms:
            got = solver.solve_float(c)
            assert repr(got) == repr(newton_reference.solve_float(solver, c))
            checked += 1
            inf_checked += any(math.isinf(v) for v in c)
    assert checked >= 800 and inf_checked >= 100


def _kernel(n, m):
    """The float kernel of a system with n primal and m multiplier
    coordinates; `rejects` and `residual` read only n and m of it."""
    f = PolyMap([Polynomial.variable(n, i) for i in range(n)])
    phi = PolyMap([Polynomial.variable(n, i % n) for i in range(m)], n=n)
    penalty = PlqPenalty(Polyhedron((), ()).with_dim(m), identity(m))
    return VarSystem(f, phi, penalty).float_kernel


def _norms_around(t):
    """Current norms |R| to test a trial whose numpy norm is t against: t
    itself (an exact tie: the trial equals the iterate), its neighbours,
    norms just inside and outside the bound's margin, and fixed norms at
    the ends of the bound's range."""
    fixed = [math.ldexp(1.0, -400), math.nextafter(math.ldexp(1.0, -400), 0),
             math.nextafter(math.ldexp(1.0, -400), 1), 5e-324, 1e-300, 1e-10,
             1.0, 1e150, 1e300]
    if not (math.isfinite(t) and t > 0):
        return fixed
    near = [t, math.nextafter(t, 0), math.nextafter(t, math.inf), t / 2, t * 2]
    near += [t * (1 - k * 1e-13) for k in (1, 2, 5, 8, 9, 10, 11, 12, 15, 20, 40)]
    near += [t * (1 + k * 1e-13) for k in (1, 10)]
    return near + fixed


def _check_rejections(kernel, values, r2, lam, p1, norms):
    """Whenever the kernel rejects the trial against a norm |R| of `norms`,
    numpy's residual of the trial is finite with a norm >= |R|.  Returns
    the number of rejections."""
    with kernel.np.errstate(over="ignore", invalid="ignore"):
        _, trial_norm, _ = kernel.residual(values, r2, lam, p1)
    rejected = 0
    for rnorm in norms:
        if kernel.rejects(values, r2, lam, p1, kernel.floor(rnorm)):
            assert math.isfinite(trial_norm) and trial_norm >= rnorm, (
                values, r2, lam, p1, rnorm, trial_norm)
            rejected += 1
    return rejected


def test_rejection_is_sound_on_the_probe_trials(monkeypatch):
    # Every 5th line-search trial of the default-grid probes of the corpus
    # and of random-enlp pool seed 1, each against the norm its solve
    # compared it with and against the norms around its own.
    trials, last = [], {}
    floor, rejects = FloatKernel.floor, FloatKernel.rejects

    def recorded_floor(self, rnorm):
        last[self] = rnorm
        return floor(self, rnorm)

    def recorded_rejects(self, values, r2, lam, p1, bound):
        trials.append((self, last[self], values, r2, lam, p1))
        return rejects(self, values, r2, lam, p1, bound)

    monkeypatch.setattr(FloatKernel, "floor", recorded_floor)
    monkeypatch.setattr(FloatKernel, "rejects", recorded_rejects)
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(doc) for _, doc in random_enlp_docs(1, 5)]
    for pf in files:
        analyze_problem(pf, probe=True)
    monkeypatch.undo()
    assert len(trials) > 20000
    in_solve = rejected = 0
    for kernel, rnorm, values, r2, lam, p1 in trials[::5]:
        in_solve += _check_rejections(kernel, values, r2, lam, p1, [rnorm])
        t = kernel.residual(values, r2, lam, p1)[1]
        rejected += _check_rejections(kernel, values, r2, lam, p1,
                                      _norms_around(t))
    assert in_solve > 2000 and rejected > 10000


_EXPONENTS = (-1074, -1060, -1022, -600, -420, -401, -400, -399, -380, -200,
              -30, -1, 0, 1, 30, 200, 380, 398, 399, 400, 401, 420, 511, 600,
              1000, 1023)


def _adversarial(rng, scale=None):
    """A float of one of the bound's edge cases: +-inf, nan, 0, 2^400 and
    its neighbour, or a random mantissa at an exponent near the edges of
    the bound's range (or at `scale`)."""
    u = rng.random()
    if u < 0.03:
        return rng.choice((math.inf, -math.inf, math.nan))
    if u < 0.08:
        return 0.0
    if u < 0.11:
        big = math.ldexp(1.0, 400)
        return rng.choice((big, math.nextafter(big, 0), -big))
    exponent = rng.choice(_EXPONENTS) if scale is None else scale
    return math.ldexp(rng.uniform(0.5, 1.0) * rng.choice((-1, 1)), exponent)


def _norm(kernel, trial):
    """numpy's |R| of a trial."""
    with kernel.np.errstate(over="ignore", invalid="ignore"):
        return kernel.residual(*trial)[1]


def _trial(rng, n, m, draw):
    """(values, r2, lam, p1) of a trial with entries from `draw`; Phi's
    values, which neither `rejects` nor `residual` reads, are 0."""
    g = [draw() for _ in range(m * n)]
    return ([draw() for _ in range(n)] + [0.0] * m + g,
            [draw() for _ in range(m)], [draw() for _ in range(m)],
            [draw() for _ in range(n)])


def test_rejection_is_sound_on_adversarial_trials():
    rng = random.Random(17)
    rejected = 0
    for n in (1, 2, 3):
        for m in range(1, 7):
            kernel = _kernel(n, m)
            for _ in range(60):
                # entries anywhere in the edge cases
                trial = _trial(rng, n, m, lambda: _adversarial(rng))
                rejected += _check_rejections(kernel, *trial,
                                              _norms_around(_norm(kernel, trial)))
                # every entry at one scale: near 2^400, or below 2^-400
                scale = rng.choice((-1074, -1000, -700, -420, -401, -400,
                                    -399, 380, 398, 399, 400))
                trial = _trial(rng, n, m, lambda: _adversarial(rng, scale))
                rejected += _check_rejections(kernel, *trial,
                                              _norms_around(_norm(kernel, trial)))
                # DPhi^T lam past float range, and a nan entry
                values, r2, lam, p1 = _trial(rng, n, m,
                                             lambda: rng.uniform(-2, 2))
                g = n + m + rng.randrange(m * n)
                values[g], lam[(g - n - m) // n] = 1e200, -1e300
                trial = values, r2, lam, p1
                rejected += _check_rejections(
                    kernel, *trial, _norms_around(_norm(kernel, trial)) + [1e10])
                values[rng.randrange(n)] = math.nan
                rejected += _check_rejections(kernel, values, r2, lam, p1,
                                              [1e-3, 1.0, 1e10])
                # r1 cancels: f = -DPhi^T lam rounded, so |e| is rounding
                # noise against A
                values, r2, lam, p1 = _trial(rng, n, m,
                                             lambda: rng.uniform(-1e3, 1e3))
                for i in range(n):
                    values[i] = -math.fsum(values[n + m + j * n + i] * lam[j]
                                           for j in range(m))
                    p1[i] = rng.choice((0.0, math.ulp(values[i])))
                r2 = [rng.choice((0.0, 1e-9, 1e-14)) for _ in range(m)]
                trial = values, r2, lam, p1
                rejected += _check_rejections(kernel, *trial,
                                              _norms_around(_norm(kernel, trial)))
    assert rejected > 1000


def test_import_leaves_numpy_unloaded():
    # numpy is imported by the float probes only, inside their functions
    src = os.path.dirname(os.path.dirname(plqstab.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, plqstab; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stdout) == (0, "False\n")
