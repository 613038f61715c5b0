"""The float Newton probe against its plain-Python reference, bit for
bit: the stall rule, the line search's running-sum rejection and the
Newton step."""

import json
import math
import os
import random
import subprocess
import sys

import newton_reference
import plqstab
import plqstab.probe as probe
from plqstab import (PlqPenalty, PolyMap, Polyhedron, Polynomial, VarSystem,
                     analyze_problem, corpus_names, corpus_path, identity,
                     parse_problem_file)
from plqstab.linalg import RatMatrix, invert, pseudo_inverse_psd
from plqstab.problemfile import parse_problem_doc
from plqstab.rational import rat, vdot
from plqstab.probe import FloatKernel, solve_perturbed
from support import quad_penalty_2d, random_enlp_docs, random_penalty


def _probe_solves(monkeypatch, runs):
    """(system, args, kwargs, result) of every Newton solve the default-grid
    probe analyses make, one analysis per (problem file, tol) in `runs`
    (tol None: the file's own)."""
    calls = []
    solve = probe.solve_perturbed

    def recorded(system, *args, **kwargs):
        calls.append((system, args, kwargs, solve(system, *args, **kwargs)))
        return calls[-1][3]

    monkeypatch.setattr(probe, "solve_perturbed", recorded)
    for pf, tol in runs:
        analyze_problem(pf, probe=True, tol=tol)
    monkeypatch.undo()
    return calls


def _overflow_doc():
    """example_3_2a with Phi[0] = x1 + 10^307 x2^3 written out: the float
    residual at the line search's trial points is about 10^298, and its
    square overflows."""
    with open(corpus_path("example_3_2a"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["Phi"] = ["x1 + 1" + "0" * 307 + "*x2^3", "0"]
    return doc


def _check_against_the_reference(monkeypatch):
    """Every default-grid solve of the corpus, of random-enlp pool seeds
    1-3 and of a file whose trial residuals overflow, and of the corpus
    again at tol = 1e-14: iterates, residual, iterations, reason and
    evaluations are the reference's to the last bit.  The reference runs
    after the program, on the same parsed systems; the piece caches it
    then finds warm decide only which first-met pieces get an exact prox
    check."""
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
                                                  "stalled"}
    for system, args, kwargs, result in calls:
        expected = newton_reference.solve_perturbed(system, *args, **kwargs)
        assert repr(result) == repr(expected)


def test_solve_perturbed_matches_the_reference(monkeypatch):
    # The solves meet an exactly zero pivot at 142 Newton steps, so the
    # minimum-norm step is held to the reference too.
    steps = []
    min_norm_step = probe._min_norm_step

    def counted(a, b):
        steps.append(None)
        return min_norm_step(a, b)

    monkeypatch.setattr(probe, "_min_norm_step", counted)
    _check_against_the_reference(monkeypatch)
    assert len(steps) == 142


def _boundary_terms(pen, rng):
    """Linear terms c of the prox QP whose unconstrained minimizer
    y = -Q^-1 c lies on the hyperplane of a row of Y: c = -Q y for such a
    y, rounded to float.  At these kinks more than one active set can pass
    in float."""
    q = pen._prox_solver.q
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
        solver = pen._prox_solver
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


def _small_system(n, m, poly_y):
    f = PolyMap([Polynomial.variable(n, i) for i in range(n)])
    phi = PolyMap([Polynomial.variable(n, i % n) for i in range(m)], n=n)
    return VarSystem(f, phi, PlqPenalty(poly_y, identity(m)))


def _r1_sum(n, r):
    """The running sum of |R|^2 after r1: 0.0 plus the squares of R's
    first n entries, in order."""
    s = 0.0
    for e in r[:n]:
        s += e * e
    return s


def test_rejection_is_sound_on_the_probe_trials(monkeypatch):
    # Every line-search trial of the default-grid probes of the corpus and
    # of random-enlp pool seeds 1-3, and of the corpus points' semi-isolated
    # probes over 16 directions at direction seeds 1-8, evaluated in full
    # by the reference: every trial the search rejected has a full |R|^2
    # not below the current one (at the iterate, equal to it), the one it
    # returned is below it and is the reference's to the last bit, and
    # each is counted by the first rule that rejects it in the search's
    # order: the iterate, the running sum after r1, or the full sum.
    searches = []
    line_search = FloatKernel.line_search

    def recorded(self, *args):
        out = line_search(self, *args)
        searches.append((self, args, out))
        return out

    monkeypatch.setattr(FloatKernel, "line_search", recorded)
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(doc)
              for seed in (1, 2, 3) for _, doc in random_enlp_docs(seed, 5)]
    systems = {}
    for pf in files:
        analyze_problem(pf, probe=True)
        system = pf.problem
        systems[system.float_kernel] = system
    for name in corpus_names():
        pf = parse_problem_file(corpus_path(name))
        system = pf.problem
        systems[system.float_kernel] = system
        for seed in range(1, 9):
            for x, lam in pf.points:
                probe.semi_isolated_probe(system, x, lam, grid=16, seed=seed)
    monkeypatch.undo()
    tags = {"iterate": 0, "r1": 0, "full": 0, "accepted": 0}
    for kernel, (x, lam, step, p1, p2, cur), (trials, best) in searches:
        system, n = systems[kernel], kernel.n
        at_iterate = False
        for i in range(trials):
            damp = math.ldexp(1.0, -i)
            xn = [a + damp * b for a, b in zip(x, step)]
            ln = [a + damp * b for a, b in zip(lam, step[n:])]
            r, rsq, _, jac = newton_reference.float_residual(
                system, p1, p2, xn, ln)
            at = xn + ln == x + lam
            assert at or not at_iterate  # every smaller damp lands there too
            at_iterate = at
            if best is not None and i == trials - 1:
                assert not at_iterate and rsq < cur
                assert repr((xn, ln, r, rsq)) == repr(
                    (best[0], best[1], best[3], best[4]))
                assert [list(row) for row in best[5][1]] == [
                    [-v for v in row] for row in jac]
                tags["accepted"] += 1
                continue
            assert not rsq < cur
            assert not at_iterate or rsq == cur
            tags["iterate" if at_iterate else
                 "r1" if not _r1_sum(n, r) < cur else "full"] += 1
    assert sum(tags.values()) > 20000
    assert (tags["iterate"] > 500 and tags["r1"] > 10000
            and tags["full"] > 5000 and tags["accepted"] > 1000), tags


def _adversarial(rng):
    """A float at an edge of float range: +-inf, nan, 0, a subnormal, or a
    random mantissa at an exponent where a square or a product under- or
    overflows, or at a moderate one."""
    u = rng.random()
    if u < 0.05:
        return rng.choice((math.inf, -math.inf, math.nan))
    if u < 0.1:
        return rng.choice((0.0, -0.0, 5e-324))
    exponent = rng.choice((-1074, -1022, -600, -540, -511, -30, -1, 0, 1, 30,
                           511, 512, 513, 600, 1000, 1023))
    return math.ldexp(rng.uniform(0.5, 1.0) * rng.choice((-1, 1)), exponent)


def _currents(rsq):
    """Current |R|^2 values to test a trial of full sum rsq against: rsq
    itself (a tie), its neighbours, and fixed values across the range."""
    out = [5e-324, 1e-300, 1e-10, 1.0, 1e300, sys.float_info.max]
    if math.isfinite(rsq) and rsq > 0:
        out += [rsq, math.nextafter(rsq, 0), math.nextafter(rsq, math.inf),
                rsq / 2, rsq * 2]
    return [c for c in out if 0 < c < math.inf]


def test_rejection_is_sound_on_adversarial_trials():
    # Trials whose entries sit at the edges of float range, with R
    # overflowing, underflowing or nan, on systems with Y = R^m (one
    # active set) and Y = R^m_+: `residual` rejects a trial exactly when
    # the reference's full |R|^2 is not below the current one, and what it
    # accepts is the reference's to the last bit.
    rng = random.Random(17)
    last = probe._TRIALS - 1
    damp = math.ldexp(1.0, -last)
    counts = {"accepted": 0, "rejected": 0, "nonfinite": 0}
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            orthant = Polyhedron([[-int(i == j) for j in range(m)]
                                  for i in range(m)], [0] * m)
            for poly_y in (Polyhedron((), (), m), orthant):
                system = _small_system(n, m, poly_y)
                kernel = system.float_kernel
                for _ in range(40):  # reach the pieces
                    kernel.residual([rng.uniform(-1, 1) for _ in range(n)],
                                    [rng.uniform(-1, 1) for _ in range(m)],
                                    [0.0] * n, [0.0] * m)
                for k in range(60):
                    # every entry at an edge, one entry at an edge, or
                    # every entry at one scale
                    scale = rng.choice((-1074, -540, -520, 0, 500, 520))
                    draw = [lambda: _adversarial(rng),
                            lambda: rng.uniform(-2, 2),
                            lambda: math.ldexp(rng.uniform(-1, 1), scale)
                            ][k % 3]
                    a, h, p1, p2 = ([draw() for _ in range(size)]
                                    for size in (n + m, n + m, n, m))
                    if k % 3 == 1:
                        entries = (a, h, p1, p2)[rng.randrange(4)]
                        entries[rng.randrange(len(entries))] = _adversarial(rng)
                    xn = [u + damp * v for u, v in zip(a[:n], h)]
                    ln = [u + damp * v for u, v in zip(a[n:], h[n:])]
                    r, rsq, _, _ = newton_reference.float_residual(
                        system, p1, p2, xn, ln)
                    counts["nonfinite"] += not rsq < math.inf
                    for cur in _currents(rsq):
                        accept = rsq < cur
                        got = kernel.residual(xn, ln, p1, p2, cur)
                        assert (got is not None) is accept
                        if accept:
                            assert repr((got[1], got[2])) == repr((r, rsq))
                        counts["accepted" if accept else "rejected"] += 1
    assert (counts["accepted"] > 1500 and counts["rejected"] > 4000
            and counts["nonfinite"] > 300), counts


def test_import_leaves_numpy_unloaded():
    # no plqstab module imports numpy
    src = os.path.dirname(os.path.dirname(plqstab.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, plqstab; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stdout) == (0, "False\n")


def test_a_thousand_term_polynomial_matches_the_reference():
    # f_1 has 1,035 terms, every x1^a x2^b with a + b <= 44, evaluated
    # from its flattened float terms: the solves match the reference, which
    # evaluates it term by term, bit for bit.
    rng = random.Random(29)
    big = Polynomial(2, {(a, b): rat(rng.randint(1, 9), 10 ** 4)
                         for a in range(45) for b in range(45 - a)})
    assert len(big.terms) >= 1000
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    system = VarSystem(PolyMap([x1 + big, x2 - x1]), PolyMap([x1, x2 * x2]),
                       quad_penalty_2d())
    solves = 0
    for _ in range(8):
        start = ([rng.uniform(-0.6, 0.6) for _ in range(2)],
                 [rng.uniform(-1, 1) for _ in range(2)])
        p1 = [rng.uniform(-1e-3, 1e-3) for _ in range(2)]
        p2 = [rng.uniform(-1e-3, 1e-3) for _ in range(2)]
        result = solve_perturbed(system, p1, p2, start)
        expected = newton_reference.solve_perturbed(system, p1, p2, start)
        assert repr(result) == repr(expected)
        solves += result.evaluations > 1
    assert solves >= 4


def test_optimized_interpreter_renders_the_same_probe_report():
    # Nothing on the Newton path is an assert, so `python -O` takes the
    # same trials and prints the same bytes.
    src = os.path.dirname(os.path.dirname(plqstab.__file__))
    cmd = ["-m", "plqstab.cli", "analyze", corpus_path("example_3_3"),
           "--probe", "--report", "json"]
    outs = [subprocess.run([sys.executable, *flags, *cmd], capture_output=True,
                           timeout=120, env={**os.environ, "PYTHONPATH": src})
            for flags in ([], ["-O"])]
    assert [o.returncode for o in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout and b'"newton"' in outs[0].stdout


def _search_events(monkeypatch):
    """The line searches from here on, in order: (trials, found) for each
    `FloatKernel.line_search` call."""
    events = []
    line_search = FloatKernel.line_search

    def searched(self, *args):
        trials, best = line_search(self, *args)
        events.append((trials, best is not None))
        return trials, best

    monkeypatch.setattr(FloatKernel, "line_search", searched)
    return events


def _far_step_system(overflow=False):
    """f = (x1^2 + 1, x2), Phi = (x2, x2) with Y = R^2_+, B = I.  At
    x1 = 1e-12 the Newton step in x1 is about -5e11, so every damped trial
    has |R| > 1 = |R| at the start.  With `overflow`, f_1 has the term
    10^-300 x1^30 too, whose power overflows at the first trial."""
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f1 = x1 * x1 + Polynomial.constant(2, 1)
    if overflow:
        f1 = f1 + Polynomial(2, {(30, 0): rat(1, 10 ** 300)})
    return VarSystem(PolyMap([f1, x2]), PolyMap([x2, x2]), quad_penalty_2d())


def _solve_both(system, p1, p2, start, **kwargs):
    result = solve_perturbed(system, p1, p2, start, **kwargs)
    assert repr(result) == repr(
        newton_reference.solve_perturbed(system, p1, p2, start, **kwargs))
    return result


def test_a_stalled_solve_ends_after_ten_iterations():
    # The stall rule at its boundary, each solve the reference's.  (a)
    # example_3_3's solve from (x, lam) = (0, (0, 1/4)) with p1 = 10^-3
    # halves |R| within its first ten iterations and stops at iteration 11,
    # where |R| is not below half its value at iteration 1; restarted from
    # its first iterate, the same solve stops at iteration 10.  (b) f = x1^5
    # from x1 = 1: each Newton step takes x1 to 4/5 of itself, so |R| halves
    # within every window of ten iterations, and the solve converges at
    # iteration 21 without being cut.  (c) With max_iter <= 10 the rule is
    # never reached, and the stalling solve ends in "max_iter".
    system = parse_problem_file(corpus_path("example_3_3")).problem
    p1, p2, start = [1e-3], [0.0, 0.0], ([0.0], [0.0, 0.25])
    result = _solve_both(system, p1, p2, start)
    assert (result.reason, result.iterations) == ("stalled", 11)
    first = _solve_both(system, p1, p2, start, max_iter=1)
    assert (first.reason, first.iterations) == ("max_iter", 1)
    restart = (first.x, first.lam)
    result = _solve_both(system, p1, p2, restart)
    assert (result.reason, result.iterations) == ("stalled", 10)
    assert result.evaluations < probe._STALL_WINDOW * probe._TRIALS
    for max_iter in (probe._STALL_WINDOW, 3):
        result = _solve_both(system, p1, p2, restart, max_iter=max_iter)
        assert (result.reason, result.iterations) == ("max_iter", max_iter)
    x1 = Polynomial.variable(1, 0)
    quintic = VarSystem(PolyMap([x1 * x1 * x1 * x1 * x1]),
                        PolyMap([Polynomial.constant(1, 0)]),
                        PlqPenalty(Polyhedron([(-1,)], [0]), RatMatrix([(0,)])))
    result = _solve_both(quintic, [0.0], [0.0], ([1.0], [0.0]))
    assert (result.reason, result.iterations) == ("converged", 21)


def test_first_step_without_descent_makes_thirty_trials(monkeypatch):
    # One search rejects every trial of the first step: 30 trials, so 31
    # evaluations with the start.
    events = _search_events(monkeypatch)
    system = _far_step_system()
    result = _solve_both(system, [0.0, 0.0], [0.0, 0.0],
                         ([1e-12, 0.0], [0.0, 0.0]))
    assert (result.reason, result.iterations, result.evaluations) == (
        "no_descent", 1, 31)
    assert events == [(30, False)]


def test_an_overflowing_trial_is_rejected(monkeypatch):
    # The first trial of the far step multiplies x1 ~ -5e11 out to its
    # 30th power, which overflows, so its |R|^2 is inf: the search rejects
    # it and backtracks, rejects every later trial too, and the solve ends
    # as "no_descent", not "overflow", as the reference's.
    events = _search_events(monkeypatch)
    system = _far_step_system(overflow=True)
    kernel = system.float_kernel
    x, lam, p = [1e-12, 0.0], [0.0, 0.0], [0.0, 0.0]
    values, r, rsq, pj = kernel.residual(x, lam, p, p)
    step = kernel.step(x, lam, values, pj, r)
    first = [a + b for a, b in zip(x, step)]
    assert newton_reference.float_residual(system, p, p, first, lam)[1] \
        == math.inf
    result = _solve_both(system, p, p, (x, lam))
    assert (result.reason, result.iterations, result.evaluations) == (
        "no_descent", 1, 31)
    assert events == [(30, False)]


def test_overflow_ends_a_solve_at_the_start_or_at_the_newton_matrix():
    # "overflow" names a start whose |R|^2 is not finite (f_1 = x1^2 + 1
    # at x1 = 1e200), or a Newton matrix that is not (Phi = 10^300 x1^2,
    # whose Hessian times lam = 1e10 overflows while R stays finite).  A
    # Hessian whose lam_i is 0 is skipped even where it overflows (Phi =
    # 22 10^306 x1^3 at x1 = 1.5, lam = 0, with Phi and DPhi finite), and
    # the solve takes its step.
    x1 = Polynomial.variable(1, 0)
    result = _solve_both(_far_step_system(), [0.0, 0.0], [0.0, 0.0],
                         ([1e200, 0.0], [0.0, 0.0]))
    assert (result.reason, result.iterations, result.evaluations) == (
        "overflow", 0, 1)
    for c, k, y_row, start, expected in (
            (10 ** 300, 2, -1, ([0.0], [1e10]), ("overflow", 1, 1)),
            (22 * 10 ** 306, 3, 1, ([1.5], [0.0]), ("converged", 1, 2))):
        system = VarSystem(
            PolyMap([x1]), PolyMap([Polynomial(1, {(k,): rat(c)})]),
            PlqPenalty(Polyhedron([(y_row,)], [0]), RatMatrix([(0,)])))
        result = _solve_both(system, [1e-3], [0.0], start)
        assert (result.reason, result.iterations,
                result.evaluations) == expected


def test_solves_crossing_the_orthants_match_the_reference():
    # Seeded solves on fresh systems whose prox argument crosses the
    # orthants of Y = R^2_+, so that trials meet pieces with no cached
    # Jacobian yet: every solve is the reference's.
    rng = random.Random(2)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    pieces = 0
    for _ in range(30):
        system = VarSystem(
            PolyMap([x1 * x1 + Polynomial.constant(2, 1), x2 - x1]),
            PolyMap([x2 + x1, x2 - x1 - x1]), quad_penalty_2d())
        for _ in range(3):
            start = ([rng.uniform(-1, 1) for _ in range(2)],
                     [rng.uniform(-1, 1) for _ in range(2)])
            _solve_both(system, [rng.uniform(-1, 1) for _ in range(2)],
                        [rng.uniform(-1, 1) for _ in range(2)], start)
        pieces += len(system.penalty._float_jacs)
    assert pieces >= 100


def _zero_step_system():
    """f = x1^2 + 1, Phi = 0, Y = R_+ and B = 0.  At lam = 1 the prox
    argument is 1, where the piece's Jacobian is 0; at x1 = 0 the Newton
    matrix is then 0 and the minimum-norm step exactly zero, while
    |R| = 1."""
    x1 = Polynomial.variable(1, 0)
    penalty = PlqPenalty(Polyhedron([(-1,)], [0]), RatMatrix([(0,)]))
    return VarSystem(PolyMap([x1 * x1 + Polynomial.constant(1, 1)]),
                     PolyMap([Polynomial.constant(1, 0)]), penalty)


def _count_residuals(monkeypatch):
    """The list whose length counts `FloatKernel.residual` calls from here
    on: the start's and one per trial."""
    calls = []
    residual = FloatKernel.residual

    def counted(self, *args):
        calls.append(None)
        return residual(self, *args)

    monkeypatch.setattr(FloatKernel, "residual", counted)
    return calls


def test_a_zero_step_evaluates_no_trial(monkeypatch):
    # The first trial of a zero step is the iterate, so the search ends
    # there, with no trial evaluated and no residual but the start's; its
    # 30 trials still count, as the reference's.
    events = _search_events(monkeypatch)
    residuals = _count_residuals(monkeypatch)
    result = _solve_both(_zero_step_system(), [0.0], [0.0], ([0.0], [1.0]))
    assert (result.reason, result.iterations, result.evaluations) == (
        "no_descent", 1, 31)
    assert events == [(30, False)]
    assert len(residuals) == 1


def _reference_search(system, x, lam, step, p1, p2, cur):
    """(trials, index of the trial returned or None) of the reference's
    line search from (x, lam) along `step`."""
    n = system.n
    damp = 1.0
    for i in range(30):
        _, rsq, _, _ = newton_reference.float_residual(
            system, p1, p2, [a + damp * b for a, b in zip(x, step)],
            [a + damp * b for a, b in zip(lam, step[n:])])
        if rsq < cur:
            return i + 1, i
        damp /= 2
    return 30, None


def test_a_step_below_an_ulp_rounds_onto_the_iterate(monkeypatch):
    # From x1 = lam1 = 1 along (2^-50, 2^-51) the trials at damps 1, 1/2
    # and 1/4 move x1 by 4, 2 and 1 ulps (lam1 by 2, 1 and 0), and |R|
    # rises; at 1/8 the trial rounds onto the iterate (ties to even),
    # where the search ends with 30 trials counted, as the reference's,
    # after evaluating the three trials.
    x, lam, step = [1.0], [1.0], [math.ldexp(1.0, -50), math.ldexp(1.0, -51)]
    system = _zero_step_system()
    kernel = system.float_kernel
    rsq = kernel.residual(x, lam, [0.0], [0.0])[2]
    expected = _reference_search(system, x, lam, step, [0.0], [0.0], rsq)
    assert expected == (30, None) and rsq == 4.0
    residuals = _count_residuals(monkeypatch)
    assert kernel.line_search(x, lam, step, [0.0], [0.0], rsq) == expected
    assert len(residuals) == 3


def _exact(rows):
    return RatMatrix([[rat(v) for v in row] for row in rows])


def _close(step, exact):
    """Whether the float step is within 1e-9 (relative to 1 + |exact|) of
    the exact one in every entry."""
    scale = 1 + max(abs(float(v)) for v in exact)
    return all(abs(a - float(b)) <= 1e-9 * scale for a, b in zip(step, exact))


def test_newton_step_is_lu_or_the_minimum_norm_step():
    # Nonsingular matrices with rows scaled over ten decades: the step is
    # the reference's elimination to the bit and the exact solution to
    # within rounding.  Matrices whose elimination meets an exactly zero
    # pivot get the minimum-norm least-squares step, which is
    # pinv(A) b = pinv(A^T A) A^T b to within rounding; so does every
    # random rank-deficient product of integer matrices.  The rank rule
    # drops |R_kk| <= N 2^-52 |R_00|.
    rng = random.Random(7)
    for size in (2, 3, 4, 5, 7):
        for _ in range(40):
            rows = [[rng.uniform(-1, 1) * 10.0 ** e for _ in range(size)]
                    for e in [rng.randint(-5, 5) for _ in range(size)]]
            r = [rng.uniform(-1, 1) for _ in range(size)]
            rhs = [-v for v in r]
            step = probe._lu_solve(rows, rhs)
            assert repr(step) == repr(newton_reference.lu_solve(rows, rhs))
            exact = invert(_exact(rows)).matvec(tuple(rat(v) for v in rhs))
            assert _close(step, exact)
        singular = [[[0.0] * size for _ in range(size)],
                    [[1.0] * size for _ in range(size)],
                    [[float(i == j and i < size - 1) for j in range(size)]
                     for i in range(size)]]
        singular += [[[float(sum(rng.randint(-3, 3) * rng.randint(-3, 3)
                                 for _ in range(rank)))
                       for _ in range(size)] for _ in range(size)]
                     for rank in range(1, size)]
        for rows in singular:
            r = [rng.uniform(-1, 1) for _ in range(size)]
            rhs = tuple(rat(-v) for v in r)
            a = _exact(rows)
            exact = pseudo_inverse_psd(a.T @ a).matvec(a.T.matvec(rhs))
            step = probe._lu_solve(rows, [-v for v in r])
            assert repr(step) == repr(
                newton_reference.lu_solve(rows, [-v for v in r]))
            assert _close(probe._min_norm_step(rows, [-v for v in r]), exact)
    assert probe._min_norm_step([[1.0, 0.0], [0.0, 1e-17]],
                                [1.0, 1.0]) == [1.0, 0.0]
    assert probe._min_norm_step([[2.0, 0.0], [0.0, 1e-15]],
                                [2.0, 1e-15]) == [1.0, 1.0]


def test_lu_on_ties_signed_zeros_nan_and_zero_pivots(monkeypatch):
    # Pivot ties, +x against -x among them, go to the first row of largest
    # |a_ik|, as `max` picks it; a column whose candidates are all zero,
    # -0.0 among them, at the start or left -0.0 by elimination (-0.0 -
    # 0.5 * 0.0), is a zero pivot; and a nan that first appears in
    # elimination, inf - 0.5 inf of two overflowed finite sums, runs on as
    # in the reference.  Each is the reference elimination's, bit for bit.
    nan_case = [[2.0, 1.0, 1e308], [-2.0, 3.0, 1e308], [-2.0, 1.0, 1e308]]
    cases = [[[1.0, 2.0], [-1.0, 3.0]],
             [[-3.0, 1.0, 2.0], [3.0, -1.0, 5.0], [-3.0, 4.0, 1.0]],
             [[1.0, 1.0, 1.0], [1.0, -2.0, 1.0], [-1.0, 2.0, 3.0]],
             nan_case,
             [[-0.0, 1.0], [0.0, 2.0]],
             [[4.0, 0.0, 1.0], [2.0, -0.0, 3.0], [1.0, -0.0, 5.0]]]
    rng = random.Random(5)
    entries = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)
    cases += [[[rng.choice(entries) for _ in range(size)]
               for _ in range(size)]
              for size in (2, 3, 4, 5) for _ in range(100)]
    counts = {"solved": 0, "zero": 0, "nan": 0}
    for rows in cases:
        size = len(rows)
        rhs = [rng.choice((-1.5, 0.5, 1.0)) for _ in range(size)]
        got = probe._lu_solve(rows, rhs)
        assert repr(got) == repr(newton_reference.lu_solve(rows, rhs))
        if got is None:
            counts["zero"] += 1
        else:
            counts["solved"] += 1
            counts["nan"] += any(map(math.isnan, got))
    assert repr(probe._lu_solve(nan_case, [1.0, 1.0, 1.0])) == repr(
        [math.nan] * 3)
    assert counts["solved"] > 250 and counts["zero"] > 75, counts
    # Through a kernel: at x1 = 0, lam = 1 the zero-step system's Newton
    # matrix is 0 (with -J = -0.0), and the step hands exactly that matrix
    # and -R to `_min_norm_step`, whose step it returns.
    seen = []
    min_norm_step = probe._min_norm_step

    def recorded(a, b):
        seen.append((a, b))
        return min_norm_step(a, b)

    monkeypatch.setattr(probe, "_min_norm_step", recorded)
    kernel = _zero_step_system().float_kernel
    x, lam = [0.0], [1.0]
    values, r, _, pj = kernel.residual(x, lam, [0.0], [0.0])
    step = kernel.step(x, lam, values, pj, r)
    jmat = kernel.newton_matrix(x, lam, values, pj)
    assert repr(seen) == repr([(jmat, [-v for v in r])])
    assert repr(jmat) == repr([[0.0, 0.0], [0.0, -0.0]])
    assert repr(step) == repr(min_norm_step(jmat, [-v for v in r]))
