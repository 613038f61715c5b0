"""The float Newton probe against its numpy reference, bit for bit, and
the soundness of the line search's rejection bound."""

import io
import json
import keyword
import math
import os
import random
import re
import subprocess
import sys
import tokenize

import numpy as np

import newton_reference
import plqstab
import plqstab.stability as stability
import plqstab.trialsource as trialsource
from plqstab import (PlqPenalty, PolyMap, Polyhedron, Polynomial, VarSystem,
                     analyze_problem, corpus_names, corpus_path, identity,
                     parse_problem_file)
from plqstab.problemfile import parse_problem_doc
from plqstab.rational import rat, vdot
from plqstab.stability import FloatKernel, solve_perturbed
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


def _check_against_the_reference(monkeypatch):
    """Every default-grid solve of the corpus, of random-enlp pool seeds
    1-3 and of a file whose residual overflows, and of the corpus again at
    tol = 1e-14, where the rejection bound works at small |R|: iterates,
    residual, iterations, reason and evaluations are the reference's to
    the last bit.  The reference runs after the program, on the same
    parsed systems; the piece caches it then finds warm decide only which
    first-met pieces get an exact prox check.  Returns the solves."""
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
    return calls


def test_solve_perturbed_matches_the_numpy_reference(monkeypatch):
    # At the default warm-up: enlp_3_000 and example_3_3 compile their
    # trial functions, the other systems stay on the generic path.
    calls = _check_against_the_reference(monkeypatch)
    compiled = {s for s, _, _, _ in calls if s.float_kernel.compiled}
    assert 2 <= len(compiled) < len({s for s, _, _, _ in calls})


def test_compiled_trials_match_the_numpy_reference(monkeypatch):
    # With no warm-up, every system compiles at its first line-search
    # trial, so every trial the compiled search can finish runs in it.
    # A solve's trials are its evaluations less the start; the generic
    # ones are counted on each kernel.
    monkeypatch.setattr(stability, "_WARMUP", 0)
    calls = _check_against_the_reference(monkeypatch)
    kernels = {s.float_kernel for s, _, _, _ in calls}
    assert all(kernel.compiled for kernel in kernels)
    trials = sum(r.evaluations - 1 for _, _, _, r in calls)
    assert trials > 30000 and sum(k.generic for k in kernels) < trials / 10


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


_BOUNDS = {}


def _compiled_bound(n, m):
    """The compiled search's rejection bound alone: the template's lines
    for n and m, compiled into (values, r2, lam, p1, floor) -> rejected
    (parameters named apart from the template's r{j} and l{j})."""
    if (n, m) not in _BOUNDS:
        body = ["v%d = values[%d]" % (i, i) for i in range(n + m + m * n)]
        body += ["r%d = prox_block[%d]" % (j, j) for j in range(m)]
        body += ["l%d = mult[%d]" % (j, j) for j in range(m)]
        body += trialsource.p1_lines(n) + trialsource.bound_lines(n, m)
        body.append("return rejected")
        lines = ["def make(K):",
                 "    def bound(values, prox_block, mult, p1, floor):"]
        lines += ["        " + line for line in body] + ["    return bound"]
        _BOUNDS[n, m] = trialsource.compile_search(lines, [])
    return _BOUNDS[n, m]


def _check_rejections(kernel, values, r2, lam, p1, norms):
    """Whenever the kernel rejects the trial against a norm |R| of `norms`,
    numpy's residual of the trial is finite with a norm >= |R|, and the
    compiled trial's bound decides every norm as `rejects` does.  Returns
    the number of rejections."""
    with kernel.np.errstate(over="ignore", invalid="ignore"):
        _, trial_norm, _ = kernel.residual(values, r2, lam, p1)
    bound = _compiled_bound(kernel.n, kernel.m)
    rejected = 0
    for rnorm in norms:
        floor = kernel.floor(rnorm)
        decision = kernel.rejects(values, r2, lam, p1, floor)
        assert bound(values, r2, lam, p1, floor) is decision, (
            values, r2, lam, p1, rnorm)
        if decision:
            assert math.isfinite(trial_norm) and trial_norm >= rnorm, (
                values, r2, lam, p1, rnorm, trial_norm)
            rejected += 1
    return rejected


def _replayed_trials(kernel, rnorm, args, out):
    """The trials of one line search, (values, r2, lam, p1) each, as the
    generic path computes them (`parts`, then `rejects`), checked against
    the search's outcome `out`: each trial before the last is rejected by
    the bound or has a numpy |R| of at least `rnorm`, and the last, when
    the search returned it, is not rejected, has a numpy |R| below `rnorm`
    or not finite, and is the returned one to the last bit."""
    x, lam, step, p1, p2, _ = args
    trials, best = out
    floor = kernel.floor(rnorm)
    replayed = []
    for i in range(trials):
        damp = math.ldexp(1.0, -i)
        xn = [a + damp * b for a, b in zip(x, step)]
        ln = [a + damp * b for a, b in zip(lam, step[kernel.n:])]
        values, r2, pj = kernel.parts(xn, ln, p2)
        rejected = kernel.rejects(values, r2, ln, p1, floor)
        with kernel.np.errstate(over="ignore", invalid="ignore"):
            r, norm, _ = kernel.residual(values, r2, ln, p1)
        if best is not None and i == trials - 1:
            assert not rejected and (norm < rnorm or not math.isfinite(norm))
            assert repr((xn, ln, values, r.tolist(), pj[0].tolist())) == repr(
                (best[0], best[1], best[2], best[3].tolist(),
                 best[6][0].tolist()))
        else:
            assert rejected or (math.isfinite(norm) and norm >= rnorm)
        replayed.append((values, r2, ln, p1))
    return replayed


def test_rejection_is_sound_on_the_probe_trials(monkeypatch):
    # Every line-search trial of the default-grid probes of the corpus and
    # of random-enlp pool seed 1, compiled or generic, replayed the generic
    # way, decides as its search did; every 5th, against the norm its
    # solve compared it with and against the norms around its own.
    searches = []
    line_search = FloatKernel.line_search

    def recorded(self, *args):
        out = line_search(self, *args)
        searches.append((self, args, out))
        return out

    monkeypatch.setattr(FloatKernel, "line_search", recorded)
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(doc) for _, doc in random_enlp_docs(1, 5)]
    for pf in files:
        analyze_problem(pf, probe=True)
    monkeypatch.undo()
    assert any(kernel.compiled for kernel, _, _ in searches)
    trials = []
    for kernel, args, out in searches:
        rnorm = args[-1]
        trials += [(kernel, rnorm, trial)
                   for trial in _replayed_trials(kernel, rnorm, args, out)]
    assert len(trials) > 20000
    in_solve = rejected = 0
    for kernel, rnorm, trial in trials[::5]:
        in_solve += _check_rejections(kernel, *trial, [rnorm])
        rejected += _check_rejections(kernel, *trial,
                                      _norms_around(_norm(kernel, trial)))
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
    # numpy is imported by the float probes only, inside their functions,
    # and the trial template by a kernel's first build
    src = os.path.dirname(os.path.dirname(plqstab.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, plqstab; print('numpy' in sys.modules, "
         "'plqstab.trialsource' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stdout) == (0, "False False\n")


def _compiled_sources(monkeypatch):
    """The source lines of every search function compiled from here on."""
    sources = []
    compile_search = trialsource.compile_search

    def recorded(lines, consts):
        sources.append(lines)
        return compile_search(lines, consts)

    monkeypatch.setattr(trialsource, "compile_search", recorded)
    return sources


_TEMPLATE_NAMES = re.compile(
    r"[xlvzucyrahqmok]\d+|w\d+_\d+|make|search|x|lam|step|i|p1|p2|floor|K|"
    r"ZERO|BIG|C|SHRINK|DAMPS|damp|J|s|e|b|t|d|ok|total|rejected|abs|"
    r"OverflowError")


def test_compiled_source_holds_only_the_template(monkeypatch):
    # Every search function the corpus and random-enlp pool seed 1
    # compile with no warm-up, and one of a file with coefficients of its
    # own: its tokens are template names, keywords, operators and integer
    # literals (indices, exponents and the trial cap), so no float and no
    # text of the problem file reaches `compile`.
    monkeypatch.setattr(stability, "_WARMUP", 0)
    sources = _compiled_sources(monkeypatch)
    doc = json.loads(open(corpus_path("example_3_3"), encoding="utf-8").read())
    doc["f"] = ["-31415926/27182818*x1 - 1/7*x1^3"]
    files = [parse_problem_doc(doc)]
    files += [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(d) for _, d in random_enlp_docs(1, 5)]
    for pf in files:
        analyze_problem(pf, probe=True)
    assert len(sources) >= len(files)
    layout = {tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    for lines in sources:
        text = "\n".join(lines) + "\n"
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok
            elif tok.type == tokenize.NAME:
                assert (keyword.iskeyword(tok.string)
                        or _TEMPLATE_NAMES.fullmatch(tok.string)), tok
            else:
                assert tok.type in layout, tok
        assert "31415926" not in text and "27182818" not in text


def test_a_thousand_term_polynomial_compiles(monkeypatch):
    # f_1 has 1,035 terms, every x1^a x2^b with a + b <= 44: one statement
    # per addition compiles where one nested sum would exhaust the
    # compiler's recursion.  The solves match the reference bit for bit.
    monkeypatch.setattr(stability, "_WARMUP", 0)
    sources = _compiled_sources(monkeypatch)
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
    assert solves >= 4 and system.float_kernel.compiled
    assert max(sum(line.strip().startswith("v0 += ") for line in lines)
               for lines in sources) >= 1000


def test_trial_functions_built(monkeypatch):
    # The four small corpus files serve fewer trials than the warm-up and
    # build nothing; example_3_3 builds once, and again at most once per
    # prox piece it meets after that.
    builds = {}
    build = FloatKernel._build

    def counted(self):
        before = self.compiled
        build(self)
        if self.compiled is not before:
            builds[self] = builds.get(self, 0) + 1

    monkeypatch.setattr(FloatKernel, "_build", counted)
    for name in corpus_names():
        builds.clear()
        pf = parse_problem_file(corpus_path(name))
        analyze_problem(pf, probe=True)
        if name != "example_3_3":
            assert builds == {}, name
            continue
        [(kernel, count)] = builds.items()
        assert 1 <= count <= 1 + len(kernel.penalty._float_jacs)


def test_optimized_interpreter_renders_the_same_probe_report():
    # Nothing on the compiled path is an assert, so `python -O` takes the
    # same trials and prints the same bytes.
    src = os.path.dirname(os.path.dirname(plqstab.__file__))
    cmd = ["-m", "plqstab.cli", "analyze", corpus_path("example_3_3"),
           "--probe", "--report", "json"]
    outs = [subprocess.run([sys.executable, *flags, *cmd], capture_output=True,
                           timeout=120, env={**os.environ, "PYTHONPATH": src})
            for flags in ([], ["-O"])]
    assert [o.returncode for o in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout and b'"newton"' in outs[0].stdout


def test_trial_functions_past_the_line_cap(monkeypatch):
    # A kernel whose polynomials (8 terms) and bound (3 n m = 18 lines)
    # alone pass the cap never compiles.  One whose scan grows past it
    # keeps its last function, a prefix of the scan, and its solves stay
    # the reference's.
    monkeypatch.setattr(stability, "_MAX_LINES", 25)
    assert _kernel(2, 3).warmup == math.inf
    monkeypatch.setattr(stability, "_MAX_LINES", 26)
    assert _kernel(2, 3).warmup == stability._WARMUP
    monkeypatch.setattr(stability, "_MAX_LINES", 90)
    monkeypatch.setattr(stability, "_WARMUP", 0)
    sources = _compiled_sources(monkeypatch)
    pf = parse_problem_file(corpus_path("example_3_3"))
    calls = _probe_solves(monkeypatch, [(pf, None)])
    kernel = calls[0][0].float_kernel
    assert [len(lines) for lines in sources] == [79]
    assert kernel.compiled and kernel.warmup == math.inf
    for system, args, kwargs, result in calls:
        expected = newton_reference.solve_perturbed(system, *args, **kwargs)
        assert repr(result) == repr(expected)


def _search_events(monkeypatch):
    """The line-search events from here on, in order: ("build",) for each
    search function compiled (a build that a generic trial causes comes
    before that trial's event), ("compiled", first, i, found) for each
    call of one (the trial it started at, the trial it stopped at, and
    whether it returned that trial), and ("generic", i, rejected) for each
    generic trial, i the trial's index (damp 2^-i)."""
    events = []
    compile_search = trialsource.compile_search
    trial = FloatKernel.trial

    def built(lines, consts):
        search = compile_search(lines, consts)
        events.append(("build",))

        def recorded(x, lam, step, i, *args):
            out = search(x, lam, step, i, *args)
            events.append(("compiled", i, out[0], out[1] is not None))
            return out

        return recorded

    def generic(self, x, lam, step, damp, *args):
        out = trial(self, x, lam, step, damp, *args)
        events.append(("generic", 1 - math.frexp(damp)[1], out[-1]))
        return out

    monkeypatch.setattr(trialsource, "compile_search", built)
    monkeypatch.setattr(FloatKernel, "trial", generic)
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


def _solve_both(system, p1, p2, start):
    result = solve_perturbed(system, p1, p2, start)
    assert repr(result) == repr(
        newton_reference.solve_perturbed(system, p1, p2, start))
    return result


def test_first_step_without_descent_makes_thirty_trials(monkeypatch):
    # Once the kernel has compiled, one call of its search rejects every
    # trial of the first step: 30 trials, so 31 evaluations with the
    # start, and no generic trial.  The first solve compiles at its first
    # trial, which it serves the generic way.
    monkeypatch.setattr(stability, "_WARMUP", 0)
    events = _search_events(monkeypatch)
    system = _far_step_system()
    args = ([0.0, 0.0], [0.0, 0.0], ([1e-12, 0.0], [0.0, 0.0]))
    for first in (True, False):
        events.clear()
        result = _solve_both(system, *args)
        assert (result.reason, result.iterations, result.evaluations) == (
            "no_descent", 1, 31)
        assert events == ([("build",), ("generic", 0, True),
                           ("compiled", 1, 30, False)] if first else
                          [("compiled", 0, 30, False)])


def test_overflowing_power_falls_back_to_the_generic_trial(monkeypatch):
    # The compiled search hands the first trial of the far step to the
    # generic path, whose nan values the bound does not reject; numpy's
    # |R| is nan, and the solve ends as "overflow", as the reference's.
    monkeypatch.setattr(stability, "_WARMUP", 0)
    events = _search_events(monkeypatch)
    system = _far_step_system(overflow=True)
    _solve_both(system, [0.0, 0.0], [0.0, 0.0], ([0.5, 0.0], [0.0, 0.0]))
    assert system.float_kernel.compiled
    events.clear()
    result = _solve_both(system, [0.0, 0.0], [0.0, 0.0],
                         ([1e-12, 0.0], [0.0, 0.0]))
    assert (result.reason, result.iterations, result.evaluations) == (
        "overflow", 1, 2)
    assert events == [("compiled", 0, 0, False), ("generic", 0, False)]


def test_generic_trials_resume_the_search_at_the_next_damp(monkeypatch):
    # Seeded solves on fresh systems whose prox argument crosses the
    # orthants of Y = R^2_+.  A trial in a piece without a cached
    # Jacobian goes to the generic path; when the bound rejects it, the
    # search resumes at the next damp, on the function rebuilt with the
    # new piece, also after compiled trials of the same step (a rebuild
    # in the middle of a step).  Every solve is the reference's.
    monkeypatch.setattr(stability, "_WARMUP", 0)
    events = _search_events(monkeypatch)
    rng = random.Random(2)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    for _ in range(20):
        system = VarSystem(
            PolyMap([x1 * x1 + Polynomial.constant(2, 1), x2 - x1]),
            PolyMap([x2 + x1, x2 - x1 - x1]), quad_penalty_2d())
        for _ in range(3):
            start = ([rng.uniform(-1, 1) for _ in range(2)],
                     [rng.uniform(-1, 1) for _ in range(2)])
            _solve_both(system, [rng.uniform(-1, 1) for _ in range(2)],
                        [rng.uniform(-1, 1) for _ in range(2)], start)
    resumed = mid_step = 0
    for k in range(len(events) - 3):
        call, build, trial, resume = events[k:k + 4]
        if (call[0] == "compiled" and not call[3] and call[2] < 30
                and build == ("build",) and trial == ("generic", call[2], True)
                and resume[:2] == ("compiled", call[2] + 1)):
            resumed += 1
            mid_step += call[2] > call[1]
    assert resumed >= 10 and mid_step >= 3


def _block_newton_matrix(system, x, lam, g, jac):
    """The Newton matrix written by numpy blocks, A from the reference's
    per-polynomial evaluator."""
    n, m = system.n, system.m
    jmat = np.empty((n + m, n + m))
    jmat[:n, :n] = newton_reference._psi_jacobian_x_float(
        system, np.array(x), np.array(lam))
    jmat[:n, n:] = g.T
    jmat[n:, :n] = (np.eye(m) - jac) @ g
    jmat[n:, n:] = -jac
    return jmat


def _numpy_step(jmat, r):
    try:
        return np.linalg.solve(jmat, -r).tolist(), False
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(jmat, -r, rcond=None)[0].tolist(), True


def test_newton_blocks_match_numpy_on_the_probe_iterates(monkeypatch):
    # Every Newton matrix and step of the default-grid probes of the corpus
    # and of random-enlp pool seeds 1-3: the matrix has the bytes of the
    # block assembly, and the step, from LAPACK's solve called directly,
    # is `np.linalg.solve`'s, or `lstsq`'s where that raises.
    records = {"newton_matrix": [], "newton_step": []}
    for name, records_of in records.items():
        method = getattr(FloatKernel, name)

        def recorded(self, *args, method=method, records_of=records_of):
            out = method(self, *args)
            records_of.append((self, args, out))
            return out

        monkeypatch.setattr(FloatKernel, name, recorded)
    runs = [(parse_problem_file(corpus_path(name)), None)
            for name in corpus_names()]
    runs += [(parse_problem_doc(doc), None)
             for seed in (1, 2, 3) for _, doc in random_enlp_docs(seed, 5)]
    systems = {s.float_kernel: s for s, _, _, _ in _probe_solves(monkeypatch,
                                                                  runs)}
    assert len(records["newton_matrix"]) > 2500
    for kernel, (x, lam, _, g, pj), jmat in records["newton_matrix"]:
        expected = _block_newton_matrix(systems[kernel], x, lam, g, pj[0])
        assert jmat.tobytes() == expected.tobytes()
    singular = 0
    for kernel, (jmat, r), step in records["newton_step"]:
        expected, lstsq = _numpy_step(jmat, r)
        assert repr(step) == repr(expected)
        singular += lstsq
    assert singular >= 30


def test_newton_step_solves_as_numpy():
    # The kernel calls numpy's LAPACK gufunc itself; on nonsingular
    # matrices its step is `np.linalg.solve`'s, and a singular one (an
    # exactly zero pivot) still gets `lstsq`'s.
    from numpy.linalg import _umath_linalg

    rng = np.random.default_rng(7)
    for n, m in ((1, 1), (1, 2), (2, 2), (3, 3), (2, 5)):
        kernel = _kernel(n, m)
        assert kernel.solve is _umath_linalg.solve1
        size = n + m
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(50):
                jmat = rng.standard_normal((size, size))
                jmat *= 10.0 ** rng.integers(-5, 6, size=(size, 1))
                r = rng.standard_normal(size)
                step, lstsq = _numpy_step(jmat, r)
                assert not lstsq and repr(kernel.newton_step(jmat, r)) == repr(
                    step)
            for jmat in (np.zeros((size, size)), np.ones((size, size)),
                         np.diag([1.0] * (size - 1) + [0.0])):
                r = rng.standard_normal(size)
                step, lstsq = _numpy_step(jmat, r)
                assert lstsq and repr(kernel.newton_step(jmat, r)) == repr(
                    step)
