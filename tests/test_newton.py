"""The float Newton probe against its plain-Python reference, bit for
bit, and the line search's running-sum rejection and Newton step."""

import functools
import inspect
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

import newton_reference
import plqstab
import plqstab.probe as probe
import plqstab.trialsource as trialsource
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


def _step_calls(monkeypatch):
    """{compiled step function: calls} for every step function compiled
    from here on, each wrapped to count its calls; the key "returned" holds
    the set of the types they returned."""
    calls = {"returned": set()}
    compile_step = trialsource.compile_step

    def built(*args):
        step = compile_step(*args)

        def counted(*args):
            calls[counted] += 1
            out = step(*args)
            calls["returned"].add(type(out))
            return out

        calls[counted] = 0
        return counted

    monkeypatch.setattr(trialsource, "compile_step", built)
    return calls


def _system(pf):
    """The `VarSystem` that the probe of a parsed problem file solves."""
    return pf.problem if pf.kind == "varsys" else pf.problem.to_varsys()


def _check_against_the_reference(monkeypatch):
    """Every default-grid solve of the corpus, of random-enlp pool seeds
    1-3 and of a file whose trial residuals overflow, and of the corpus
    again at tol = 1e-14: iterates, residual, iterations, reason and
    evaluations are the reference's to the last bit.  The reference runs
    after the program, on the same parsed systems; the piece caches it
    then finds warm decide only which first-met pieces get an exact prox
    check.  Returns the solves and {file name: float kernel}, the names
    of the tol = 1e-14 runs ending in "@1e-14"."""
    named = [(name, parse_problem_file(corpus_path(name)), None)
             for name in corpus_names()]
    named += [(name, parse_problem_doc(doc), None)
              for seed in (1, 2, 3) for name, doc in random_enlp_docs(seed, 5)]
    named.append(("overflow", parse_problem_doc(_overflow_doc()), None))
    named += [(name + "@1e-14", parse_problem_file(corpus_path(name)), 1e-14)
              for name in corpus_names()]
    calls = _probe_solves(monkeypatch, [(pf, tol) for _, pf, tol in named])
    assert len(calls) >= 100
    assert {r.reason for _, _, _, r in calls} >= {"converged", "no_descent",
                                                  "max_iter"}
    for system, args, kwargs, result in calls:
        expected = newton_reference.solve_perturbed(system, *args, **kwargs)
        assert repr(result) == repr(expected)
    return calls, {name: _system(pf).float_kernel for name, pf, _ in named}


def test_solve_perturbed_matches_the_reference(monkeypatch):
    # At the default warm-up: enlp_1_000, enlp_3_000 and example_3_3 (at
    # both tolerances) compile their search and step functions and run
    # both, the other systems stay on the generic path.  The solves meet
    # an exactly zero pivot at 142 Newton steps, so the minimum-norm step
    # is held to the reference too.
    steps = []
    min_norm_step = probe._min_norm_step

    def counted(a, b):
        steps.append(None)
        return min_norm_step(a, b)

    monkeypatch.setattr(probe, "_min_norm_step", counted)
    step_calls = _step_calls(monkeypatch)
    calls, kernels = _check_against_the_reference(monkeypatch)
    compiled = {s for s, _, _, _ in calls if s.float_kernel.compiled}
    assert 2 <= len(compiled) < len({s for s, _, _, _ in calls})
    assert len(steps) == 142
    # the compiled search and the compiled step ran on the same kernels
    searched = {name for name, k in kernels.items() if k.compiled}
    stepped = {name for name, k in kernels.items()
               if step_calls.get(k.compiled_step)}
    assert searched == stepped == {"enlp_1_000", "enlp_3_000", "example_3_3",
                                   "example_3_3@1e-14"}


def test_compiled_trials_match_the_reference(monkeypatch):
    # With no warm-up, every system compiles after its first line search,
    # so every later search runs in the compiled search, which takes no
    # trial index, and every Newton step after it in the compiled step,
    # which returns a list (None is kept for a Newton matrix that
    # overflows, which these solves never meet).
    # A solve's trials are its evaluations less the start; the generic
    # ones are counted on each kernel.
    monkeypatch.setattr(probe, "_WARMUP", 0)
    step_calls = _step_calls(monkeypatch)
    events = _search_events(monkeypatch)
    calls, named = _check_against_the_reference(monkeypatch)
    kernels = {s.float_kernel for s, _, _, _ in calls}
    assert all(kernel.compiled for kernel in kernels)
    assert all(step_calls.get(k.compiled_step) for k in named.values())
    assert step_calls["returned"] == {list}
    assert all(list(inspect.signature(k.compiled).parameters)
               == ["x", "lam", "step", "p1", "p2", "cur"] for k in kernels)
    trials = sum(r.evaluations - 1 for _, _, _, r in calls)
    assert trials > 30000 and sum(k.generic for k in kernels) < trials / 10
    # one generic search per kernel, before its first build
    searches = [e for e in events if e[0] != "miss"]
    assert [e[0] for e in searches].count("generic") == len(kernels)
    assert all(e[0] != "generic" or after == ("build",)
               for e, after in zip(searches, searches[1:]))


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


def _kernel(n, m):
    """The float kernel of a system with n primal and m multiplier
    coordinates: f = x, Phi_j = x_(j mod n), Y = R^m, B = I."""
    return _small_system(n, m, Polyhedron((), ()).with_dim(m)).float_kernel


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
    # of random-enlp pool seed 1, compiled or generic, evaluated in full by
    # the reference: every trial the search rejected has a full |R|^2 not
    # below the current one (at the iterate, equal to it), the one it
    # returned is below it and is the reference's to the last bit, and
    # each is counted by the first rule that rejects it in the compiled
    # search's order: the iterate, the running sum after r1, or the full
    # sum.
    monkeypatch.setattr(probe, "_WARMUP", 0)
    searches = []
    line_search = FloatKernel.line_search

    def recorded(self, *args):
        out = line_search(self, *args)
        searches.append((self, args, out))
        return out

    monkeypatch.setattr(FloatKernel, "line_search", recorded)
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(doc) for _, doc in random_enlp_docs(1, 5)]
    systems = {}
    for pf in files:
        analyze_problem(pf, probe=True)
        system = _system(pf)
        systems[system.float_kernel] = system
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
    # active set) and Y = R^m_+: the generic `residual` and the compiled
    # search (its first trial, along the step times 2^-29) reject a trial
    # exactly when the reference's full |R|^2 is not below the current
    # one, and what they accept is the reference's to the last bit.
    rng = random.Random(17)
    last = probe._TRIALS - 1
    damp = math.ldexp(1.0, -last)
    counts = {"accepted": 0, "rejected": 0, "nonfinite": 0}
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            orthant = Polyhedron([[-int(i == j) for j in range(m)]
                                  for i in range(m)], [0] * m)
            for poly_y in (Polyhedron((), ()).with_dim(m), orthant):
                system = _small_system(n, m, poly_y)
                kernel = system.float_kernel
                for _ in range(40):  # reach the pieces, then compile
                    kernel.residual([rng.uniform(-1, 1) for _ in range(n)],
                                    [rng.uniform(-1, 1) for _ in range(m)],
                                    [0.0] * n, [0.0] * m)
                kernel._build()
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
                        if xn + ln == a:
                            continue  # the search ends at the iterate
                        # the first trial along damp * h is the one at
                        # damp 2^-29 along h: 1.0 * (damp * h) is damp * h
                        i, best = kernel.compiled(
                            a[:n], a[n:], [damp * v for v in h], p1, p2, cur)
                        assert (best is not None and i == 1) is accept
                        if accept:
                            assert repr((best[0], best[1], best[3], best[4])) \
                                == repr((xn, ln, r, rsq))
                        counts["accepted" if accept else "rejected"] += 1
    assert (counts["accepted"] > 1500 and counts["rejected"] > 4000
            and counts["nonfinite"] > 300), counts


def test_import_leaves_numpy_unloaded():
    # no plqstab module imports numpy, and a kernel's first build imports
    # the trial template
    src = os.path.dirname(os.path.dirname(plqstab.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, plqstab; print('numpy' in sys.modules, "
         "'plqstab.trialsource' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stdout) == (0, "False False\n")


def _compiled_sources(monkeypatch, compiler="compile_search"):
    """The source lines of every search function (or, with compiler
    "compile_step", step function) compiled from here on."""
    sources = []
    compile_function = getattr(trialsource, compiler)

    def recorded(lines, consts, bound):
        sources.append(lines)
        return compile_function(lines, consts, bound)

    monkeypatch.setattr(trialsource, compiler, recorded)
    return sources


_TEMPLATE_NAMES = re.compile(
    r"[xlvzucyraheqok]\d+|w\d+_\d+|make|search|x|lam|step|i|p1|p2|cur|"
    r"K|ZERO|DAMPS|enumerate|damp|J|s|sq|PROX|P")
_STEP_TEMPLATE_NAMES = re.compile(
    r"[xlvkby]\d+|[wdgnsa]\d+_\d+|make|step|x|lam|values|pj|r|K|ZERO|abs|"
    r"MIN_NORM|[tupqe]")


def test_compiled_source_holds_only_the_template(monkeypatch):
    # Every search and step function the corpus and random-enlp pool seed
    # 1 compile with no warm-up, and those of a file with coefficients of
    # its own: their tokens are template names, keywords, operators and
    # integer literals (indices and the trial cap), so no float and no
    # text of the problem file reaches `compile`.
    monkeypatch.setattr(probe, "_WARMUP", 0)
    searches = _compiled_sources(monkeypatch)
    steps = _compiled_sources(monkeypatch, "compile_step")
    doc = json.loads(open(corpus_path("example_3_3"), encoding="utf-8").read())
    doc["f"] = ["-31415926/27182818*x1 - 1/7*x1^3"]
    files = [parse_problem_doc(doc)]
    files += [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(d) for _, d in random_enlp_docs(1, 5)]
    for pf in files:
        analyze_problem(pf, probe=True)
    assert len(searches) >= len(files) and len(steps) == len(files)
    layout = {tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    for sources, names in ((searches, _TEMPLATE_NAMES),
                           (steps, _STEP_TEMPLATE_NAMES)):
        for lines in sources:
            text = "\n".join(lines) + "\n"
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.type == tokenize.NUMBER:
                    assert tok.string.isdigit(), tok
                elif tok.type == tokenize.NAME:
                    assert (keyword.iskeyword(tok.string)
                            or names.fullmatch(tok.string)), tok
                else:
                    assert tok.type in layout, tok
            assert "31415926" not in text and "27182818" not in text


def test_a_thousand_term_polynomial_compiles(monkeypatch):
    # f_1 has 1,035 terms, every x1^a x2^b with a + b <= 44: one statement
    # per addition compiles where one nested sum would exhaust the
    # compiler's recursion.  The solves match the reference bit for bit.
    monkeypatch.setattr(probe, "_WARMUP", 0)
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
    # A kernel whose polynomials (8 terms) and r1 (n m = 6 lines) alone
    # pass the cap never compiles.  One whose scan grows past it keeps
    # its last function, a prefix of the scan, and its solves stay the
    # reference's.  example_3_3's step function has 86 lines and its
    # search functions 69, then 101: under a cap of 85 the kernel keeps
    # the generic step beside its compiled search, and under 86 it
    # compiles the step once, at the search's first build.  The pieces
    # it meets after that go through `prox_float` inside the kernel's
    # last search function: no generic search runs after the build.
    monkeypatch.setattr(probe, "_MAX_LINES", 13)
    assert _kernel(2, 3).warmup == math.inf
    monkeypatch.setattr(probe, "_MAX_LINES", 14)
    assert _kernel(2, 3).warmup == probe._WARMUP
    for cap, step_lines in ((75, []), (85, []), (86, [86])):
        monkeypatch.setattr(probe, "_MAX_LINES", cap)
        monkeypatch.setattr(probe, "_WARMUP", 0)
        searches = _compiled_sources(monkeypatch)
        steps = _compiled_sources(monkeypatch, "compile_step")
        events = _search_events(monkeypatch)
        pf = parse_problem_file(corpus_path("example_3_3"))
        calls = _probe_solves(monkeypatch, [(pf, None)])
        kernel = calls[0][0].float_kernel
        assert [len(lines) for lines in searches] == [69]
        assert [len(lines) for lines in steps] == step_lines
        assert kernel.compiled and kernel.warmup == math.inf
        assert (kernel.compiled_step is not None) is bool(step_lines)
        assert events[:2] == [("generic", 1, True), ("build",)]
        assert {e[0] for e in events[2:]} == {"compiled", "miss"}
        assert events.count(("miss",)) >= 10
        assert len(kernel.penalty._float_jacs) > kernel.built_from[1]
        for system, args, kwargs, result in calls:
            expected = newton_reference.solve_perturbed(system, *args,
                                                        **kwargs)
            assert repr(result) == repr(expected)


def _search_events(monkeypatch):
    """The line-search events from here on, in order: ("generic", trials,
    found) for each search the generic way, ("compiled", trials, found)
    for each call of a search function, ("miss",) for each call of
    `prox_float` from inside one (before that call's event), and
    ("build",) for each search function compiled."""
    events = []
    compile_search = trialsource.compile_search
    line_search = FloatKernel.line_search
    prox_miss = FloatKernel._prox_miss

    def built(lines, consts, prox):
        search = compile_search(lines, consts, prox)
        events.append(("build",))

        @functools.wraps(search)
        def recorded(*args):
            trials, best = search(*args)
            events.append(("compiled", trials, best is not None))
            return trials, best

        return recorded

    def searched(self, *args):
        if self.compiled is not None:
            return line_search(self, *args)
        events.append(None)
        k = len(events) - 1
        trials, best = line_search(self, *args)
        events[k] = ("generic", trials, best is not None)
        return trials, best

    def missed(self, v):
        events.append(("miss",))
        return prox_miss(self, v)

    monkeypatch.setattr(trialsource, "compile_search", built)
    monkeypatch.setattr(FloatKernel, "line_search", searched)
    monkeypatch.setattr(FloatKernel, "_prox_miss", missed)
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
    # start, and no generic trial.  The first solve's search runs the
    # generic way, and the kernel compiles after it.
    monkeypatch.setattr(probe, "_WARMUP", 0)
    events = _search_events(monkeypatch)
    system = _far_step_system()
    args = ([0.0, 0.0], [0.0, 0.0], ([1e-12, 0.0], [0.0, 0.0]))
    for first in (True, False):
        events.clear()
        result = _solve_both(system, *args)
        assert (result.reason, result.iterations, result.evaluations) == (
            "no_descent", 1, 31)
        assert events == ([("generic", 30, False), ("build",)] if first
                          else [("compiled", 30, False)])


def test_an_overflowing_trial_is_rejected(monkeypatch):
    # The first trial of the far step multiplies x1 ~ -5e11 out to its
    # 30th power, which overflows, so its |R|^2 is inf: the compiled
    # search rejects it itself and backtracks, rejects every later trial
    # too, and the solve ends as "no_descent", not "overflow", as the
    # reference's.
    monkeypatch.setattr(probe, "_WARMUP", 0)
    events = _search_events(monkeypatch)
    system = _far_step_system(overflow=True)
    _solve_both(system, [0.0, 0.0], [0.0, 0.0], ([0.5, 0.0], [0.0, 0.0]))
    kernel = system.float_kernel
    assert kernel.compiled
    x, lam, p = [1e-12, 0.0], [0.0, 0.0], [0.0, 0.0]
    values, r, rsq, pj = kernel.residual(x, lam, p, p)
    step = kernel.step(x, lam, values, pj, r)
    first = [a + b for a, b in zip(x, step)]
    assert newton_reference.float_residual(system, p, p, first, lam)[1] \
        == math.inf
    events.clear()
    result = _solve_both(system, p, p, (x, lam))
    assert (result.reason, result.iterations, result.evaluations) == (
        "no_descent", 1, 31)
    assert events == [("compiled", 30, False)]


def test_overflow_ends_a_solve_at_the_start_or_at_the_newton_matrix(
        monkeypatch):
    # "overflow" names a start whose |R|^2 is not finite (f_1 = x1^2 + 1
    # at x1 = 1e200), or a Newton matrix that is not (Phi = 10^300 x1^2,
    # whose Hessian times lam = 1e10 overflows while R stays finite).  A
    # Hessian whose lam_i is 0 is skipped even where it overflows (Phi =
    # 22 10^306 x1^3 at x1 = 1.5, lam = 0, with Phi and DPhi finite), and
    # the solve takes its step.  At the default warm-up the generic step
    # decides; with no warm-up a first solve from x1 = lam = 0 compiles
    # the kernel, and the compiled step decides, in the one call of the
    # solve.
    x1 = Polynomial.variable(1, 0)
    for warmup in (probe._WARMUP, 0):
        monkeypatch.setattr(probe, "_WARMUP", warmup)
        step_calls = _step_calls(monkeypatch)
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
            if not warmup:
                _solve_both(system, [1e-3], [0.0], ([0.0], [0.0]))  # compiles
            kernel = system.float_kernel
            assert (kernel.compiled_step is None) is bool(warmup)
            before = step_calls.get(kernel.compiled_step, 0)
            result = _solve_both(system, [1e-3], [0.0], start)
            assert (result.reason, result.iterations,
                    result.evaluations) == expected
            assert step_calls.get(kernel.compiled_step, 0) == (
                before + (not warmup))


def test_compiled_search_finishes_every_trial_and_rebuilds_between_searches(
        monkeypatch):
    # Seeded solves on fresh systems whose prox argument crosses the
    # orthants of Y = R^2_+.  After a kernel's first build every search
    # runs in its search function, none the generic way.  A trial in a
    # piece without a cached Jacobian calls `prox_float` inside the
    # function, which goes on with that trial and the later ones; a
    # rebuild comes right after a search with such a call, never inside
    # one.  Every solve is the reference's.
    monkeypatch.setattr(probe, "_WARMUP", 0)
    events = _search_events(monkeypatch)
    rng = random.Random(2)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    rebuilt = missed = went_on = 0
    for _ in range(30):
        events.clear()
        system = VarSystem(
            PolyMap([x1 * x1 + Polynomial.constant(2, 1), x2 - x1]),
            PolyMap([x2 + x1, x2 - x1 - x1]), quad_penalty_2d())
        for _ in range(3):
            start = ([rng.uniform(-1, 1) for _ in range(2)],
                     [rng.uniform(-1, 1) for _ in range(2)])
            _solve_both(system, [rng.uniform(-1, 1) for _ in range(2)],
                        [rng.uniform(-1, 1) for _ in range(2)], start)
        first = events.index(("build",))
        assert events[first - 1][0] == "generic"
        assert all(e[0] in ("compiled", "miss", "build")
                   for e in events[first + 1:])
        misses = 0
        for k in range(first + 1, len(events)):
            if events[k] == ("miss",):
                misses += 1
            elif events[k] == ("build",):
                assert events[k - 1][0] == "compiled"
                assert events[k - 2] == ("miss",)
                rebuilt += 1
            else:
                # a second call in one search: the trial of the first one
                # was finished, rejected, and the search went on
                missed += misses > 0
                went_on += misses > 1
                misses = 0
    assert rebuilt >= 30 and missed >= rebuilt and went_on >= 5


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
    on: the start's and one per generic trial."""
    calls = []
    residual = FloatKernel.residual

    def counted(self, *args):
        calls.append(None)
        return residual(self, *args)

    monkeypatch.setattr(FloatKernel, "residual", counted)
    return calls


def test_a_zero_step_evaluates_no_trial(monkeypatch):
    # The first trial of a zero step is the iterate, so the search ends
    # there, generic or compiled, with no trial evaluated and no residual
    # but the start's; its 30 trials still count, as the reference's.
    events = _search_events(monkeypatch)
    residuals = _count_residuals(monkeypatch)
    zero_step = ([0.0], [0.0], ([0.0], [1.0]))
    for compiled in (False, True):
        system = _zero_step_system()
        if compiled:
            monkeypatch.setattr(probe, "_WARMUP", 0)
            _solve_both(system, [0.0], [0.0], ([0.5], [1.0]))  # compiles
            assert system.float_kernel.compiled
        events.clear()
        residuals.clear()
        result = _solve_both(system, *zero_step)
        assert (result.reason, result.iterations, result.evaluations) == (
            "no_descent", 1, 31)
        assert events == [("compiled" if compiled else "generic", 30, False)]
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
    # where the search ends with 30 trials counted, as the reference's.
    # Generic, where the search evaluates the three trials, then compiled,
    # where one call rejects them after their r1 and stops at the
    # iterate.
    events = _search_events(monkeypatch)
    residuals = _count_residuals(monkeypatch)
    x, lam, step = [1.0], [1.0], [math.ldexp(1.0, -50), math.ldexp(1.0, -51)]
    for compiled in (False, True):
        system = _zero_step_system()
        if compiled:
            monkeypatch.setattr(probe, "_WARMUP", 0)
            _solve_both(system, [0.0], [0.0], ([0.5], [1.0]))  # compiles
            assert system.float_kernel.compiled
        kernel = system.float_kernel
        rsq = kernel.residual(x, lam, [0.0], [0.0])[2]
        expected = _reference_search(system, x, lam, step, [0.0], [0.0], rsq)
        assert expected == (30, None) and rsq == 4.0
        events.clear()
        residuals.clear()
        out = kernel.line_search(x, lam, step, [0.0], [0.0], rsq)
        assert out == expected
        assert events == [("compiled" if compiled else "generic", 30, False)]
        assert len(residuals) == (0 if compiled else 3)


def _exact(rows):
    return RatMatrix([[rat(v) for v in row] for row in rows])


def _close(step, exact):
    """Whether the float step is within 1e-9 (relative to 1 + |exact|) of
    the exact one in every entry."""
    scale = 1 + max(abs(float(v)) for v in exact)
    return all(abs(a - float(b)) <= 1e-9 * scale for a, b in zip(step, exact))


def _compiled_lu(size):
    """The compiled step's LU (`trialsource._lu_lines`) alone, as the
    function lu(rows, rhs): the solution as a list, or, where a pivot is
    exactly zero, the pair (rows, rhs) that it hands to the minimum-norm
    step, as a tuple."""
    grid = [["m%d_%d" % (i, j) for j in range(size)] for i in range(size)]
    body = ["%s = rows[%d][%d]" % (name, i, j)
            for i, row in enumerate(grid) for j, name in enumerate(row)]
    body += ["b%d = rhs[%d]" % (i, i) for i in range(size)]
    body += trialsource._lu_lines(grid, "rhs")
    lines = trialsource._make_lines("lu(rows, rhs)", body, [])
    return trialsource.compile_step(lines, [], lambda a, b: (a, b))


def test_newton_step_is_lu_or_the_minimum_norm_step():
    # Nonsingular matrices with rows scaled over ten decades: the step is
    # the reference's elimination to the bit and the exact solution to
    # within rounding.  Matrices whose elimination meets an exactly zero
    # pivot get the minimum-norm least-squares step, which is
    # pinv(A) b = pinv(A^T A) A^T b to within rounding; so does every
    # random rank-deficient product of integer matrices.  The rank rule
    # drops |R_kk| <= N 2^-52 |R_00|.  The compiled step's LU gives the
    # reference's bits on the same matrices, and hands a matrix with a
    # zero pivot on untouched, with the right-hand side.
    rng = random.Random(7)
    for size in (2, 3, 4, 5, 7):
        lu = _compiled_lu(size)
        for _ in range(40):
            rows = [[rng.uniform(-1, 1) * 10.0 ** e for _ in range(size)]
                    for e in [rng.randint(-5, 5) for _ in range(size)]]
            r = [rng.uniform(-1, 1) for _ in range(size)]
            rhs = [-v for v in r]
            step = probe._lu_solve(rows, rhs)
            assert repr(step) == repr(newton_reference.lu_solve(rows, rhs))
            assert repr(lu(rows, rhs)) == repr(step)
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
            assert repr(lu(rows, [-v for v in r])) == repr(
                (rows, [-v for v in r]) if step is None else step)
            assert _close(probe._min_norm_step(rows, [-v for v in r]), exact)
    assert probe._min_norm_step([[1.0, 0.0], [0.0, 1e-17]],
                                [1.0, 1.0]) == [1.0, 0.0]
    assert probe._min_norm_step([[2.0, 0.0], [0.0, 1e-15]],
                                [2.0, 1e-15]) == [1.0, 1.0]


def test_compiled_lu_on_ties_signed_zeros_nan_and_zero_pivots(monkeypatch):
    # Pivot ties, +x against -x among them, go to the first row of largest
    # |a_ik|, as `max` picks it; a column whose candidates are all zero,
    # -0.0 among them, at the start or left -0.0 by elimination (-0.0 -
    # 0.5 * 0.0), is a zero pivot, where the compiled LU hands the rows
    # on untouched; and a nan that first appears in elimination, inf -
    # 0.5 inf of two overflowed finite sums, runs on as in the reference.
    # Each is the reference's and the generic `_lu_solve`'s, bit for bit.
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
        got = _compiled_lu(size)(rows, rhs)
        expected = newton_reference.lu_solve(rows, rhs)
        assert repr(probe._lu_solve(rows, rhs)) == repr(expected)
        if expected is None:
            assert repr(got) == repr((rows, rhs))
            counts["zero"] += 1
        else:
            assert repr(got) == repr(expected)
            counts["solved"] += 1
            counts["nan"] += any(map(math.isnan, got))
    assert repr(_compiled_lu(3)(nan_case, [1.0, 1.0, 1.0])) == repr(
        [math.nan] * 3)
    assert counts["solved"] > 250 and counts["zero"] > 75, counts
    # Through a kernel: at x1 = 0, lam = 1 the zero-step system's Newton
    # matrix is 0 (with -J = -0.0), and the compiled step hands exactly
    # the generic matrix and -R to `_min_norm_step`, whose step it
    # returns.
    seen = []
    min_norm_step = probe._min_norm_step

    def recorded(a, b):
        seen.append((a, b))
        return min_norm_step(a, b)

    monkeypatch.setattr(probe, "_min_norm_step", recorded)
    monkeypatch.setattr(probe, "_WARMUP", 0)
    system = _zero_step_system()
    _solve_both(system, [0.0], [0.0], ([0.5], [1.0]))  # compiles
    kernel = system.float_kernel
    assert kernel.compiled_step is not None
    x, lam = [0.0], [1.0]
    values, r, _, pj = kernel.residual(x, lam, [0.0], [0.0])
    seen.clear()
    step = kernel.step(x, lam, values, pj, r)
    jmat = kernel.newton_matrix(x, lam, values, pj)
    assert repr(seen) == repr([(jmat, [-v for v in r])])
    assert repr(jmat) == repr([[0.0, 0.0], [0.0, -0.0]])
    assert repr(step) == repr(min_norm_step(jmat, [-v for v in r]))
