"""The float Newton probe against its numpy reference, bit for bit, and
the soundness of the line search's rejection bound."""

import io
import json
import keyword
import math
import os
import random
import re
import struct
import subprocess
import sys
import tokenize

import numpy as np

import newton_reference
import plqstab
import plqstab.probe as probe
import plqstab.trialsource as trialsource
from plqstab import (PlqPenalty, PolyMap, Polyhedron, Polynomial, VarSystem,
                     analyze_problem, corpus_names, corpus_path, identity,
                     parse_problem_file)
from plqstab.linalg import RatMatrix
from plqstab.problemfile import parse_problem_doc
from plqstab.qp import _subsets
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
    monkeypatch.setattr(probe, "_WARMUP", 0)
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


_FIRST_BLOCKS = {}


def _compiled_first_block(n, m):
    """The compiled search's first-block rejection alone, compiled into
    (values, mult, p1, p2, floor) -> (whether pre (1 - C) reaches the
    floor with every A_i below BIG, whether the rule with its CAP guards
    on z and u rejects)."""
    if (n, m) not in _FIRST_BLOCKS:
        body = ["v%d = values[%d]" % (i, i) for i in range(n + m + m * n)]
        body += ["l%d = mult[%d]" % (j, j) for j in range(m)]
        body += trialsource.p1_lines(n)
        for j in range(m):
            body += ["z%d = v%d + p2[%d]" % (j, n + j, j),
                     "u%d = l%d + z%d" % (j, j, j)]
        body += trialsource.first_block_lines(n, m)
        body.append("return ok and pre * SHRINK >= floor, %s"
                    % trialsource.first_block_rejects(m))
        lines = ["def make(K):",
                 "    def first(values, mult, p1, p2, floor):"]
        lines += ["        " + line for line in body] + ["    return first"]
        _FIRST_BLOCKS[n, m] = trialsource.compile_search(lines, [])
    return _FIRST_BLOCKS[n, m]


def _replayed_trials(kernel, rnorm, args, out, tags):
    """The trials of one line search, (values, r2, lam, p1) each, as the
    generic path computes them (`parts`, then `rejects`), checked against
    the search's outcome `out` and against numpy's |R|, each counted in
    `tags` by the first rule that rejects it in the compiled search's
    order: "iterate" (the trial point is the iterate), "first block" (the
    bound's first block before the prox scan, where the prox offsets are
    capped), "bound" (`rejects`) or "numpy".  Every rule that applies is
    checked: at the iterate, numpy's |R| is `rnorm` to the bit and so is
    every later trial's; where the first block rejects, so does
    `rejects`; where `rejects` does, numpy's |R| is finite and at least
    `rnorm`.  The last trial, when the search returned it, is rejected by
    no rule and is the returned one to the last bit."""
    x, lam, step, p1, p2, _ = args
    trials, best = out
    floor = kernel.floor(rnorm)
    capped = trialsource.offsets_capped(kernel.penalty._prox_solver())
    first_block = _compiled_first_block(kernel.n, kernel.m)
    replayed = []
    at_iterate = False
    for i in range(trials):
        damp = math.ldexp(1.0, -i)
        xn = [a + damp * b for a, b in zip(x, step)]
        ln = [a + damp * b for a, b in zip(lam, step[kernel.n:])]
        values, r2, pj = kernel.parts(xn, ln, p2)
        rejected = kernel.rejects(values, r2, ln, p1, floor)
        with kernel.np.errstate(over="ignore", invalid="ignore"):
            r, norm, _ = kernel.residual(values, r2, ln, p1)
        early = capped and first_block(values, ln, p1, p2, floor)[1]
        assert not early or rejected
        assert not rejected or (math.isfinite(norm) and norm >= rnorm)
        at = xn + ln == x + lam
        assert at or not at_iterate  # every smaller damp lands there too
        at_iterate = at
        assert not at or norm == rnorm
        if best is not None and i == trials - 1:
            assert not (at_iterate or early or rejected)
            assert norm < rnorm or not math.isfinite(norm)
            assert repr((xn, ln, values, r.tolist(), pj[0].tolist())) == repr(
                (best[0], best[1], best[2], best[3].tolist(),
                 best[6][0].tolist()))
        else:
            assert math.isfinite(norm) and norm >= rnorm
        tag = ("iterate" if at_iterate else "first block" if early
               else "bound" if rejected else "numpy")
        tags[tag] = tags.get(tag, 0) + 1
        replayed.append((values, r2, ln, p1, p2))
    return replayed


def test_rejection_is_sound_on_the_probe_trials(monkeypatch):
    # Every line-search trial of the default-grid probes of the corpus and
    # of random-enlp pool seed 1, compiled or generic, replayed the generic
    # way, decides as its search did, with each rule that rejects it
    # checked against numpy; every 5th, against the norm its solve
    # compared it with and against the norms around its own.
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
    trials, tags = [], {}
    for kernel, args, out in searches:
        rnorm = args[-1]
        trials += [(kernel, rnorm, trial)
                   for trial in _replayed_trials(kernel, rnorm, args, out,
                                                 tags)]
    assert len(trials) > 20000
    assert (tags["iterate"] > 500 and tags["first block"] > 10000
            and tags["bound"] > 5000 and tags["numpy"] > 1000), tags
    in_solve = rejected = early = 0
    for kernel, rnorm, (*trial, p2) in trials[::5]:
        in_solve += _check_rejections(kernel, *trial, [rnorm])
        norms = _norms_around(_norm(kernel, trial))
        rejected += _check_rejections(kernel, *trial, norms)
        early += _check_first_block(kernel, *trial, p2, norms)
    assert in_solve > 2000 and rejected > 10000 and early > 5000


def _check_first_block(kernel, values, r2, lam, p1, p2, norms):
    """Whenever the first block rejects the trial against a norm of
    `norms`, `rejects` does too.  Returns the number of such norms."""
    first_block = _compiled_first_block(kernel.n, kernel.m)
    early = 0
    for rnorm in norms:
        floor = kernel.floor(rnorm)
        if first_block(values, lam, p1, p2, floor)[1]:
            assert kernel.rejects(values, r2, lam, p1, floor), (
                values, r2, lam, p1, p2, rnorm)
            early += 1
    return early


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
    r"[xlvzucyrahqmokg]\d+|w\d+_\d+|make|search|x|lam|step|i|p1|p2|floor|"
    r"K|ZERO|BIG|C|SHRINK|CAP|DAMPS|damp|J|s|e|b|t|d|ok|pre|total|rejected|"
    r"abs|OverflowError")


def test_compiled_source_holds_only_the_template(monkeypatch):
    # Every search function the corpus and random-enlp pool seed 1
    # compile with no warm-up, and one of a file with coefficients of its
    # own: its tokens are template names, keywords, operators and integer
    # literals (indices, exponents and the trial cap), so no float and no
    # text of the problem file reaches `compile`.
    monkeypatch.setattr(probe, "_WARMUP", 0)
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
    # A kernel whose polynomials (8 terms) and bound (3 n m = 18 lines)
    # alone pass the cap never compiles.  One whose scan grows past it
    # keeps its last function, a prefix of the scan, and its solves stay
    # the reference's.
    monkeypatch.setattr(probe, "_MAX_LINES", 25)
    assert _kernel(2, 3).warmup == math.inf
    monkeypatch.setattr(probe, "_MAX_LINES", 26)
    assert _kernel(2, 3).warmup == probe._WARMUP
    monkeypatch.setattr(probe, "_MAX_LINES", 102)
    monkeypatch.setattr(probe, "_WARMUP", 0)
    sources = _compiled_sources(monkeypatch)
    pf = parse_problem_file(corpus_path("example_3_3"))
    calls = _probe_solves(monkeypatch, [(pf, None)])
    kernel = calls[0][0].float_kernel
    assert [len(lines) for lines in sources] == [91]
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
    monkeypatch.setattr(probe, "_WARMUP", 0)
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
    monkeypatch.setattr(probe, "_WARMUP", 0)
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
    # in the middle of a step).  The first block rejects some such trials
    # before their scan, so 30 systems give enough.  Every solve is the
    # reference's.
    monkeypatch.setattr(probe, "_WARMUP", 0)
    events = _search_events(monkeypatch)
    rng = random.Random(2)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    for _ in range(30):
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


def _zero_step_system():
    """f = x1^2 + 1, Phi = 0, Y = R_+ and B = 0.  At lam = 1 the prox
    argument is 1, where the piece's Jacobian is 0; at x1 = 0 the Newton
    matrix is then 0 and the least-squares step exactly zero, while
    |R| = 1."""
    x1 = Polynomial.variable(1, 0)
    penalty = PlqPenalty(Polyhedron([(-1,)], [0]), RatMatrix([(0,)]))
    return VarSystem(PolyMap([x1 * x1 + Polynomial.constant(1, 1)]),
                     PolyMap([Polynomial.constant(1, 0)]), penalty)


def _count_residuals(monkeypatch):
    """The list whose length counts numpy residuals from here on."""
    calls = []
    residual = FloatKernel.residual

    def counted(self, *args):
        calls.append(None)
        return residual(self, *args)

    monkeypatch.setattr(FloatKernel, "residual", counted)
    return calls


def test_a_zero_step_evaluates_no_trial(monkeypatch):
    # The first trial of a zero step is the iterate, so the search ends
    # there, generic or compiled, with no trial evaluated and no numpy
    # residual but the start's; its 30 trials still count, as the
    # reference's.  Without the rule the compiled search would have
    # returned trial 0 for numpy, since no bound rejects the iterate.
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
        assert events == ([("compiled", 0, 30, False)] if compiled else [])
        assert len(residuals) == 1


def _reference_search(system, x, lam, step, p1, p2, rnorm):
    """(trials, index of the trial returned or None) of the reference's
    line search from (x, lam) along `step`."""
    n = system.n
    args = [np.array(v, dtype=float) for v in (p1, p2, x, lam, step)]
    p1, p2, x, lam, step = args
    damp = 1.0
    for i in range(30):
        _, norm, _, _ = newton_reference.float_residual(
            system, p1, p2, x + damp * step[:n], lam + damp * step[n:])
        if norm < rnorm or not math.isfinite(norm):
            return i + 1, i
        damp /= 2
    return 30, None


def test_a_step_below_an_ulp_rounds_onto_the_iterate(monkeypatch):
    # From x1 = lam1 = 1 along (2^-50, 2^-51) the trials at damps 1, 1/2
    # and 1/4 move x1 by 4, 2 and 1 ulps (lam1 by 2, 1 and 0), |R| rises
    # and numpy rejects them; at 1/8 the trial rounds onto the iterate
    # (ties to even), where the search ends with 30 trials counted, as the
    # reference's.  Generic, then compiled.
    events = _search_events(monkeypatch)
    x, lam, step = [1.0], [1.0], [math.ldexp(1.0, -50), math.ldexp(1.0, -51)]
    for compiled in (False, True):
        system = _zero_step_system()
        if compiled:
            monkeypatch.setattr(probe, "_WARMUP", 0)
            _solve_both(system, [0.0], [0.0], ([0.5], [1.0]))  # compiles
            assert system.float_kernel.compiled
        kernel = system.float_kernel
        values, r2, _ = kernel.parts(x, lam, [0.0])
        _, rnorm, _ = kernel.residual(values, r2, lam, [0.0])
        expected = _reference_search(system, x, lam, step, [0.0], [0.0],
                                     rnorm)
        assert expected == (30, None) and rnorm == 2.0
        events.clear()
        out = kernel.line_search(x, lam, step, [0.0], [0.0], rnorm)
        assert out == expected
        assert events == ([("compiled", i, i, True) for i in range(3)]
                          + [("compiled", 3, 30, False)] if compiled else
                          [("generic", i, False) for i in range(3)])


def test_first_block_leaves_an_overflowing_trial_to_numpy(monkeypatch):
    # The far step of `_far_step_system` with Phi_1 = x2 + x1^20: at its
    # first trial f_1 is about 2.5e23, so the first block alone reaches
    # the floor of |R| = 1, but Phi_1 is about 1e234, past CAP, and r2
    # squared overflows numpy's |R|.  The compiled search hands the trial
    # to numpy, and the solve ends as "overflow", as the reference's.
    monkeypatch.setattr(probe, "_WARMUP", 0)
    events = _search_events(monkeypatch)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    system = VarSystem(
        PolyMap([x1 * x1 + Polynomial.constant(2, 1), x2]),
        PolyMap([x2 + Polynomial(2, {(20, 0): rat(1)}), x2]), quad_penalty_2d())
    _solve_both(system, [0.0, 0.0], [0.0, 0.0], ([0.5, 0.0], [0.0, 0.0]))
    kernel = system.float_kernel
    assert kernel.compiled and trialsource.offsets_capped(
        kernel.penalty._prox_solver())
    searches = []
    line_search = FloatKernel.line_search

    def recorded(self, *args):
        searches.append(args)
        return line_search(self, *args)

    monkeypatch.setattr(FloatKernel, "line_search", recorded)
    events.clear()
    result = _solve_both(system, [0.0, 0.0], [0.0, 0.0],
                         ([1e-12, 0.0], [0.0, 0.0]))
    assert (result.reason, result.iterations, result.evaluations) == (
        "overflow", 1, 2)
    assert events[0][:3] == ("compiled", 0, 0)
    [(x, lam, step, p1, p2, rnorm)] = searches
    xn = [a + b for a, b in zip(x, step)]
    ln = [a + b for a, b in zip(lam, step[2:])]
    values, r2, _ = kernel.parts(xn, ln, p2)
    first = _compiled_first_block(2, 2)(values, ln, p1, p2, kernel.floor(rnorm))
    assert first == (True, False) and values[2] > 1e200
    with np.errstate(over="ignore"):
        assert kernel.residual(values, r2, ln, p1)[1] == math.inf


def _max_offset(solver):
    """The largest |d_j| of y(c) = d - M c over every independent active
    set of the prox QP `solver`, exactly (`StrictQpSolver.piece`)."""
    best = 0
    for subset in _subsets(tuple(solver._ineq)):
        if solver._subset_solver(subset) is not None:
            best = max([best] + [abs(v) for v in solver.piece(subset)[1]])
    return best


def test_offsets_capped_bounds_every_active_sets_offset():
    # `trialsource.offsets_capped` may hold only where every active set's
    # exact offset is below 2^200.  On Y = {lam <= a}, B = 0, the offset is
    # a and the bound is sqrt(2 (1 + a^2)), within sqrt(2) of it: the
    # answer turns at the largest a with 2 (1 + a^2) < 2^400, just below
    # 2^199.5.  Then random penalties of up to 3 rational rows, each tight
    # or slack at a point scaled by 2^170 to 2^205, with random B; and two
    # nearly parallel rows whose vertex is 2^201 with right-hand sides of
    # 2^101 at most.
    cap = 2 ** 200
    turn = math.isqrt(2 ** 399 - 2)
    assert 2 * (1 + turn ** 2) < 2 ** 400 <= 2 * (1 + (turn + 1) ** 2)
    cases = [(PlqPenalty(Polyhedron([(1,)], [a]), RatMatrix([(0,)])), a)
             for a in (2 ** 150, 2 ** 199, turn, turn + 1, 3 * 2 ** 198,
                       2 ** 200 - 1, 2 ** 200, 2 ** 300)]
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randint(1, 3)
        scale = 2 ** rng.randint(170, 205)
        rows = [tuple(rat(rng.randint(-3, 3), rng.randint(1, 4))
                      for _ in range(m)) for _ in range(rng.randint(1, 3))]
        rows = [b for b in rows if any(b)] or [(rat(1),) * m]
        point = [scale * rat(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(m)]
        alpha = [vdot(b, point) + scale * rng.randint(0, 2) for b in rows]
        bmat = random_penalty(rng, m)[0].B
        cases.append((PlqPenalty(Polyhedron(rows, alpha).with_dim(m), bmat),
                      None))
    eps = rat(1, 2 ** 100)
    cases.append((PlqPenalty(Polyhedron([(1, 1), (1, 1 + eps)],
                                        [0, 2 ** 101]), identity(2)), None))
    outcomes = []
    for penalty, a in cases:
        solver = penalty._prox_solver()
        capped = trialsource.offsets_capped(solver)
        best = _max_offset(solver)
        assert not capped or best < cap, (penalty.Y, best)
        if a is not None:
            assert best == a and capped is (a <= turn)
        outcomes.append((capped, best >= cap))
    assert outcomes[-1] == (False, True)
    assert {(True, False), (False, True), (False, False)} <= set(outcomes)


def _far_set_system():
    """f = x1^2 + 1, Phi = 0, Y = {lam >= 2^600} and B = 0: prox(u) =
    min(u - 2^600, 0), so the prox offset 2^600 is far past the cap of
    `trialsource.offsets_capped`, and r2 = 2^600 - lam wherever lam is
    below 2^600."""
    x1 = Polynomial.variable(1, 0)
    penalty = PlqPenalty(Polyhedron([(-1,)], [-2 ** 600]), RatMatrix([(0,)]))
    return VarSystem(PolyMap([x1 * x1 + Polynomial.constant(1, 1)]),
                     PolyMap([Polynomial.constant(1, 0)]), penalty)


def test_uncapped_offsets_compile_no_first_block_rejection(monkeypatch):
    # From x1 = 1e-12, lam = 2^600 (|R| = 1) along (-5e11, -2^600), the
    # first trial has f_1 about 2.5e23, so its first block reaches the
    # floor with z = u = 0 well inside CAP, while its prox value is -2^600
    # and r2 squared overflows numpy's |R|.  Only the offset bound rules
    # the early rejection out here: no search function of this system
    # holds it, the trial reaches numpy, and the search returns it with
    # |R| = inf, as the reference's line search does.
    first_block = _compiled_first_block(1, 1)  # not a search function
    monkeypatch.setattr(probe, "_WARMUP", 0)
    sources = _compiled_sources(monkeypatch)
    system = _far_set_system()
    _solve_both(system, [0.0], [0.0], ([0.5], [2.0 ** 600]))  # compiles
    kernel = system.float_kernel
    assert kernel.compiled
    assert not trialsource.offsets_capped(kernel.penalty._prox_solver())
    x, lam, step = [1e-12], [2.0 ** 600], [-5e11, -2.0 ** 600]
    values, r2, _ = kernel.parts(x, lam, [0.0])
    _, rnorm, _ = kernel.residual(values, r2, lam, [0.0])
    assert rnorm == 1.0
    ln = [lam[0] + step[1]]
    values, r2, _ = kernel.parts([x[0] + step[0]], ln, [0.0])
    first = first_block(values, ln, [0.0], [0.0], kernel.floor(rnorm))
    assert first == (True, True) and r2 == [2.0 ** 600]
    with np.errstate(over="ignore"):
        expected = _reference_search(system, x, lam, step, [0.0], [0.0],
                                     rnorm)
        trials, best = kernel.line_search(x, lam, step, [0.0], [0.0], rnorm)
    assert expected == (1, 0) and (trials, best[4]) == (1, math.inf)
    assert sources and not any(
        trialsource.first_block_rejects(1) in "\n".join(lines)
        for lines in sources)


def test_a_first_power_is_the_float_itself():
    # The compiled search writes x_j for x_j ** 1 (`trialsource._value_lines`):
    # the bits agree on +-0, subnormals, +-max, +-inf, nans with and without
    # a payload, and random floats of every exponent.
    nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8DEADBEEF0001))[0]
    values = [0.0, 5e-324, sys.float_info.min / 3, sys.float_info.min, 1.0,
              math.nextafter(1.0, 0), 0.1, 3.5, sys.float_info.max, math.inf,
              math.nan, nan_payload]
    rng = random.Random(5)
    values += [math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1074, 1024))
               for _ in range(20000)]
    for value in values:
        for v in (value, -value):
            assert struct.pack("<d", v ** 1) == struct.pack("<d", v)


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
