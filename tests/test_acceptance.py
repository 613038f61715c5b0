"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import random
import subprocess
import sys

import numpy as np

from plqstab import (PlqPenalty, analyze_problem, classify_multiplier,
                     corpus_names, corpus_path, critical_ray_probe,
                     error_bound_residuals, parse_problem_file, rat,
                     trace_is_divergent, uniqueness_report)
from plqstab.rational import vadd, vdot
from support import (ball_sample, parabola_enlp, quad_cost_enlp,
                     random_enlp_with_kkt, random_penalty,
                     random_rational_vec, random_varsys_with_solution,
                     smooth_enlp)


def _ok(name, detail=""):
    print("PASS %s%s" % (name, (" - " + detail) if detail else ""))


def test_criterion_01_halfline_embeddings_classified_exactly():
    """Unique zero multiplier: noncritical for the full-rank residual,
    critical with a last-coordinate witness after the rank drop."""
    pf_a = parse_problem_file(corpus_path("example_3_2a"))
    doc_a, _ = analyze_problem(pf_a)
    point = doc_a["points"][0]
    assert point["multipliers"]["singleton"] is True
    assert point["multipliers"]["representative"] == ["0", "0"]
    assert doc_a["verdicts"] == ["noncritical"]

    pf_b = parse_problem_file(corpus_path("example_3_2b"))
    doc_b, _ = analyze_problem(pf_b)
    assert doc_b["verdicts"] == ["critical"]
    witness = doc_b["witnesses"][0]
    n = pf_b.n
    assert all(witness["xi"][j] == "0" for j in range(n - 1))
    assert witness["xi"][n - 1] != "0"
    _ok("criterion 1", "singleton multiplier set; exact witness shape")


def test_criterion_02_parabola_critical_exactly_at_one_half():
    system = parse_problem_file(corpus_path("example_3_3")).problem
    for t, want in [(rat(0), False), (rat(1, 4), False), (rat(1), False),
                    (rat(10), False), (rat(1, 2), True)]:
        verdict = classify_multiplier(system, (0,), (0, t))
        assert verdict.critical == want, t
    _ok("criterion 2", "critical exactly at the midpoint multiplier")


def test_criterion_03_flat_system_uniqueness_consistency():
    system = parse_problem_file(corpus_path("example_4_4")).problem
    rep = uniqueness_report(system, (0, 0), (0, 0))
    assert rep.singleton is False
    assert rep.dqc is False
    assert rep.consistent is True
    _ok("criterion 3", "singleton=false dqc=false consistent")


def test_criterion_04_quadratic_growth_at_certified_minimum():
    problem = parse_problem_file(corpus_path("example_6_2")).problem
    rep = problem.robust_ic_report((0, 0), (0, 0))
    assert rep.sosc is True and rep.noncritical is True and rep.robust_ic is True
    rng = random.Random(211)
    base = problem.objective((0, 0))
    ell = None
    samples = 0
    while samples < 1000:
        x = ball_sample(rng, 2)           # |x| <= 1e-2
        if all(v == 0 for v in x):
            continue
        val = problem.objective(x)
        ratio = (val.value - base.value) / vdot(x, x)
        ell = ratio if ell is None else min(ell, ratio)
        samples += 1
    assert float(ell) > 1e-12
    _ok("criterion 4", "growth constant %.3f over 1000 samples" % float(ell))


def _theta_float_bruteforce(pen, u):
    """Independent float oracle: active-set brute force by least squares."""
    yb = [[float(v) for v in row] for row in pen.Y.b]
    al = [float(a) for a in pen.Y.alpha]
    bm = np.array([[float(v) for v in r] for r in pen.B.rows], dtype=float)
    uf = np.array([float(v) for v in u])
    m = pen.m
    best = None
    idx = range(len(yb))
    from itertools import combinations

    for k in range(len(yb) + 1):
        for subset in combinations(idx, k):
            arows = np.array([yb[i] for i in subset], dtype=float) \
                if subset else np.zeros((0, m))
            kkt = np.zeros((m + len(subset), m + len(subset)))
            kkt[:m, :m] = bm
            if subset:
                kkt[:m, m:] = arows.T
                kkt[m:, :m] = arows
            rhs = np.concatenate([uf, np.array([al[i] for i in subset])])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if np.linalg.norm(kkt @ sol - rhs) > 1e-9:
                continue
            y = sol[:m]
            mus = sol[m:]
            if subset and (mus < -1e-9).any():
                continue
            if any(np.dot(yb[i], y) > al[i] + 1e-9 for i in idx):
                continue
            val = float(uf @ y - 0.5 * y @ bm @ y)
            if best is None or val > best:
                best = val
    return best


def test_criterion_05_theta_matches_float_oracle_on_50_instances():
    rng = random.Random(223)
    finite = infinite = 0
    for _ in range(50):
        pen, _ = random_penalty(rng, rng.randint(1, 3))
        u = random_rational_vec(rng, pen.m, num=3, den=3)
        val = pen.theta(u)
        assert val.is_finite == pen.domain_cone.contains(u)
        if val.is_finite:
            oracle = _theta_float_bruteforce(pen, u)
            assert oracle is not None
            assert abs(float(val.value) - oracle) <= 1e-8
            finite += 1
        else:
            infinite += 1
    _ok("criterion 5", "%d finite matches, %d infinite domain-consistent"
        % (finite, infinite))


def test_criterion_06_second_subderivative_difference_quotients():
    rng = random.Random(227)
    graph_points = 0
    attempts = 0
    while graph_points < 20 and attempts < 400:
        attempts += 1
        pen, lam = random_penalty(rng, rng.randint(1, 2), p_max=2)
        tight = pen.Y.tight_rows(lam)
        z = list(pen.B.matvec(lam))
        for i in sorted(tight):
            beta = rat(rng.randint(0, 2))
            for j in range(pen.m):
                z[j] += beta * pen.Y.b[i][j]
        zbar = tuple(z)
        kcone = pen.critical_cone_at(zbar, lam)
        dom = PlqPenalty(kcone, pen.B).domain_cone
        dirs = []
        for _ in range(60):
            w = random_rational_vec(rng, pen.m, num=3, den=3)
            if dom.rows and not all(vdot(row, w) < 0 for row in dom.rows):
                continue
            dirs.append(w)
            if len(dirs) == 10:
                break
        if len(dirs) < 10:
            continue
        graph_points += 1
        for w in dirs:
            ssd = pen.second_subderivative(zbar, lam, w)
            assert ssd.is_finite
            best = None
            for k in range(3, 13):
                q = pen.difference_quotient(zbar, lam, w, rat(1, 2 ** k))
                if q.is_finite and (best is None or q.value < best):
                    best = q.value
            assert best is not None
            assert abs(float(best) - float(ssd.value)) <= 1e-5
    assert graph_points == 20
    _ok("criterion 6", "20 graph points x 10 interior directions")


def test_criterion_07_uniqueness_equivalence_randomized():
    rng = random.Random(229)
    for i in range(50):
        system, xbar, lam = random_varsys_with_solution(rng, n_max=4, m_max=4,
                                                        p_max=4)
        rep = uniqueness_report(system, xbar, lam)
        assert rep.singleton == rep.dqc, "instance %d" % i
    _ok("criterion 7", "singleton iff dual qualification on 50 instances")


def test_criterion_08_error_bound_dichotomy():
    rng = random.Random(233)
    noncritical = [
        (parse_problem_file(corpus_path("example_3_2a")).problem,
         (rat(0), rat(0)), (rat(0), rat(0))),
        (parse_problem_file(corpus_path("example_3_3")).problem,
         (rat(0),), (rat(0), rat(1))),
        (quad_cost_enlp(2), (rat(0), rat(0)), (rat(0), rat(0))),
        (smooth_enlp(), (rat(0),), (rat(0),)),
    ]
    for system, xbar, lam in noncritical:
        assert not classify_multiplier(system, xbar, lam).critical
        worst = 0.0
        for _ in range(1000):
            dx = ball_sample(rng, system.n)
            dl = ball_sample(rng, system.m)
            lhs, _, rhs4 = error_bound_residuals(system, xbar, lam,
                                                 vadd(xbar, dx), vadd(lam, dl))
            if lhs == 0.0:
                continue
            assert rhs4 > 0.0
            worst = max(worst, lhs / rhs4)
        assert math.isfinite(worst)

    critical = [
        (parse_problem_file(corpus_path("example_3_3")).problem,
         (rat(0),), (rat(0), rat(1, 2))),
        (parse_problem_file(corpus_path("example_3_2b")).problem,
         (rat(0), rat(0)), (rat(0), rat(0))),
    ]
    for system, xbar, lam in critical:
        verdict = classify_multiplier(system, xbar, lam)
        trace = critical_ray_probe(system, xbar, lam, verdict,
                                   t_grid=[rat(1, 2 ** k)
                                           for k in range(1, 11)])
        assert trace_is_divergent(trace)
    _ok("criterion 8", "finite moduli at noncritical, divergence at critical")


def test_criterion_09_sufficiency_implies_noncriticality():
    goldens = [
        (quad_cost_enlp(2), (rat(0), rat(0)), (rat(0), rat(0))),
        (parabola_enlp(), (rat(0),), (rat(0), rat(1))),
        (smooth_enlp(), (rat(0),), (rat(0),)),
    ]
    rng = random.Random(239)
    randoms = [random_enlp_with_kkt(rng) for _ in range(50)]
    sosc_count = 0
    for problem, xbar, lam in goldens + randoms:
        if problem.sosc_holds(xbar, lam):
            sosc_count += 1
            verdict = classify_multiplier(problem, xbar, lam)
            assert not verdict.critical
    assert sosc_count >= 3
    _ok("criterion 9", "%d sufficient instances, all noncritical" % sosc_count)


def test_criterion_10_lipschitz_implies_isolated_calmness():
    smooth = smooth_enlp()
    assert smooth.lipschitz_like_skkt((0,), (0,))
    assert smooth.isolated_calmness_skkt((0,), (0,))
    parab = parabola_enlp()
    assert not parab.lipschitz_like_skkt((0,), (0, rat(1, 2)))
    assert not parab.isolated_calmness_skkt((0,), (0, rat(1, 2)))
    rng = random.Random(241)
    count = 0
    for _ in range(20):
        problem, xbar, lam = random_enlp_with_kkt(rng, n_max=2, m_max=2,
                                                  p_max=2)
        if problem.lipschitz_like_skkt(xbar, lam):
            assert problem.isolated_calmness_skkt(xbar, lam)
            count += 1
    _ok("criterion 10", "implication exact; %d Lipschitz-like randoms" % count)


def test_criterion_11_prox_identity_exact_on_1000_points():
    rng = random.Random(251)
    total = 0
    for _ in range(10):
        pen, _ = random_penalty(rng, rng.randint(1, 3))
        for _ in range(100):
            x = random_rational_vec(rng, pen.m)
            pen.prox(x)     # the exact identity is asserted inside prox
            total += 1
    assert total == 1000
    _ok("criterion 11", "1000 proximal identities verified exactly")


def test_criterion_12_cli_determinism_and_no_internal_failures():
    for name in corpus_names():
        cmd = [sys.executable, "-m", "plqstab.cli", "analyze",
               corpus_path(name), "--report", "json", "--probe",
               "--probe-grid", "3"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0, (name, first.stderr[-400:])
        assert second.returncode == 0
        assert first.stdout == second.stdout
        cmd_text = [sys.executable, "-m", "plqstab.cli", "analyze",
                    corpus_path(name)]
        a = subprocess.run(cmd_text, capture_output=True)
        b = subprocess.run(cmd_text, capture_output=True)
        assert a.returncode == 0 and a.stdout == b.stdout
    _ok("criterion 12", "byte-identical probe+plain reports; exit code 2 never")
