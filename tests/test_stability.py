"""Criticality classification, uniqueness, error bounds, and probes."""

import math
import random
import subprocess
import sys

import pytest

from plqstab import (analyze_problem, classify_multiplier, corpus_path,
                     critical_ray_probe, dqc_holds, error_bound_residuals,
                     parse_problem_file, rat, semi_isolated_probe,
                     solve_perturbed, trace_is_divergent, uniqueness_report)
from plqstab.rational import norm2, sqrt_float, vadd, vdot, vscale, vsub
from support import (ball_sample, embed_system_full_rank,
                     embed_system_rank_drop, flat_system, parabola_system,
                     random_varsys_with_solution, scalar_system)


def test_classification_on_embedded_halfline_systems():
    a = embed_system_full_rank()
    assert not classify_multiplier(a, (0, 0), (0, 0)).critical

    b = embed_system_rank_drop()
    verdict = classify_multiplier(b, (0, 0), (0, 0))
    assert verdict.critical
    # the witness moves along the dropped primal coordinate only
    assert verdict.xi[0] == 0 and verdict.xi[1] != 0


def test_classification_across_the_parabola_multiplier_ray():
    s = parabola_system()
    for t, want in [(rat(0), False), (rat(1, 4), False), (rat(1, 2), True),
                    (rat(1), False), (rat(10), False)]:
        verdict = classify_multiplier(s, (0,), (0, t))
        assert verdict.critical == want, t


def test_classifier_rejects_non_solutions():
    s = parabola_system()
    with pytest.raises(ValueError):
        classify_multiplier(s, (1,), (0, 0))


def test_witness_scaling_is_a_witness():
    s = parabola_system()
    verdict = classify_multiplier(s, (0,), (0, rat(1, 2)))
    xi, eta = verdict.xi, verdict.eta
    pen = s.penalty
    kcone = pen.critical_cone_at(s.phi.eval((0,)), (0, rat(1, 2)))
    amat = s.psi_jacobian_x((0,), (0, rat(1, 2)))
    gmat = s.phi.jacobian_at((0,))
    for t in (rat(2), rat(1, 3), rat(7, 5)):
        txi, teta = vscale(t, xi), vscale(t, eta)
        lhs = vadd(amat.matvec(txi), gmat.rmatvec(teta))
        assert all(v == 0 for v in lhs)
        resid = vsub(gmat.matvec(txi), pen.B.matvec(teta))
        assert kcone.contains(teta)
        assert kcone.polar().contains(resid)
        assert vdot(resid, teta) == 0


def test_dqc_on_goldens():
    assert dqc_holds(embed_system_full_rank(), (0, 0), (0, 0))
    assert not dqc_holds(flat_system(), (0, 0), (0, 0))
    assert not dqc_holds(parabola_system(), (0,), (0, 1))


def test_dqc_trivial_when_adjoint_injective():
    s = scalar_system()   # DPhi = 1, kernel {0}
    assert dqc_holds(s, (0,), (0,))


def test_uniqueness_reports_on_goldens():
    r = uniqueness_report(embed_system_full_rank(), (0, 0), (0, 0))
    assert r.singleton and r.dqc and r.consistent
    r = uniqueness_report(flat_system(), (0, 0), (0, 0))
    assert not r.singleton and not r.dqc and r.consistent
    r = uniqueness_report(parabola_system(), (0,), (0, 1))
    assert not r.singleton and not r.dqc and r.consistent


def test_uniqueness_equivalence_randomized_50():
    rng = random.Random(101)
    failures = []
    for i in range(50):
        system, xbar, lam = random_varsys_with_solution(rng, n_max=4, m_max=4,
                                                        p_max=4)
        r = uniqueness_report(system, xbar, lam)
        if not r.consistent:
            failures.append(i)
    assert not failures


def test_error_bound_hand_instance():
    s = scalar_system()
    lhs, rhs_iii, rhs_iv = error_bound_residuals(
        s, (0,), (0,), (rat(1, 10),), (rat(1, 20),))
    assert abs(lhs - 0.15) < 1e-12
    assert abs(rhs_iv - 0.175) < 1e-12
    assert error_bound_residuals(s, (0,), (0,), (0,), (0,)) == (0.0, 0.0, 0.0)
    # lam outside Y: the inverse-subdifferential distance degenerates to +inf
    _, rhs_iii, _ = error_bound_residuals(s, (0,), (0,), (rat(1, 10),),
                                          (rat(-1, 20),))
    assert math.isinf(rhs_iii)


def test_rhs_iii_is_the_distance_to_the_inverse_subdifferential():
    rng = random.Random(811)
    outside = 0
    for _ in range(60):
        system, xbar, lam_bar = random_varsys_with_solution(rng)
        pen, n, m = system.penalty, system.n, system.m
        for j in range(n + m + 3):
            dx, dl = ball_sample(rng, n, 1, 10), ball_sample(rng, m, 1, 10)
            if j < n + m:  # the error-bound table's axis steps
                dx = tuple(rat(1, 10) if k == j else rat(0) for k in range(n))
                dl = tuple(rat(1, 10) if n + k == j else rat(0) for k in range(m))
            x, lam = vadd(xbar, dx), vadd(lam_bar, dl)
            u = system.phi.eval(x)
            inv = pen.inverse_subdiff(lam)
            d2 = pen.inverse_subdiff_dist2(u, lam)
            _, rhs_iii, _ = error_bound_residuals(system, xbar, lam_bar, x, lam)
            if inv.is_empty():
                outside += 1
                assert d2 is None and math.isinf(rhs_iii)
                continue
            assert d2 == inv.project_point(u)[1]
            assert rhs_iii == norm2(system.psi(x, lam)) + sqrt_float(d2)
    assert outside >= 20


def test_error_bound_finite_ratio_at_noncritical_instances():
    rng = random.Random(103)
    for system, xbar, lam in [
            (embed_system_full_rank(), (rat(0), rat(0)), (rat(0), rat(0))),
            (parabola_system(), (rat(0),), (rat(0), rat(1))),
            (scalar_system(), (rat(0),), (rat(0),))]:
        assert not classify_multiplier(system, xbar, lam).critical
        worst = 0.0
        for _ in range(200):
            dx = ball_sample(rng, system.n)
            dl = ball_sample(rng, system.m)
            lhs, _, rhs4 = error_bound_residuals(
                system, xbar, lam, vadd(xbar, dx), vadd(lam, dl))
            if lhs == 0.0:
                continue
            assert rhs4 > 0.0, "nonzero deviation with zero residual"
            worst = max(worst, lhs / rhs4)
        assert worst < 1e8


def test_residuals_vanish_exactly_on_the_solution_graph():
    s = parabola_system()
    # every (0, (0, t)) with t >= 0 solves the unperturbed system
    for t in (rat(0), rat(1, 3), rat(2), rat(1, 2)):
        assert s.point((0,), (0, t)).solves
        lhs, rhs_iii, rhs_iv = error_bound_residuals(
            s, (0,), (0, 1), (0,), (0, t))
        assert lhs == 0.0 and rhs_iii == 0.0 and rhs_iv == 0.0
    # and conversely a non-solution has positive proximal residual
    _, _, rhs_iv = error_bound_residuals(s, (0,), (0, 1), (rat(1, 9),),
                                         (0, rat(1, 3)))
    assert rhs_iv > 0.0


def test_ray_probe_diverges_on_critical_goldens():
    s = parabola_system()
    verdict = classify_multiplier(s, (0,), (0, rat(1, 2)))
    trace = critical_ray_probe(s, (0,), (0, rat(1, 2)), verdict)
    assert trace_is_divergent(trace)
    assert trace.records[-1].ratio > 1e3
    # ratio is 1/t along this ray
    assert abs(trace.records[0].ratio - 2.0) < 1e-12

    b = embed_system_rank_drop()
    vb = classify_multiplier(b, (0, 0), (0, 0))
    tb = critical_ray_probe(b, (0, 0), (0, 0), vb)
    assert trace_is_divergent(tb)


def _ratio_trace(ts, ratio):
    from plqstab.probe import ProbeRecord, ProbeTrace

    return ProbeTrace(ProbeRecord(t=t, p1=(), p2=(), x=(), lam=(), lhs=0.0,
                                  rhs=0.0, ratio=ratio(t)) for t in ts)


def test_divergence_reads_the_growth_of_the_ratio_not_its_size():
    grid = [2.0 ** -k for k in range(1, 11)]
    # c/t diverges whatever c, on the full grid and with early points left
    # out; a ratio that stays bounded does not, however large it is
    for c in (1e-3, 0.34, 2.0, 1e6):
        assert trace_is_divergent(_ratio_trace(grid, lambda t: c / t))
        assert trace_is_divergent(_ratio_trace(grid[3:], lambda t: c / t))
    assert trace_is_divergent(_ratio_trace([0.5, 0.125, 2.0 ** -5, 2.0 ** -6,
                                            2.0 ** -8], lambda t: 0.3 / t))
    for bounded in (lambda t: 5e3 - t, lambda t: 1e3 * (2 - t), lambda t: 7.0):
        assert not trace_is_divergent(_ratio_trace(grid, bounded))
    # 1/sqrt(t) grows too slowly: ratio * t falls by 1/sqrt(2) per halving
    assert not trace_is_divergent(_ratio_trace(grid, lambda t: t ** -0.5))
    # infinite ratios count as grown, a finite one after an infinite not
    assert trace_is_divergent(_ratio_trace(grid, lambda t: math.inf))
    assert trace_is_divergent(_ratio_trace(
        grid, lambda t: math.inf if t < 2.0 ** -7 else 1.0 / t))
    assert not trace_is_divergent(_ratio_trace(
        grid, lambda t: math.inf if t > 2.0 ** -9 else 1.0 / t))
    assert not trace_is_divergent(_ratio_trace(grid[:4], lambda t: 1.0 / t))


def test_ray_probe_requires_critical_verdict():
    a = embed_system_full_rank()
    verdict = classify_multiplier(a, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        critical_ray_probe(a, (0, 0), (0, 0), verdict)


def test_ray_probe_single_point_grid_not_divergent():
    s = parabola_system()
    verdict = classify_multiplier(s, (0,), (0, rat(1, 2)))
    trace = critical_ray_probe(s, (0,), (0, rat(1, 2)), verdict,
                               t_grid=[rat(1, 4)])
    assert len(trace) == 1
    assert not trace_is_divergent(trace)


def test_probe_trace_csv_and_residual_replay():
    s = parabola_system()
    verdict = classify_multiplier(s, (0,), (0, rat(1, 2)))
    trace = critical_ray_probe(s, (0,), (0, rat(1, 2)), verdict)
    csv = trace.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "t,p1,p2,x,lambda,lhs,rhs,ratio"
    assert len(lines) == len(trace) + 1
    for rec in trace:
        x = tuple(rat(v) for v in rec.x)
        lam = tuple(rat(v) for v in rec.lam)
        p1 = s.psi(x, lam)
        assert max(abs(float(a) - b) for a, b in zip(p1, rec.p1)) <= 1e-10


def test_solve_perturbed_examples():
    s = scalar_system()
    res = solve_perturbed(s, (0.0,), (0.0,), ((0,), (0,)))
    assert res.converged and res.residual_norm <= 1e-10
    assert res.x == (0.0,) and res.lam == (0.0,)

    res = solve_perturbed(s, (1e-3,), (0.0,), ((0,), (0,)))
    assert res.converged
    assert abs(res.x[0] - 5e-4) < 1e-12 and abs(res.lam[0] - 5e-4) < 1e-12

    # far-away inconsistent start on a system with no nearby solution
    res = solve_perturbed(s, (1.0,), (2.0,), ((1e6,), (-1e6,)), max_iter=3)
    assert not res.converged or res.residual_norm <= 1e-10


def test_semi_isolated_probe_bounded_for_noncritical():
    a = embed_system_full_rank()
    trace, modulus = semi_isolated_probe(a, (0, 0), (0, 0), grid=8)
    assert math.isfinite(modulus) and modulus > 0
    trace2, modulus2 = semi_isolated_probe(a, (0, 0), (0, 0), grid=16)
    assert math.isfinite(modulus2)
    assert modulus2 <= 4 * max(modulus, 1.0)   # stable under refinement


def test_semi_isolated_probe_blows_up_along_critical_ray():
    s = parabola_system()
    verdict = classify_multiplier(s, (0,), (0, rat(1, 2)))
    trace = critical_ray_probe(s, (0,), (0, rat(1, 2)), verdict)
    # the proof-ray perturbations themselves witness unbounded ratios
    assert trace.records[-1].ratio > 1e3


def test_semi_isolated_zero_perturbation_ratio_zero():
    s = scalar_system()
    res = solve_perturbed(s, (0.0,), (0.0,), ((0,), (0,)))
    assert res.converged
    lhs = abs(res.x[0])
    assert lhs == 0.0


def test_solve_perturbed_reports_why_it_stopped():
    s = scalar_system()
    res = solve_perturbed(s, (1e-3,), (0.0,), ((0,), (0,)))
    assert res.converged and res.reason == "converged"
    res = solve_perturbed(s, (1e-3,), (0.0,), ((0,), (0,)), max_iter=0)
    assert not res.converged and res.reason == "max_iter"
    # the float residual vanishes at the returned iterate, the exact
    # residual there does not
    res = solve_perturbed(s, (0.1,), (0.3,), ((0,), (0,)), tol=1e-300)
    assert not res.converged and res.reason == "exact_check"
    assert 0 < res.residual_norm < 1e-15
    res = solve_perturbed(parabola_system(), (1e-3,), (0.0, 0.0),
                          ((0,), (0, 0)))
    assert not res.converged and res.reason == "no_descent"


def test_semi_isolated_probe_past_the_float_exponent_range():
    # t = scale / 2^(k-1) underflows to 0.0 from k = 1067 on instead of
    # raising at k = 1025; the records before are those of a short grid.
    a = embed_system_full_rank()
    trace, modulus = semi_isolated_probe(a, (0, 0), (0, 0), grid=1100)
    short, _ = semi_isolated_probe(a, (0, 0), (0, 0), grid=8)
    assert len(trace) == 1100 and math.isfinite(modulus)
    assert repr(trace.records[:8]) == repr(short.records)
    assert trace.records[1024].t == math.ldexp(1e-3, -1024) > 0
    assert trace.records[-1].t == 0.0


def test_semi_isolated_records_carry_the_newton_reason():
    pf = parse_problem_file(corpus_path("example_3_3"))
    x, lam = pf.points[0]
    trace, _ = semi_isolated_probe(pf.problem, x, lam, grid=4)
    reasons = [r.newton for r in trace]
    assert reasons == ["no_descent", "no_descent", "converged", "converged"]
    assert [math.isnan(r.lhs) for r in trace] == [True, True, False, False]


def test_probe_record_does_not_depend_on_earlier_solves():
    def probe_last(indices):
        pf = parse_problem_file(corpus_path("example_3_3"))
        for i in indices:
            trace, modulus = semi_isolated_probe(pf.problem, *pf.points[i])
        return repr(trace.records), modulus

    assert probe_last([3]) == probe_last([0, 1, 2, 3])


_PROBE_PROX_COUNTER_SCRIPT = """
import plqstab.plq as plq, plqstab.probe as probe
from plqstab import analyze_problem, corpus_path, parse_problem_file
pf = parse_problem_file(corpus_path("example_3_3"))
counts = {"prox": 0, "solves": 0, "inside": 0}
prox, solve = plq.PlqPenalty.prox, probe.solve_perturbed
def counted_prox(self, x, **kwargs):
    counts["prox"] += counts["inside"]
    return prox(self, x, **kwargs)
def counted_solve(*args, **kwargs):
    counts["solves"] += 1
    counts["inside"] = 1
    try:
        return solve(*args, **kwargs)
    finally:
        counts["inside"] = 0
plq.PlqPenalty.prox = counted_prox
probe.solve_perturbed = counted_solve
analyze_problem(pf, probe=True)
print(counts["prox"], counts["solves"])
"""


def test_probe_exact_prox_work_on_example_3_3():
    # Exact prox calls under the 40 Newton solves at the default grid: one
    # exact residual check per returned iterate, plus one per prox piece
    # the float evaluator meets first (3 pieces).  Pinned in a fresh
    # interpreter, as the piece caches live on the parsed penalty.
    out = subprocess.run([sys.executable, "-c", _PROBE_PROX_COUNTER_SCRIPT],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["43", "40"]


_PROBE_NEWTON_COUNTER_SCRIPT = """
import collections
import plqstab.plq as plq, plqstab.probe as probe
from plqstab import analyze_problem, corpus_path, parse_problem_file
results = []
solve = probe.solve_perturbed
def recorded(*args, **kwargs):
    results.append(solve(*args, **kwargs))
    return results[-1]
probe.solve_perturbed = recorded
scans = [0]
prox_float = plq.PlqPenalty.prox_float
def scanned(self, v):
    scans[0] += 1
    return prox_float(self, v)
plq.PlqPenalty.prox_float = scanned
ends = collections.Counter()
residual = probe.FloatKernel.residual
def evaluated(self, *args):
    before = scans[0]
    out = residual(self, *args)
    ends["kept" if out is not None else
         "r1" if scans[0] == before else "end"] += 1
    return out
probe.FloatKernel.residual = evaluated
analyze_problem(parse_problem_file(corpus_path("example_3_3")), probe=True)
reasons = collections.Counter(r.reason for r in results)
print(len(results), sum(r.iterations for r in results),
      sum(r.evaluations for r in results),
      *("%s=%d" % kv for kv in sorted(reasons.items())))
print(sum(ends.values()), *("%s=%d" % kv for kv in sorted(ends.items())))
"""


def test_probe_newton_work_on_example_3_3():
    # The 40 Newton solves at the default grid: iterations, float residual
    # evaluations (the start and every line-search trial) and how each
    # solve stopped.  Pinned in a fresh interpreter, as the exact-prox pin.
    # The second line counts the `FloatKernel.residual` calls that really
    # run: 1,773 of the 2,161 evaluations (the trials a search leaves
    # after one at the iterate count, unevaluated), 171 kept (40 starts
    # and 131 accepted trials), 1,026 rejected after r1, before the prox
    # scan, and 576 at the end.
    out = subprocess.run([sys.executable, "-c", _PROBE_NEWTON_COUNTER_SCRIPT],
                         capture_output=True, text=True, check=True)
    work, residuals = out.stdout.splitlines()
    assert work.split() == ["40", "148", "2161", "converged=13",
                            "no_descent=17", "stalled=10"]
    assert residuals.split() == ["1773", "end=576", "kept=171", "r1=1026"]


_FORGED_PROX_SCRIPT = """
import sys
from functools import cached_property
import plqstab.plq as plq
from plqstab import corpus_path
from plqstab.cli import main
if not sys.flags.optimize:
    sys.exit(3)
make_solver = plq.PlqPenalty._prox_solver.func
def forged_solver(self):
    solver = make_solver(self)
    solve = solver.solve
    def forged(c, with_subset=False):
        y, subset = solve(c, with_subset=True)
        y = tuple(v + 1 for v in y)
        return (y, subset) if with_subset else y
    solver.solve = forged
    return solver
forged_solver = cached_property(forged_solver)
forged_solver.__set_name__(plq.PlqPenalty, "_prox_solver")
plq.PlqPenalty._prox_solver = forged_solver
sys.exit(main(["analyze", corpus_path("example_4_4")]))
"""


def test_prox_identity_failure_exits_2_under_optimize():
    out = subprocess.run([sys.executable, "-O", "-c", _FORGED_PROX_SCRIPT],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("internal consistency failure: proximal identity")
    assert "Traceback" not in out.stderr


_FORGED_WITNESS_SCRIPT = """
import sys
import plqstab.stability as stability
from plqstab import corpus_path
from plqstab.cli import main
if not sys.flags.optimize:
    sys.exit(3)
witness = stability._witness
def forged(gens, coords):
    point = witness(gens, coords)
    return None if point is None else tuple(v + 1 for v in point)
stability._witness = forged
sys.exit(main(["analyze", corpus_path("example_4_4")]))
"""


def test_witness_failure_exits_2_under_optimize():
    out = subprocess.run([sys.executable, "-O", "-c", _FORGED_WITNESS_SCRIPT],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("internal consistency failure: witness")
    assert "Traceback" not in out.stderr



_FORGED_DQC_SCRIPT = """
import sys
from functools import cached_property
import plqstab.stability as stability
from plqstab import corpus_path
from plqstab.cli import main
if not sys.flags.optimize:
    sys.exit(3)
dqc = stability.PointContext.dqc.func
forged = cached_property(lambda self: not dqc(self))
forged.__set_name__(stability.PointContext, "dqc")
stability.PointContext.dqc = forged
sys.exit(main(["analyze", corpus_path("example_6_2")]))
"""


def test_uniqueness_failure_exits_2_under_optimize():
    # The multiplier of example_6_2 is unique: a flipped dual
    # qualification disagrees with its multiplier set.
    out = subprocess.run([sys.executable, "-O", "-c", _FORGED_DQC_SCRIPT],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith(
        "internal consistency failure: multiplier uniqueness disagrees "
        "with the dual qualification")
    assert "Traceback" not in out.stderr


# -- the per-point context ----------------------------------------------------------

_THETA_COUNTER_SCRIPT = """
import plqstab.plq as plq
from plqstab import analyze_problem, corpus_path, parse_problem_file
pf = parse_problem_file(corpus_path("example_6_2"))
calls = [0]
theta_with_argmax = plq.PlqPenalty.theta_with_argmax
def counted(self, u):
    calls[0] += 1
    return theta_with_argmax(self, u)
plq.PlqPenalty.theta_with_argmax = counted
analyze_problem(pf)
print(calls[0])
"""


def test_theta_qps_of_a_fresh_example_6_2_analysis():
    # theta evaluations at one ENLP point: the point's solution check (one
    # subdiff_contains, Fenchel cross-check included) and the
    # subdifferential of the multiplier set, which share one memoized QP.
    # Every criterion, the KKT check and the error-bound table read the
    # checked point context.
    out = subprocess.run([sys.executable, "-c", _THETA_COUNTER_SCRIPT],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["2"]


_TIGHT_ROWS_COUNTER_SCRIPT = """
import plqstab.polyhedra as polyhedra
from plqstab import analyze_problem, corpus_path, parse_problem_file, rat
pf = parse_problem_file(corpus_path("example_6_2"))
ymat = pf.problem.penalty.Y
(_, lam_bar), = pf.points
lam_bar = tuple(rat(v) for v in lam_bar)
calls = {"all": 0, "at_lam_bar": 0}
tight_rows = polyhedra.Polyhedron.tight_rows
def counted(self, y):
    calls["all"] += 1
    calls["at_lam_bar"] += self is ymat and tuple(rat(v) for v in y) == lam_bar
    return tight_rows(self, y)
polyhedra.Polyhedron.tight_rows = counted
analyze_problem(pf)
print(calls["all"], calls["at_lam_bar"])
"""


def test_tight_rows_reads_of_a_fresh_example_6_2_analysis():
    # The point context reads the rows of Y tight at lam_bar once, for the
    # solution check, the critical cone and the normal cone; the other 13
    # reads are at other points or of other polyhedra.
    out = subprocess.run([sys.executable, "-c", _TIGHT_ROWS_COUNTER_SCRIPT],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["14", "1"]


def _criterion_calls(pf, idx, pdoc):
    """(name, thunk, value the report holds) for each public criterion at
    point idx of a parsed problem file."""
    problem = pf.problem
    x, lam = pf.points[idx]
    calls = [("is_solution", lambda: problem.point(x, lam).solves,
              pdoc["is_solution"])]
    if not pdoc["is_solution"]:
        return calls

    def criticality():
        v = classify_multiplier(problem, x, lam)
        return (str(v).lower(), v.face_count, None if not v.critical else
                {"xi": [str(a) for a in v.xi], "eta": [str(a) for a in v.eta],
                 "face_tight_rows": sorted(v.face_tight)})

    def uniqueness():
        u = uniqueness_report(problem, x, lam)
        return {"singleton": u.singleton, "dqc": u.dqc, "consistent": u.consistent}

    def error_bounds():
        rows = []
        for row in pdoc["error_bound_samples"]:
            xr = vadd(x, tuple(rat(v) for v in row["dx"]))
            lr = vadd(lam, tuple(rat(v) for v in row["dlambda"]))
            rows.append([v if math.isfinite(v) else str(v)
                         for v in error_bound_residuals(problem, x, lam, xr, lr)])
        return rows

    crit = pdoc["criticality"]
    calls += [
        ("criticality", criticality,
         (crit["verdict"], crit["faces_examined"], crit["witness"])),
        ("uniqueness", uniqueness, pdoc["uniqueness"]),
        ("dqc", lambda: dqc_holds(problem, x, lam), pdoc["uniqueness"]["dqc"]),
        ("error_bounds", error_bounds,
         [[r["lhs"], r["rhs_inverse_subdiff"], r["rhs_prox"]]
          for r in pdoc["error_bound_samples"]]),
    ]
    if pf.kind == "enlp":
        stab = pdoc["stability"]
        assert stab["bcq"]  # so that sonc_holds returns the reported value
        calls += [
            ("kkt", lambda: list(problem.kkt_check(x, lam)),
             [pdoc["kkt"]["holds"], pdoc["kkt"]["residual"]]),
            ("bcq", lambda: problem.bcq_holds(x), stab["bcq"]),
            ("sosc", lambda: problem.sosc_holds(x, lam), stab["sosc"]),
            ("sonc", lambda: problem.sonc_holds(x), stab["sonc"]),
            ("icalm", lambda: problem.isolated_calmness_skkt(x, lam),
             stab["isolated_calm_skkt"]),
            ("liplike", lambda: problem.lipschitz_like_skkt(x, lam),
             stab["lipschitz_like_skkt"]),
            ("robust_ic", lambda: problem.robust_ic_report(x, lam).to_doc(),
             stab),
        ]
    return calls


@pytest.mark.parametrize("name", ["example_3_3", "example_6_2"])
def test_public_criteria_alone_and_shuffled_match_the_report(name):
    pf = parse_problem_file(corpus_path(name))
    doc, _ = analyze_problem(pf)
    assert len(doc["points"]) == {"example_3_3": 5, "example_6_2": 1}[name]
    assert "not-a-solution" not in doc["verdicts"]
    # alone: each criterion is the first and only call on a fresh parse
    for idx, pdoc in enumerate(doc["points"]):
        count = len(_criterion_calls(pf, idx, pdoc))
        for k in range(count):
            fresh = parse_problem_file(corpus_path(name))
            label, call, want = _criterion_calls(fresh, idx, pdoc)[k]
            assert call() == want, (idx, label)
    # shuffled: every criterion at every point, in a seeded order, on one parse
    shared = parse_problem_file(corpus_path(name))
    calls = [(idx, c) for idx, pdoc in enumerate(doc["points"])
             for c in _criterion_calls(shared, idx, pdoc)]
    for seed in range(3):
        random.Random(seed).shuffle(calls)
        for idx, (label, call, want) in calls:
            assert call() == want, (seed, idx, label)


_VARSYS_MESSAGES = [
    (classify_multiplier, "criticality is defined at exact solutions only"),
    (dqc_holds, "dual qualification is defined at exact solutions only"),
    (uniqueness_report, "uniqueness report needs an exact solution"),
    (lambda s, x, lam: error_bound_residuals(s, x, lam, x, lam),
     "error bounds are anchored at an exact solution"),
    (lambda s, x, lam: semi_isolated_probe(s, x, lam, grid=1),
     "probe is anchored at an exact solution"),
]


def test_non_solutions_raise_the_same_value_errors():
    pf = parse_problem_file(corpus_path("example_3_3"))
    x, lam = pf.points[1]
    off_y = (rat(0), rat(-1))                 # lambda outside Y
    # example_4_4 at x = (1, 0), lambda = (1, 0): lambda is a subgradient
    # at Phi(x), but Psi(x, lambda) = (1, 0)
    psi_off = parse_problem_file(corpus_path("example_4_4")).problem
    assert psi_off.point((1, 0), (1, 0)).in_subdiff
    for system, bad in [(pf.problem, (x, off_y)),
                        (psi_off, ((1, 0), (1, 0)))]:
        assert not system.point(*bad).solves
        for call, message in _VARSYS_MESSAGES:
            for _ in range(2):                # the memoized context raises again
                with pytest.raises(ValueError) as err:
                    call(system, *bad)
                assert str(err.value) == message
    # the solution next to them is unaffected
    assert pf.problem.point(x, lam).solves
    assert classify_multiplier(pf.problem, x, lam).critical is False

    enlp = parse_problem_file(corpus_path("example_6_2"))
    problem = enlp.problem
    ex, elam = enlp.points[0]
    bad_lam = tuple(v + 1 for v in elam)
    assert problem.kkt_check(ex, bad_lam)[0] is False
    for call in (problem.sosc_holds, problem.isolated_calmness_skkt,
                 problem.lipschitz_like_skkt, problem.robust_ic_report):
        with pytest.raises(ValueError) as err:
            call(ex, bad_lam)
        assert str(err.value) == "the pair does not solve the KKT system exactly"
    with pytest.raises(ValueError) as err:
        classify_multiplier(problem, ex, bad_lam)
    assert str(err.value) == "criticality is defined at exact solutions only"
    assert problem.kkt_check(ex, elam)[0] is True
