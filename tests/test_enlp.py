"""KKT layer: Lagrangian, qualifications, second-order conditions,
and stability of the KKT solution map."""

import random

import pytest

from plqstab import (PlqPenalty, PolyCone, Polyhedron, RatMatrix,
                     classify_multiplier, identity, rat)
from plqstab.enlp import copositive_on_cone
from plqstab.rational import vdot
from support import (ball_sample, flat_enlp, parabola_enlp, pe,
                     quad_cost_enlp, random_enlp_with_kkt, smooth_enlp)


def test_lagrangian_values_and_derivatives():
    # The induced system's Psi and d(Psi)/dx are the Lagrangian's
    # gradient and Hessian in x.
    e = quad_cost_enlp(2)
    s = e.to_varsys()
    x, lam = (rat(1), rat(-2)), (rat(3), rat(5))
    # L = |x|^2 + <x, lam> - |lam|^2/2
    assert e.lagrangian(x, lam) == 5 + (3 - 10) - rat(34, 2)
    assert s.psi(x, lam) == (rat(5), rat(1))  # 2x + lam
    assert s.psi_jacobian_x(x, lam) == identity(2).scale(2)
    # lam = 0 reduces to the cost
    assert e.lagrangian(x, (0, 0)) == e.phi0.eval(x)


def test_lagrangian_gradient_matches_residual_of_induced_system():
    # phi0 = -x^2/2 and Phi = (0, x^2): grad_x L = -x + 2 x lam_2
    s = parabola_enlp().to_varsys()
    for x in (rat(0), rat(2), rat(-1, 3)):
        for l2 in (rat(0), rat(1), rat(1, 2)):
            assert s.psi((x,), (0, l2)) == (-x + 2 * x * l2,)


def test_hessian_equals_residual_jacobian_for_induced_systems():
    # d(Psi)/dx is symmetric and equals the Lagrangian's Hessian in x,
    # from the second partials of phi0 and of each Phi_i
    rng = random.Random(107)
    for _ in range(10):
        problem, xbar, lam = random_enlp_with_kkt(rng)
        h = problem.to_varsys().psi_jacobian_x(xbar, lam)
        n = problem.n
        assert h.is_symmetric()
        assert h == RatMatrix([
            [problem.phi0.diff(i).diff(j).eval(xbar)
             + sum((rat(l) * c.diff(i).diff(j).eval(xbar)
                    for l, c in zip(lam, problem.phi.components)), rat(0))
             for j in range(n)] for i in range(n)])


def test_kkt_check_examples():
    e = quad_cost_enlp(2)
    ok, res = e.kkt_check((0, 0), (0, 0))
    assert ok and res == 0.0
    ok, _ = e.kkt_check((0, 0), (-1, 0))   # lam off Y
    assert not ok
    p = parabola_enlp()
    ok, _ = p.kkt_check((0,), (0, 1))
    assert ok


def test_bcq_examples():
    assert quad_cost_enlp(2).bcq_holds((0, 0))      # dom theta = R^n
    assert not flat_enlp().bcq_holds((0, 0))        # multiplier ray
    assert smooth_enlp().bcq_holds((0,))            # injective adjoint


def test_sosc_on_goldens():
    assert quad_cost_enlp(2).sosc_holds((0, 0), (0, 0))
    # pure negative quadratic with a vanishing penalty
    pen0 = PlqPenalty(Polyhedron([(1, 0), (-1, 0), (0, 1), (0, -1)],
                                 [0, 0, 0, 0]), RatMatrix([(0, 0), (0, 0)]))
    from plqstab import EnlpProblem, PolyMap

    neg = EnlpProblem(pe("0 - x1^2 - x2^2", 2),
                      PolyMap([pe("x1", 2), pe("x2", 2)]), pen0)
    assert not neg.sosc_holds((0, 0), (0, 0))
    # scalar reduction: hessian (2*1 - 1) = 1 with a vanishing Jacobian
    assert parabola_enlp().sosc_holds((0,), (0, 1))


def test_sosc_requires_kkt():
    with pytest.raises(ValueError):
        quad_cost_enlp(2).sosc_holds((1, 1), (0, 0))


def test_sonc_on_goldens():
    assert quad_cost_enlp(2).sonc_holds((0, 0)) is True
    assert smooth_enlp().sonc_holds((0,)) is True
    with pytest.raises(ValueError):
        flat_enlp().sonc_holds((0, 0))   # BCQ fails


def test_sonc_implied_by_sosc_on_singletons():
    rng = random.Random(109)
    checked = 0
    while checked < 10:
        problem, xbar, lam = random_enlp_with_kkt(rng)
        try:
            bcq = problem.bcq_holds(xbar)
        except ValueError:
            continue
        if not bcq or not problem.multiplier_set(xbar).singleton:
            continue
        if problem.sosc_holds(xbar, lam):
            assert problem.sonc_holds(xbar) is True
        checked += 1


def test_quadratic_growth_under_sosc():
    e = quad_cost_enlp(2)
    rng = random.Random(113)
    base = e.objective((0, 0))
    assert base.is_finite
    worst = None
    for _ in range(1000):
        x = ball_sample(rng, 2)
        if all(v == 0 for v in x):
            continue
        val = e.objective(x)
        assert val.is_finite
        ratio = (val.value - base.value) / vdot(x, x)
        if worst is None or ratio < worst:
            worst = ratio
    assert float(worst) > 1e-12


def test_sonc_vertex_path_on_segment_multiplier_set():
    # Phi(x) = (x, x), B = 0, phi0 = -x: multipliers form the segment
    # {lam >= 0 : lam1 + lam2 = 1}, bounded, so the qualification holds
    from plqstab import EnlpProblem, PolyMap
    from plqstab.linalg import zeros

    pen = PlqPenalty(Polyhedron([(-1, 0), (0, -1)], [0, 0]), zeros(2, 2))
    prob = EnlpProblem(pe("-x1", 1), PolyMap([pe("x1", 1), pe("x1", 1)]), pen)
    assert prob.bcq_holds((0,))
    mset = prob.multiplier_set((0,))
    assert not mset.singleton and mset.dimension == 1
    ok, _ = prob.kkt_check((0,), (rat(1, 2), rat(1, 2)))
    assert ok
    assert prob.sonc_holds((0,)) in (True, "inconclusive")


def test_quadratic_growth_at_remaining_sufficient_goldens():
    rng = random.Random(139)
    smooth = smooth_enlp()
    assert smooth.sosc_holds((0,), (0,))
    base = smooth.objective((0,)).value
    for _ in range(200):
        x = ball_sample(rng, 1)
        if x[0] == 0:
            continue
        val = smooth.objective(x)
        assert val.value - base >= vdot(x, x)   # phi(x) = x^2 here

    parab = parabola_enlp()
    assert parab.sosc_holds((0,), (0, 1))
    base = parab.objective((0,))
    assert base.value == 0
    for _ in range(50):
        x = ball_sample(rng, 1)
        if x[0] == 0:
            continue
        # off the base point the penalty argument leaves the domain
        assert not parab.objective(x).is_finite


def test_isolated_calmness_goldens():
    assert quad_cost_enlp(2).isolated_calmness_skkt((0, 0), (0, 0))
    assert smooth_enlp().isolated_calmness_skkt((0,), (0,))
    assert not parabola_enlp().isolated_calmness_skkt((0,), (0, rat(1, 2)))
    assert not flat_enlp().isolated_calmness_skkt((0, 0), (0, 0))


def test_lipschitz_like_goldens():
    assert smooth_enlp().lipschitz_like_skkt((0,), (0,))
    assert quad_cost_enlp(2).lipschitz_like_skkt((0, 0), (0, 0))
    assert not parabola_enlp().lipschitz_like_skkt((0,), (0, rat(1, 2)))
    assert not flat_enlp().lipschitz_like_skkt((0, 0), (0, 0))


def test_lipschitz_like_implies_isolated_calmness():
    rng = random.Random(127)
    goldens = [
        (quad_cost_enlp(2), (rat(0), rat(0)), (rat(0), rat(0))),
        (smooth_enlp(), (rat(0),), (rat(0),)),
        (parabola_enlp(), (rat(0),), (rat(0), rat(1, 2))),
        (parabola_enlp(), (rat(0),), (rat(0), rat(1))),
        (flat_enlp(), (rat(0), rat(0)), (rat(0), rat(0))),
    ]
    for _ in range(15):
        goldens.append(random_enlp_with_kkt(rng, n_max=2, m_max=2, p_max=2))
    for problem, xbar, lam in goldens:
        lip = problem.lipschitz_like_skkt(xbar, lam)
        calm = problem.isolated_calmness_skkt(xbar, lam)
        assert (not lip) or calm


def test_sosc_implies_noncritical_randomized():
    rng = random.Random(131)
    for _ in range(50):
        problem, xbar, lam = random_enlp_with_kkt(rng)
        if problem.sosc_holds(xbar, lam):
            verdict = classify_multiplier(problem.to_varsys(), xbar, lam)
            assert not verdict.critical


def test_robust_ic_reports():
    rep = quad_cost_enlp(2).robust_ic_report((0, 0), (0, 0))
    assert rep.robust_ic is True and rep.sosc and rep.unique and rep.noncritical
    assert rep.isolated_calm_skkt and rep.lipschitz_like_skkt

    rep = parabola_enlp().robust_ic_report((0,), (0, rat(1, 2)))
    assert rep.robust_ic is False and not rep.noncritical and not rep.unique

    rep = flat_enlp().robust_ic_report((0, 0), (0, 0))
    assert rep.robust_ic is False and not rep.unique


def test_bcq_decisions_of_one_robust_ic_report(monkeypatch):
    # robust_ic_report reads BCQ, and sonc_holds reads it again at the same
    # x; only the first read may decide a nontriviality system.
    import plqstab.stability as stability
    from plqstab import EnlpProblem

    per_call, inside = [], []
    bcq, solutions = EnlpProblem.bcq_holds, stability._solutions

    def counted_bcq(self, x):
        per_call.append(0)
        inside.append(True)
        try:
            return bcq(self, x)
        finally:
            inside.pop()

    def counted_decision(*args):
        if inside:
            per_call[-1] += 1
        return solutions(*args)

    monkeypatch.setattr(EnlpProblem, "bcq_holds", counted_bcq)
    monkeypatch.setattr(stability, "_solutions", counted_decision)
    quad_cost_enlp(2).robust_ic_report((0, 0), (0, 0))
    assert per_call == [1, 0]


def test_robust_ic_reports_randomized_consistency():
    rng = random.Random(137)
    for _ in range(20):
        problem, xbar, lam = random_enlp_with_kkt(rng, n_max=2, m_max=2,
                                                  p_max=2)
        rep = problem.robust_ic_report(xbar, lam)  # raises on any violation
        if rep.robust_ic is True:
            assert rep.sosc and rep.unique and rep.noncritical
            assert rep.isolated_calm_skkt


def test_copositivity_engine_simple_forms():
    orthant = PolyCone([(-1, 0), (0, -1)], dim=2)
    ok, _ = copositive_on_cone(identity(2), orthant, strict=True)
    assert ok
    indef = RatMatrix([(1, 0), (0, -1)])
    ok, wit = copositive_on_cone(indef, orthant, strict=True)
    assert not ok and wit is not None
    assert vdot(indef.matvec(wit), wit) <= 0 and any(v != 0 for v in wit)
    # PSD but not PD: nonnegative everywhere, not strictly on the kernel ray
    psd = RatMatrix([(1, 0), (0, 0)])
    ok, _ = copositive_on_cone(psd, orthant, strict=False)
    assert ok
    ok, wit = copositive_on_cone(psd, orthant, strict=True)
    assert not ok and wit[0] == 0 and wit[1] != 0
    # trivial cone
    ok, _ = copositive_on_cone(indef, PolyCone([(1, 0), (-1, 0), (0, 1),
                                                (0, -1)], dim=2), strict=True)
    assert ok
    # a half-plane: the first coordinate spans the lineality space, the
    # second is the ray; one cone per early exit of the reduction
    half = PolyCone([(0, -1)], dim=2)

    def refuted(qform, strict):
        ok, wit = copositive_on_cone(qform, half, strict)
        assert not ok and any(v != 0 for v in wit) and half.contains(wit)
        value = vdot(qform.matvec(wit), wit)
        assert value <= 0 if strict else value < 0
        return wit

    # Q_LL singular, so not positive definite: a lineality direction
    wit = refuted(RatMatrix([(0, 0), (0, 1)]), strict=True)
    assert wit[1] == 0
    ok, _ = copositive_on_cone(RatMatrix([(0, 0), (0, 1)]), half, strict=False)
    assert ok
    # Q_LL not PSD
    wit = refuted(RatMatrix([(-1, 0), (0, 1)]), strict=False)
    assert wit[1] == 0
    # Q_LL = 0 is PSD, but the column Q_LR = 1 leaves its range: the form
    # 2 a c is unbounded below along ker Q_LL with c = 1
    wit = refuted(RatMatrix([(0, 1), (1, 0)]), strict=False)
    assert wit[1] > 0
    # the Schur complement on the ray: Q_RR - Q_LR^2 / Q_LL = 1 - 4/2
    wit = refuted(RatMatrix([(2, 2), (2, 1)]), strict=False)
    assert wit[1] > 0
    ok, _ = copositive_on_cone(RatMatrix([(2, 1), (1, 1)]), half, strict=True)
    assert ok
