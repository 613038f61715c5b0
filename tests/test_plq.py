"""Penalty calculus: evaluation, subdifferentials, prox, second-order objects."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plqstab import (PLUS_INF, ExtReal, PlqPenalty, Polyhedron, RatMatrix,
                     coderivative_contains, rat)
from plqstab.rational import norm_sq, vadd, vdot, vscale, vsub
from support import (quad_penalty_2d, random_penalty, rank1_penalty_2d,
                     random_rational_vec)


def test_extreal_arithmetic():
    assert ExtReal(rat(1, 2)) + ExtReal(rat(1, 2)) == ExtReal(1)
    assert (ExtReal(1) + PLUS_INF) == PLUS_INF
    assert ExtReal(3).scale(rat(1, 3)) == ExtReal(1)
    assert PLUS_INF.scale(7) == PLUS_INF
    assert ExtReal(1) < PLUS_INF and not PLUS_INF < ExtReal(1)
    with pytest.raises(ValueError):
        ExtReal(1).scale(0)


def test_penalty_construction_guards():
    with pytest.raises(ValueError):
        PlqPenalty(Polyhedron([(-1, 0), (0, -1)], [0, 0]),
                   RatMatrix([(0, 1), (1, 0)]))  # not PSD
    with pytest.raises(ValueError):
        PlqPenalty(Polyhedron([(1,), (-1,)], [-1, -1]), RatMatrix([(1,)]))  # empty Y


def test_theta_closed_form_on_orthant_identity():
    pen = quad_penalty_2d()
    # theta(u) = 1/2 sum max(u_i, 0)^2
    assert pen.theta((1, -2)) == ExtReal(rat(1, 2))
    assert pen.theta((3, 4)) == ExtReal(rat(25, 2))
    assert pen.theta((-1, -1)) == ExtReal(0)


def test_theta_rank1_domain_and_values():
    pen = rank1_penalty_2d()
    assert pen.theta((0, 1)) == PLUS_INF
    val, arg = pen.theta_with_argmax((2, -3))
    assert val == ExtReal(2) and arg == (rat(2), rat(0))
    assert pen.domain_contains((0, -1)) and not pen.domain_contains((0, 1))
    assert pen.domain_contains((7, 0))


def test_domain_cone_trivial_cases():
    # nonsingular B: whole space
    pen = quad_penalty_2d()
    assert pen.domain_contains((9, -9))
    # bounded Y: whole space
    box = Polyhedron([(1,), (-1,)], [1, 1])
    penb = PlqPenalty(box, RatMatrix([(0,)]))
    assert penb.domain_contains((123,)) and penb.domain_contains((-123,))


def test_theta_finite_iff_domain_member():
    rng = random.Random(61)
    for _ in range(40):
        pen, _ = random_penalty(rng, rng.randint(1, 3))
        u = random_rational_vec(rng, pen.m)
        assert pen.theta(u).is_finite == pen.domain_contains(u)


def test_subdiff_set_examples():
    pen = rank1_penalty_2d()
    s0 = pen.subdiff((0, 0))                   # {0} x R_+
    assert s0.contains((0, 0)) and s0.contains((0, 7))
    assert not s0.contains((1, 0)) and not s0.contains((0, -1))
    pen_i = quad_penalty_2d()
    si = pen_i.subdiff((0, 0))                 # singleton {0}
    assert si.contains((0, 0)) and si.affine_dimension() == 0
    s23 = pen.subdiff((2, -3))                 # singleton {(2, 0)}
    assert s23.contains((2, 0)) and s23.affine_dimension() == 0
    assert pen.subdiff((0, 5)).is_empty()      # outside the domain


def test_subdiff_contains_needs_exact_domain_membership():
    pen = rank1_penalty_2d()
    assert pen.subdiff_contains((0, 0), (0, rat(1, 2)))
    for t in (rat(1, 7), rat(1), rat(-2)):
        # u = (0, t^2) leaves the domain unless t == 0
        assert not pen.subdiff_contains((0, t * t), (0, rat(1, 2)))
    assert not pen.subdiff_contains((0, 0), (-1, 0))   # lam off Y


def test_subdiff_three_way_agreement():
    rng = random.Random(67)
    for _ in range(40):
        pen, lam0 = random_penalty(rng, rng.randint(1, 2))
        u = random_rational_vec(rng, pen.m, num=3, den=3)
        lam = random_rational_vec(rng, pen.m, num=3, den=3)
        # subdiff_contains itself asserts agreement with the Fenchel equality
        member = pen.subdiff_contains(u, lam)
        sset = pen.subdiff(u)
        assert member == ((not sset.is_empty()) and sset.contains(lam))
        # graph symmetry with the inverse subdifferential
        inv = pen.inverse_subdiff(lam)
        assert member == ((not inv.is_empty()) and inv.contains(u))


def test_inverse_subdiff_examples():
    pen = rank1_penalty_2d()
    inv = pen.inverse_subdiff((0, 1))          # {(z1, 0) : z1 <= 0}
    assert inv.contains((-5, 0)) and not inv.contains((1, 0))
    assert not inv.contains((-1, 1))
    assert pen.inverse_subdiff((-1, 0)).is_empty()
    box = Polyhedron([(1,), (-1,)], [1, 1])
    penb = PlqPenalty(box, RatMatrix([(0,)]))
    inv0 = penb.inverse_subdiff((rat(1, 2),))  # interior of Y, B = 0: {0}
    assert inv0.contains((0,)) and inv0.affine_dimension() == 0


def test_prox_examples():
    pen = quad_penalty_2d()
    assert pen.prox((2, -2)) == (rat(1), rat(-2))
    zero = PlqPenalty(Polyhedron([(1,), (-1,)], [0, 0]), RatMatrix([(0,)]))
    assert zero.prox((rat(3, 7),)) == (rat(3, 7),)   # theta == 0: identity
    scalar = PlqPenalty(Polyhedron([(-1,)], [0]), RatMatrix([(1,)]))
    assert scalar.prox((rat(3, 20),)) == (rat(3, 40),)


def test_prox_identity_randomized():
    rng = random.Random(71)
    for _ in range(10):
        pen, _ = random_penalty(rng, rng.randint(1, 3))
        for _ in range(20):
            x = random_rational_vec(rng, pen.m)
            pen.prox(x)  # the proximal identity is asserted per call


def test_prox_float_matches_exact_prox_on_random_points():
    # The float evaluator reads cached exact pieces; at 1125 float points
    # of 25 random penalties its value agrees with the rounded exact prox
    # and its Jacobian blocks (I - J, -J) are those of the exact active
    # piece's J, rounded.
    rng = random.Random(89)
    points = 0
    for _ in range(25):
        pen, _ = random_penalty(rng, rng.randint(1, 3))
        for _ in range(45):
            v = tuple(rng.uniform(-3, 3) for _ in range(pen.m))
            vr = tuple(rat(a) for a in v)
            p, jac = pen.prox_float(v)
            exact = pen.prox(vr)
            bound = 1e-12 * (1 + math.hypot(*v))
            assert max(abs(a - float(b)) for a, b in zip(p, exact)) <= bound
            jac_exact, _ = pen.prox_linearization(vr)
            rows = [[float(a) for a in row] for row in jac_exact.rows]
            assert jac == (
                tuple(tuple((1.0 if i == k else 0.0) - a
                            for k, a in enumerate(row))
                      for i, row in enumerate(rows)),
                tuple(tuple(-a for a in row) for row in rows))
            points += 1
    assert points >= 1000


def test_prox_float_past_float_range():
    # the float solve picks a piece that is not cached yet, and v has no
    # exact value to run the exact prox at
    p, jac = quad_penalty_2d().prox_float((math.inf, 0.0))
    assert all(math.isnan(v) for v in p)
    assert all(math.isnan(v) for block in jac for row in block for v in row)


def test_prox_linearization_is_the_active_piece():
    pen = quad_penalty_2d()  # prox halves positive entries, keeps the others
    jac, offset = pen.prox_linearization((2, -3))
    assert jac == RatMatrix([(rat(1, 2), 0), (0, 1)])
    assert offset == (0, 0)
    assert vadd(jac.matvec((rat(2), rat(-3))), offset) == pen.prox((2, -3))
    capped = PlqPenalty(Polyhedron([(1,)], [1]), RatMatrix([(0,)]))  # y <= 1
    assert capped.prox_linearization((3,)) == (RatMatrix([(1,)]), (rat(-1),))
    assert capped.prox_linearization((rat(1, 2),)) == (RatMatrix([(0,)]), (0,))


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20), st.integers(-20, 20))
def test_prox_firmly_nonexpansive(a, b, c, d):
    pen = rank1_penalty_2d()
    x = (rat(a, 7), rat(b, 7))
    y = (rat(c, 7), rat(d, 7))
    px, py = pen.prox(x), pen.prox(y)
    diff_p = vsub(px, py)
    assert norm_sq(diff_p) <= vdot(diff_p, vsub(x, y))


def test_second_subderivative_examples():
    pen = rank1_penalty_2d()
    assert pen.second_subderivative((0, 0), (0, 1), (1, 0)) == ExtReal(1)
    assert pen.second_subderivative((0, 0), (0, 1), (0, 0)) == ExtReal(0)
    assert pen.second_subderivative((0, 0), (0, 1), (0, 1)) == PLUS_INF
    with pytest.raises(ValueError):
        pen.second_subderivative((0, 0), (1, 1), (1, 0))  # not a graph pair


def test_second_subderivative_positive_homogeneity_degree_two():
    pen = rank1_penalty_2d()
    rng = random.Random(73)
    for _ in range(20):
        u = random_rational_vec(rng, 2, num=3, den=3)
        t = rat(rng.randint(1, 5), rng.randint(1, 3))
        base = pen.second_subderivative((0, 0), (0, 1), u)
        scaled = pen.second_subderivative((0, 0), (0, 1), vscale(t, u))
        if base.is_finite:
            assert scaled == base.scale(t * t)
        else:
            assert scaled == PLUS_INF


def test_graph_derivative_examples():
    pen = rank1_penalty_2d()
    assert pen.graph_derivative_contains((0, 0), (0, 0), (0, 0), (0, 1))
    assert pen.graph_derivative_contains((0, 0), (0, 0), (0, 0), (0, 0))
    assert not pen.graph_derivative_contains((0, 0), (0, 0), (0, 0), (1, 1))


def test_graph_derivative_cone_scaling():
    pen = rank1_penalty_2d()
    rng = random.Random(79)
    hits = 0
    while hits < 15:
        u = random_rational_vec(rng, 2, num=2, den=2)
        eta = random_rational_vec(rng, 2, num=2, den=2)
        if pen.graph_derivative_contains((0, 0), (0, 1), u, eta):
            t = rat(rng.randint(1, 4), rng.randint(1, 3))
            assert pen.graph_derivative_contains((0, 0), (0, 1),
                                                 vscale(t, u), vscale(t, eta))
            hits += 1


def test_difference_quotient_examples():
    penq = quad_penalty_2d()
    assert penq.difference_quotient((0, 0), (0, 0), (0, 0), rat(1, 8)) == ExtReal(0)
    for t in (rat(1, 2), rat(1, 8), rat(1, 64)):
        assert penq.difference_quotient((0, 0), (0, 0), (1, 0), t) == ExtReal(1)
        assert penq.difference_quotient((0, 0), (0, 0), (0, 1), t) == ExtReal(1)
    pen = rank1_penalty_2d()
    assert pen.difference_quotient((0, 0), (0, 1), (1, 0), rat(1, 8)) == ExtReal(1)


def test_difference_quotient_approaches_second_subderivative():
    pen = rank1_penalty_2d()
    zbar, lam = (0, 0), (0, 0)
    rng = random.Random(83)
    dom = pen.restricted(pen.critical_cone_at(zbar, lam)).domain_cone
    found = 0
    for _ in range(500):
        if found >= 8:
            break
        w = random_rational_vec(rng, 2, num=3, den=3)
        if not all(vdot(row, w) < 0 for row in dom.rows):
            continue  # need the interior of the restricted domain
        found += 1
        ssd = pen.second_subderivative(zbar, lam, w)
        assert ssd.is_finite
        best = None
        for k in range(3, 11):
            for jitter in (rat(0), rat(1, 10 ** 8), rat(-1, 10 ** 8)):
                wj = vadd(w, (jitter, rat(0)))
                q = pen.difference_quotient(zbar, lam, wj, rat(1, 2 ** k))
                if q.is_finite and (best is None or q.value < best):
                    best = q.value
        assert best is not None
        assert abs(float(best) - float(ssd.value)) <= 1e-6
    assert found >= 8


def test_theta_convexity_sampled():
    rng = random.Random(89)
    pen = rank1_penalty_2d()
    count = 0
    while count < 1000:
        u = random_rational_vec(rng, 2, num=4, den=4)
        v = random_rational_vec(rng, 2, num=4, den=4)
        tu, tv = pen.theta(u), pen.theta(v)
        if not (tu.is_finite and tv.is_finite):
            continue
        mid = pen.theta(vscale(rat(1, 2), vadd(u, v)))
        assert mid.is_finite
        assert mid.value <= (tu.value + tv.value) / 2
        count += 1


def test_coderivative_smooth_case_is_singleton_slope():
    pen = PlqPenalty(Polyhedron((), ()).with_dim(1), RatMatrix([(1,)]))
    assert coderivative_contains(pen, (0,), (0,), (3,), (3,))
    assert not coderivative_contains(pen, (0,), (0,), (3,), (2,))
    assert coderivative_contains(pen, (0,), (0,), (0,), (0,))


def test_coderivative_reduces_to_polar_relation_on_smooth_piece():
    pen = rank1_penalty_2d()
    # (zbar, lam) with lam strictly inside Y: gph is locally one affine piece,
    # so the coderivative is the transpose relation of the piece
    zbar, lam = (1, 0), (1, 1)
    assert pen.subdiff_contains(zbar, lam)
    # piece near this point: z1 = lam1 free, z2 = 0, lam2 free
    assert coderivative_contains(pen, zbar, lam, (1, 0), (1, 0))
    assert coderivative_contains(pen, zbar, lam, (0, 0), (0, 5))
    assert not coderivative_contains(pen, zbar, lam, (0, 1), (0, 0))
