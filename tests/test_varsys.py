"""Variational system model: residuals, Jacobians, multiplier sets."""

import random

import pytest

from plqstab import rat
from support import (embed_system_full_rank, embed_system_rank_drop,
                     flat_system, parabola_system, random_varsys_with_solution)


def test_residual_closed_form_on_parabola_system():
    s = parabola_system()
    # Psi(x, lam) = -x + 2 x lam_2
    for x in (rat(2), rat(-1, 3), rat(0)):
        for l2 in (rat(0), rat(5), rat(1, 2)):
            assert s.psi((x,), (rat(1), l2)) == (-x + 2 * x * l2,)
    # lam = 0 reduces to f
    assert s.psi((rat(7),), (0, 0)) == (rat(-7),)


def test_residual_jacobian_values():
    s = parabola_system()
    # scalar 2*lam_2 - 1 at x = 0
    assert s.psi_jacobian_x((0,), (0, rat(1, 2))).rows == ((rat(0),),)
    assert s.psi_jacobian_x((0,), (0, 1)).rows == ((rat(1),),)
    a = embed_system_full_rank()
    assert a.psi_jacobian_x((0, 0), (0, 0)).rows == ((rat(1), rat(0)),
                                                     (rat(0), rat(1)))
    # linear f with affine Phi: constant Jacobian
    f = flat_system()
    assert f.psi_jacobian_x((5, 5), (1, 1)).rows == ((rat(0), rat(0)),
                                                     (rat(0), rat(0)))


def test_residual_for_embedded_halfline():
    a = embed_system_full_rank()
    assert a.psi((0, 0), (3, 4)) == (rat(3), rat(0))


def test_multiplier_sets_on_goldens():
    s = parabola_system()
    m = s.multiplier_set((0,))
    assert not m.empty and not m.singleton and m.dimension == 1
    assert m.poly.contains((0, 9)) and not m.poly.contains((1, 0))
    assert not m.poly.contains((0, -1))

    a = embed_system_full_rank()
    ma = a.multiplier_set((0, 0))
    assert ma.singleton and ma.representative == (rat(0), rat(0))

    fl = flat_system()
    mf = fl.multiplier_set((0, 0))
    assert not mf.empty and not mf.singleton


def test_solution_and_stationarity_checks():
    s = parabola_system()
    assert s.point((0,), (0, rat(1, 2))).solves
    assert not s.point((0,), (-1, 0)).solves      # lam off Y
    assert not s.point((1,), (0, 0)).solves       # Psi != 0
    assert not s.multiplier_set((0,)).empty       # stationary
    b = embed_system_rank_drop()
    assert b.point((0, 0), (0, 0)).solves


def test_multiplier_representative_is_a_solution():
    rng = random.Random(97)
    for _ in range(25):
        system, xbar, lam = random_varsys_with_solution(rng)
        mset = system.multiplier_set(xbar)
        assert not mset.empty
        assert system.point(xbar, mset.representative).solves
        assert mset.poly.contains(lam)


def test_dimension_checks():
    s = parabola_system()
    with pytest.raises(ValueError):
        s.psi((0, 0), (0, 0))
