"""Variational system model: residuals, Jacobians, multiplier sets."""

import json
import random
import subprocess
import sys

import pytest

import plqstab.polyhedra as polyhedra
from plqstab import corpus_names, corpus_path, rat
from plqstab.problemfile import parse_problem_doc
from support import (embed_system_full_rank, embed_system_rank_drop,
                     flat_system, parabola_system, random_enlp_docs,
                     random_varsys_with_solution)


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


def _corpus_and_pool_docs():
    docs = []
    for name in corpus_names():
        with open(corpus_path(name), encoding="utf-8") as fh:
            docs.append((name, json.load(fh)))
    for seed in range(1, 11):
        docs += random_enlp_docs(seed, 5)
    return docs


def _lp_counter(monkeypatch):
    calls = []
    original = polyhedra.lp_feasible_point

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "lp_feasible_point", counted)
    return calls


def test_certified_multiplier_sets_match_the_lp_decided_ones(monkeypatch):
    # Each file is parsed twice.  On the first parse a point's multiplier
    # set is built after its solution check, seeded with the certified
    # multiplier; on the second it is built before any check, so the
    # emptiness LP decides (unless the origin is in the set).
    lps = _lp_counter(monkeypatch)
    points = seeded = decided = 0
    for name, doc in _corpus_and_pool_docs():
        pf, fresh = (parse_problem_doc(doc, name_hint=name) for _ in range(2))
        for x, lam in pf.points:
            if not pf.problem.point(x, lam).solves:
                continue
            points += 1
            before = len(lps)
            got = pf.problem.multiplier_set(x)
            seeded += len(lps) == before
            before = len(lps)
            want = fresh.problem.multiplier_set(x)
            decided += len(lps) > before
            for field in ("empty", "singleton", "dimension",
                          "representative"):
                assert getattr(got, field) == getattr(want, field), (name, field)
            assert got.poly.to_doc() == want.poly.to_doc(), name
    # no certified point solves an LP; most need one without the seed
    assert seeded == points >= 50 and decided >= 40, (points, seeded, decided)


_FORGED_MULTIPLIER_SCRIPT = """
import sys
from plqstab import corpus_path
from plqstab.errors import InternalConsistencyError
from plqstab.problemfile import parse_problem_file
if not sys.flags.optimize:
    sys.exit(3)
pf = parse_problem_file(corpus_path("example_6_2"))
(x, lam), = pf.points
ctx = pf.problem.point(x, lam)
if not ctx.solves:
    sys.exit(4)
ctx.lam = tuple(v + 1 for v in ctx.lam)  # a check that passed a wrong lam
try:
    pf.problem.multiplier_set(x)
except InternalConsistencyError as e:
    print(e)
    sys.exit(0)
sys.exit(5)
"""


def test_forged_certified_multiplier_raises_under_optimize():
    out = subprocess.run([sys.executable, "-O", "-c",
                          _FORGED_MULTIPLIER_SCRIPT],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == \
        "a certified multiplier lies outside its multiplier set"
