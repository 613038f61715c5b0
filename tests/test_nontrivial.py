"""Nontriviality of homogeneous linear systems by double description on
the kernel of their eq rows, against the LP reference."""

import random
import subprocess
import sys

import pytest

import nontrivial_reference
import plqstab.enlp as enlp
import plqstab.polyhedra as polyhedra
import plqstab.stability as stability
from plqstab import analyze_problem, corpus_names, corpus_path, parse_problem_file
from plqstab.linalg import kernel_basis
from plqstab.problemfile import parse_problem_doc
from plqstab.rational import rat
from support import random_enlp_docs


def _recorded_families(monkeypatch, problem_files):
    """(systems, coords, index) of every `nontrivial_over` call the analyses
    of `problem_files` make, with the systems read in full."""
    calls = []
    nontrivial_over = stability.nontrivial_over

    def recorded(systems, coords):
        systems, coords = list(systems), list(coords)
        calls.append((systems, coords, nontrivial_over(systems, coords)))
        return calls[-1][2]

    monkeypatch.setattr(stability, "nontrivial_over", recorded)
    monkeypatch.setattr(enlp, "nontrivial_over", recorded)
    for pf in problem_files:
        analyze_problem(pf)
    monkeypatch.undo()
    return calls


def _assert_matches_reference(systems, coords, index):
    assert index == nontrivial_reference.nontrivial_over(systems, coords)
    for system in systems:
        assert (stability.nontrivial_over([system], coords)
                == nontrivial_reference.nontrivial_over([system], coords))


def test_analysis_systems_match_the_lp_reference(monkeypatch):
    # Every system of the corpus analyses and of random-enlp pool seeds
    # 1-3: the same first hit as a family, the same verdict one by one.
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(doc) for seed in (1, 2, 3)
              for _, doc in random_enlp_docs(seed, 10)]
    calls = _recorded_families(monkeypatch, files)
    systems = [s for family, _, _ in calls for s in family]
    assert len(systems) >= 200
    assert any(not kernel_basis(a_eq) for _, a_eq, _ in systems if a_eq)
    assert {index is None for _, _, index in calls} == {True, False}
    for family, coords, index in calls:
        _assert_matches_reference(family, coords, index)


def _random_system(rng, kind):
    nvars = rng.randint(1, 5)

    def row():
        return tuple(rat(rng.choice((-2, -1, 0, 0, 1, 1, 2)))
                     for _ in range(nvars))

    n_eq = {"no_eq": 0, "square": nvars}.get(kind, rng.randint(0, 3))
    n_le = 0 if kind == "no_le" else rng.randint(0 if kind == "mirrored" else 1, 5)
    a_eq = [row() for _ in range(n_eq)]
    a_ub = [row() for _ in range(n_le)]
    if kind == "mirrored":  # a subspace: lineality only, no rays
        a_ub += [tuple(-v for v in r) for r in a_ub]
    coords = sorted(rng.sample(range(nvars), rng.randint(1, nvars)))
    return (nvars, a_eq, a_ub), coords


_KINDS = ("no_eq", "no_le", "square", "mirrored", "general")


def test_random_systems_match_the_lp_reference():
    # 300 seeded systems, 60 of each kind, in families of one to three
    # systems with the same variables and tested coordinates.
    rng = random.Random(1105)
    hits = trivial_kernels = 0
    for kind in _KINDS:
        done = 0
        while done < 60:
            (nvars, a_eq, a_ub), coords = _random_system(rng, kind)
            family = [(nvars, a_eq, a_ub)]
            while done + len(family) < 60 and rng.random() < 0.4:
                more, _ = _random_system(rng, kind)
                if more[0] == nvars:
                    family.append(more)
            done += len(family)
            index = stability.nontrivial_over(family, coords)
            _assert_matches_reference(family, coords, index)
            hits += index is not None
            trivial_kernels += sum(1 for _, eq, _ in family
                                   if eq and not kernel_basis(eq))
    assert hits >= 50 and trivial_kernels >= 20


def test_decisions_leave_the_generator_memos_alone():
    # Reduced cones are decided once and never enter the polyhedra memos.
    rng = random.Random(1106)
    systems = [_random_system(rng, kind)[0] for kind in _KINDS * 20]
    memos = (polyhedra._GEN_MEMO, polyhedra._FACES_MEMO,
             polyhedra._FROM_GEN_MEMO)
    sizes = [len(memo) for memo in memos]
    for system in systems:
        stability.nontrivial_over([system], range(system[0]))
    assert [len(memo) for memo in memos] == sizes
    # The second-order conditions: face regions and copositivity run
    # double description directly too.  Each point's own cones (the
    # critical cone and its faces, at the point's multiplier and at the
    # vertices SONC visits) are built first.
    checked = 0
    for name, doc in random_enlp_docs(4, 10) + random_enlp_docs(5, 10):
        pf = parse_problem_doc(doc, name_hint=name)
        problem, ((x, lam),) = pf.problem, pf.points
        bcq = problem.bcq_holds(x)
        mset = problem.multiplier_set(x)
        lams = [lam]
        if not mset.singleton:
            lams += enlp._vertices_and_rays(mset.poly)[0]
        for point in lams:
            ctx = problem.to_varsys().point(x, point)
            ctx.kcone.generators()
            for face in ctx.faces:
                face.piece.generators()
        sizes = [len(memo) for memo in memos]
        problem.sosc_holds(x, lam)
        if bcq:
            problem.sonc_holds(x)
        assert [len(memo) for memo in memos] == sizes, name
        checked += sum(len(problem.to_varsys().point(x, point).regions)
                       for point in lams)
    assert checked >= 30, checked


_FORGED_DD_SCRIPT = """
import sys
import plqstab.stability as stability
from plqstab import corpus_path
from plqstab.cli import main
if not sys.flags.optimize:
    sys.exit(3)
%s
sys.exit(main(["analyze", corpus_path(%r)]))
"""

# Reversed extreme rays leave their cone, and generators of the whole
# space leave the kernel of the eq rows; an LP that finds no point on a
# system double description calls nontrivial cannot give a witness.
_FORGERIES = {
    "kernel": ("""
def forged(a_eq):
    n = len(a_eq[0])
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]
stability.kernel_basis = forged
""", "example_4_4", "lifted kernel generator leaves its system"),
    "rays": ("""
cone_generators = stability._cone_generators
def forged(rows, dim):
    lin, rays = cone_generators(rows, dim)
    return lin, tuple(tuple(-v for v in r) for r in rays)
stability._cone_generators = forged
""", "example_4_4", "lifted kernel generator leaves its system"),
    "witness": ("""
stability._nontrivial_point = lambda *args: None
""", "example_3_2b", "the witness LP finds no point"),
}


@pytest.mark.parametrize("forgery", sorted(_FORGERIES))
def test_nontriviality_failures_exit_2_under_optimize(forgery):
    body, name, message = _FORGERIES[forgery]
    out = subprocess.run([sys.executable, "-O", "-c",
                          _FORGED_DD_SCRIPT % (body, name)],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("internal consistency failure: " + message)
    assert "Traceback" not in out.stderr
