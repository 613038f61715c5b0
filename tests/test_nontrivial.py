"""Nontriviality of homogeneous linear systems by double description on
the kernel of their eq rows, against the LP reference."""

import random
import subprocess
import sys

import pytest

import face_system_reference
import nontrivial_reference
import plqstab.enlp as enlp
import plqstab.polyhedra as polyhedra
import plqstab.stability as stability
from plqstab import analyze_problem, corpus_names, corpus_path, parse_problem_file
from plqstab.linalg import kernel_basis
from plqstab.problemfile import parse_problem_doc
from plqstab.rational import rat, vdot
from support import random_enlp_docs


def _recorded_families(monkeypatch, problem_files):
    """(systems, coords, result) of every `nontrivial_over` call the analyses
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


def _assert_solution(system, coords, point):
    """`point` solves `system`, and max |v_j| over `coords` is 1."""
    nvars, a_eq, a_ub = system
    assert len(point) == nvars
    assert all(vdot(a, point) == 0 for a in a_eq)
    assert all(vdot(a, point) <= 0 for a in a_ub)
    assert max(abs(point[j]) for j in coords) == 1


def _assert_matches_reference(systems, coords, found, same_point=False):
    """`found`, the (index, point) or None of the family, has the LP
    reference's index (and point, with `same_point`), and so has each
    system alone; each point solves its system and is scaled to 1 in
    `coords`."""
    want = nontrivial_reference.nontrivial_over(systems, coords)
    assert (found is None) == (want is None)
    if found is not None:
        assert found[0] == want[0] and (found == want or not same_point)
        _assert_solution(systems[found[0]], coords, found[1])
    for system in systems:
        got = stability.nontrivial_over([system], coords)
        assert ((got is None)
                == (nontrivial_reference.nontrivial_over([system], coords)
                    is None))
        if got is not None:
            _assert_solution(system, coords, got[1])


def _criticality_walks(problem_files):
    """(face systems, n, m, (index, witness) or None, isolated calmness or
    None off an ENLP) at each solution point of `problem_files`, read from
    the point contexts their analyses left."""
    for pf in problem_files:
        problem = pf.problem
        for x, lam in pf.points:
            ctx = problem.point(x, lam)
            if not ctx.solves:
                continue
            verdict, index = ctx.criticality, len(ctx.face_solutions) - 1
            found = None
            if verdict.critical:
                assert ctx.faces[index].tight == verdict.face_tight
                found = index, verdict.xi + verdict.eta
            calm = (problem.isolated_calmness_skkt(x, lam)
                    if isinstance(problem, enlp.EnlpProblem) else None)
            yield ctx.face_systems, problem.n, problem.m, found, calm


def test_analysis_systems_match_the_lp_reference(monkeypatch):
    # Every system of the corpus analyses and of random-enlp pool seeds
    # 1-3: the same first hit as a family, the same verdict one by one.
    # Criticality and isolated calmness read the face systems solved once:
    # each criticality witness is the LP reference's point, and isolated
    # calmness holds iff the reference finds no point over (xi, eta).
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(doc) for seed in (1, 2, 3)
              for _, doc in random_enlp_docs(seed, 10)]
    calls = _recorded_families(monkeypatch, files)
    for family, coords, found in calls:
        _assert_matches_reference(family, coords, found)
    systems = [s for family, _, _ in calls for s in family]
    witnesses = calm_verdicts = 0
    for family, n, m, found, calm in _criticality_walks(files):
        _assert_matches_reference(family, range(n), found, same_point=True)
        systems += family
        witnesses += found is not None
        if calm is not None:
            everywhere = stability.nontrivial_over(family, range(n + m))
            _assert_matches_reference(family, range(n + m), everywhere)
            assert calm == (everywhere is None)
            systems += family
            calm_verdicts += calm
    assert len(systems) >= 200
    assert any(not kernel_basis(a_eq) for _, a_eq, _ in systems if a_eq)
    assert {found is None for _, _, found in calls} == {True, False}
    assert witnesses >= 4 and calm_verdicts >= 20, (witnesses, calm_verdicts)


def _criterion_systems(monkeypatch, criterion):
    """The systems that one criterion call hands to `nontrivial_over`,
    read in full."""
    families = []
    nontrivial_over = stability.nontrivial_over

    def recorded(systems, coords):
        families.append(list(systems))
        return nontrivial_over(families[-1], coords)

    with monkeypatch.context() as patch:
        patch.setattr(stability, "nontrivial_over", recorded)
        patch.setattr(enlp, "nontrivial_over", recorded)
        criterion()
    (systems,) = families
    return systems


def _assert_same_verdicts(got, want, coords):
    assert len(got) == len(want)
    for new, old in zip(got, want):
        assert ((stability.nontrivial_over([new], coords) is None)
                == (stability.nontrivial_over([old], coords) is None))
    return sum(stability.nontrivial_over([new], coords) is not None
               for new in got)


def test_linearized_systems_match_the_mu_form_reference(monkeypatch):
    # Dual qualification on each face and the coderivative test on each
    # face pair, at the solution points of the corpus and of random-enlp
    # pool seeds 1-3: each system over (xi, eta) decides as the reference
    # system does (over eta, and over (xi, eta, mu)).
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(doc) for seed in (1, 2, 3)
              for _, doc in random_enlp_docs(seed, 10)]
    counts = {"dqc": 0, "dqc hits": 0, "pairs": 0, "pair hits": 0}
    for pf in files:
        problem = pf.problem
        n, m = problem.n, problem.m
        for x, lam in pf.points:
            ctx = problem.point(x, lam)
            if not ctx.solves:
                continue
            got = _criterion_systems(monkeypatch, lambda: ctx.dqc)
            want = [face_system_reference.dqc_system(ctx, f.piece)
                    for f in ctx.faces]
            counts["dqc hits"] += _assert_same_verdicts(got, want, range(m))
            counts["dqc"] += len(got)
            if not isinstance(problem, enlp.EnlpProblem):
                continue
            got = _criterion_systems(
                monkeypatch, lambda: problem.lipschitz_like_skkt(x, lam))
            want = [face_system_reference.face_pair_system(ctx, eq, le)
                    for (eq, le), _ in polyhedra.face_differences(ctx.kcone)]
            counts["pair hits"] += _assert_same_verdicts(got, want,
                                                         range(n + m))
            counts["pairs"] += len(got)
    assert min(counts.values()) >= 5 and counts["pairs"] >= 50, counts


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
            ctx = problem.point(x, point)
            ctx.kcone.generators()
            for face in ctx.faces:
                face.piece.generators()
        sizes = [len(memo) for memo in memos]
        problem.sosc_holds(x, lam)
        if bcq:
            problem.sonc_holds(x)
        assert [len(memo) for memo in memos] == sizes, name
        checked += sum(len(problem.point(x, point).regions)
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
# space leave the kernel of the eq rows.
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
