"""Second-order engine: copositivity through the Schur complement over the
lineality space, and SOSC face regions from generators, against the
subset loop and the Fourier-Motzkin regions they replaced."""

import random
import subprocess
import sys

import copositivity_reference
import face_region_reference
import plqstab.enlp as enlp
import plqstab.stability as stability
from plqstab import (PolyCone, RatMatrix, corpus_names, corpus_path,
                     identity, parse_problem_file)
from plqstab.enlp import copositive_on_cone
from plqstab.linalg import rank
from plqstab.problemfile import parse_problem_doc
from plqstab.rational import is_zero_vec, vdot
from psd_reference import psd_reference
from support import random_enlp_docs


def _assert_witness(qform, cone, verdict, witness, strict):
    if verdict:
        assert witness is None
        return
    assert not is_zero_vec(witness) and cone.contains(witness)
    value = vdot(qform.matvec(witness), witness)
    assert value <= 0 if strict else value < 0


def _random_cone(rng, dim):
    """Random rows, about 30% of them mirrored to make lineality."""
    rows = []
    for _ in range(rng.randint(0, dim + 1)):
        row = tuple(rng.randint(-2, 2) for _ in range(dim))
        rows.append(row)
        if rng.random() < 0.3:
            rows.append(tuple(-v for v in row))
    return PolyCone(rows, dim=dim)


def _random_form(rng, dim):
    """A PSD matrix C^T C minus a random 0/1 diagonal."""
    c = [[rng.randint(-1, 1) for _ in range(dim)]
         for _ in range(rng.randint(0, dim))]
    return RatMatrix([[sum(r[i] * r[j] for r in c) - (i == j) * rng.randint(0, 1)
                       for j in range(dim)] for i in range(dim)])


def test_copositivity_matches_the_subset_loop_reference():
    rng = random.Random(1301)
    verdicts = {True: 0, False: 0}
    lineal = 0
    for _ in range(400):
        dim = rng.randint(1, 5)
        cone, qform = _random_cone(rng, dim), _random_form(rng, dim)
        lineal += all(cone.generators())
        for strict in (True, False):
            got, witness = copositive_on_cone(qform, cone, strict)
            want, _ = copositivity_reference.copositive_on_cone(qform, cone,
                                                                strict)
            assert got == want, (cone.rows, qform, strict)
            _assert_witness(qform, cone, got, witness, strict)
            verdicts[got] += 1
    assert sum(verdicts.values()) >= 800
    assert min(verdicts.values()) >= 150 and lineal >= 50, (verdicts, lineal)


def test_copositivity_shared_on_a_cone_matches_fresh_cones():
    # Verdicts and witnesses do not depend on what an earlier test of the
    # same cone left on it: with the same form, in either order of the two
    # tests, or with another form.
    rng = random.Random(1303)
    shared = 0
    for _ in range(150):
        dim = rng.randint(1, 5)
        cone = _random_cone(rng, dim)
        forms = [_random_form(rng, dim), _random_form(rng, dim)]
        order = (True, False) if rng.random() < 0.5 else (False, True)
        for qform, strict in [(forms[0], s) for s in order] + [(forms[1], True)]:
            fresh = PolyCone(cone.rows, dim=dim)
            assert copositive_on_cone(qform, cone, strict) == \
                copositive_on_cone(qform, fresh, strict)
            shared += (qform is forms[0] and strict == order[1]
                       and cone._copositivity.families is not None)
    assert shared >= 50, shared


def _counting(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(enlp, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(enlp, name, counted)
    return counts


def test_copositivity_on_a_subspace_tries_no_subset_and_no_lp(monkeypatch):
    # The m7_2 shape: a 7-dimensional cone that is a 6-dimensional
    # subspace with no rays.  The subset loop over +/- each lineality
    # vector made 4,095 trials here; the reduction makes one LDL^T.
    rng = random.Random(1302)
    counts = _counting(monkeypatch, "solve_general", "lp_feasible_point")
    normal = (1, -2, 0, 1, 0, 3, -1)
    cone = PolyCone([normal, tuple(-v for v in normal)], dim=7)
    basis, rays = cone.generators()
    assert len(basis) == 6 and not rays
    nmat = RatMatrix.from_cols(basis)
    seen = set()
    for _ in range(12):
        qform = _random_form(rng, 7) + identity(7).scale(rng.randint(0, 2))
        core = nmat.T @ qform @ nmat
        for strict in (True, False):
            got, witness = copositive_on_cone(qform, cone, strict)
            # the reference elimination, not the routine copositivity runs
            assert got == (psd_reference(core.rows)
                           and (not strict or rank(core) == core.nrows))
            _assert_witness(qform, cone, got, witness, strict)
            seen.add(got)
    assert seen == {True, False}
    assert counts == {"solve_general": 0, "lp_feasible_point": 0}


def test_copositivity_tries_at_most_one_subset_per_ray_family(monkeypatch):
    # Lineality in the first two coordinates, k = 3 rays: at most
    # 2^3 - 1 subset trials, not 2^(2*2 + 3) - 1, for both tests together:
    # the non-strict test reads the families the strict one solved on the
    # same cone and form.
    counts = _counting(monkeypatch, "solve_general")
    cone = PolyCone([(0, 0, -1, 0, 0), (0, 0, 0, -1, 0), (0, 0, 0, 0, -1)],
                    dim=5)
    qform = RatMatrix([[2, 1, 0, 0, 1], [1, 2, 0, 1, 0], [0, 0, 1, 0, 0],
                       [0, 1, 0, 1, 0], [1, 0, 0, 0, 1]])
    for strict in (True, False):
        got, _ = copositive_on_cone(qform, cone, strict)
        want, _ = copositivity_reference.copositive_on_cone(qform, cone,
                                                            strict)
        assert got == want
    assert 0 < counts["solve_general"] <= 2 ** 3 - 1


_FORGED_WITNESS_SCRIPT = """
import sys
import plqstab.enlp as enlp
from plqstab import PolyCone, identity
from plqstab.errors import InternalConsistencyError
if not sys.flags.optimize:
    sys.exit(3)
%s
try:
    enlp.copositive_on_cone(identity(2), PolyCone([(-1, 0), (0, -1)], dim=2),
                            strict=True)
except InternalConsistencyError as e:
    print(e)
    sys.exit(0)
sys.exit(4)
"""

# A ray family whose value is not negative, a zero witness, and rays
# reversed out of their cone: each is caught by an exact check, not an
# assert, so `python -O` keeps it.
_WITNESS_FORGERIES = {
    "value": ("enlp._orthant_copositive = lambda smat, strict: (1, 0)",
              "copositivity witness does not decrease the form"),
    "zero": ("enlp._orthant_copositive = lambda smat, strict: (0, 0)",
             "zero copositivity witness"),
    "rays": ("""
cone_generators = enlp._cone_generators
def forged(rows, dim):
    lin, rays = cone_generators(rows, dim)
    return lin, tuple(tuple(-v for v in r) for r in rays)
enlp._cone_generators = forged
""", "generator violates H-representation"),
}


def test_copositivity_checks_survive_optimize():
    for body, message in _WITNESS_FORGERIES.values():
        out = subprocess.run([sys.executable, "-O", "-c",
                              _FORGED_WITNESS_SCRIPT % body],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == message


def _solution_contexts():
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    for seed in (1, 2, 3):
        files += [parse_problem_doc(doc, name_hint=name)
                  for name, doc in random_enlp_docs(seed, 10)]
    for pf in files:
        system = pf.problem
        for x, lam in pf.points:
            ctx = system.point(x, lam)
            if ctx.solves:
                yield ctx


def test_face_regions_match_the_fourier_motzkin_reference():
    regions = 0
    for ctx in _solution_contexts():
        for face in ctx.faces:
            got = stability._face_region(ctx, face)
            want = face_region_reference.face_region(ctx, face)
            assert got.dim == want.dim and got.set_equal(want), \
                (ctx.x, ctx.lam, face.tight)
            regions += 1
    assert regions >= 60, regions

