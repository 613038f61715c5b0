"""Polyhedral geometry: membership, cones, faces, projections, unions."""

import itertools
import random
from types import SimpleNamespace

import pytest

from plqstab import (PolyCone, Polyhedron, PolyUnion, analyze_problem,
                     corpus_names, corpus_path, fm_project, horizon_cone,
                     limiting_normal_cone_union, parse_problem_file, polyhedra,
                     rat, tangent_cone)
from plqstab import enlp, stability
from plqstab.linalg import rank
from plqstab.lp import lp_feasible_point
from plqstab.problemfile import parse_problem_doc
from plqstab.rational import Rat, primitive, vdot
from affine_reference import affine_dimension_by_lp
from dd_reference import (canonical_generators, cone_generators_by_lp,
                          cone_generators_by_subsets, faces_by_incidence,
                          faces_by_lp, in_cone_span)
from projection_reference import first_certified_subset, project_by_subsets
from support import random_enlp_docs

ORTHANT2 = Polyhedron([(-1, 0), (0, -1)], [0, 0])


def rand_cone(rng, dim):
    rows = [tuple(rat(rng.randint(-2, 2)) for _ in range(dim))
            for _ in range(rng.randint(0, 4))]
    return PolyCone(rows, dim=dim)


def rand_polyhedron(rng, dim, nonempty=True):
    while True:
        rows = [tuple(rat(rng.randint(-2, 2)) for _ in range(dim))
                for _ in range(rng.randint(1, 4))]
        rhs = [rat(rng.randint(0 if nonempty else -2, 3)) for _ in rows]
        p = Polyhedron(rows, rhs, dim)
        if not nonempty or not p.is_empty():
            return p


# -- membership and active sets ---------------------------------------------------


def test_membership_and_active_set():
    assert ORTHANT2.contains((0, 1))
    face = ORTHANT2.active_set((0, 1))
    assert face.tight == frozenset({0})        # the row for y1 >= 0
    assert not ORTHANT2.contains((-1, 0))
    with pytest.raises(ValueError):
        ORTHANT2.active_set((-1, 0))


def test_active_set_by_substitution():
    y = Polyhedron([(1, 1), (-1, 0), (0, -1)], [1, 0, 0])
    face = y.active_set((1, 0))
    # tight rows: y1 + y2 <= 1 and y2 >= 0
    assert face.tight == frozenset({0, 2})


def _rows_reference(b_rows, alpha):
    """(b, alpha) of `Polyhedron` as it built them from `Rat` tuples: each
    row through `_canon_row`, first occurrences kept in a `seen` set, a
    zero b with alpha >= 0 dropped."""
    rows = []
    seen = set()
    for b, a in zip(b_rows, alpha):
        key = polyhedra._canon_row(tuple(rat(v) for v in b), rat(a))
        if key in seen:
            continue
        if all(v == 0 for v in key[0]) and key[1] >= 0:
            continue
        seen.add(key)
        rows.append(key)
    return tuple(r for r, _ in rows), tuple(a for _, a in rows)


def _entry(rng, q):
    """The Rat q as given to `Polyhedron`: an int, a str of an integer, an
    unreduced "p/q" str or a Rat."""
    kind = rng.choice(("int", "str", "p/q", "rat"))
    if kind == "int" and q.denominator == 1:
        return int(q)
    if kind == "str" and q.denominator == 1:
        return str(q)
    if kind == "p/q":
        k = rng.randint(1, 3)
        return "%d/%d" % (q.numerator * k, q.denominator * k)
    return q


def test_polyhedron_rows_match_the_rat_tuple_reference():
    rng = random.Random(36)

    def some_rat():
        return Rat(rng.randint(-3, 3), rng.randint(1, 3))

    seen = {"duplicate": 0, "zero dropped": 0, "zero kept": 0, "pair": 0}
    for _ in range(300):
        dim = rng.randint(1, 4)
        base = [([some_rat() for _ in range(dim)], some_rat())
                for _ in range(rng.randint(1, 3))]
        base.append(([Rat(0)] * dim, Rat(rng.randint(-2, 2))))
        b_rows, alpha = [], []
        for _ in range(rng.randint(1, 8)):
            b, a = rng.choice(base)
            # a positive multiple is the same row; a negative one is its
            # opposite, and the two make an equality pair
            t = Rat(rng.choice((1, 1, 2, 3, -1, -2)), rng.randint(1, 3))
            b_rows.append([_entry(rng, t * v) for v in b])
            alpha.append(_entry(rng, t * a))
        p = Polyhedron(b_rows, alpha, dim)
        ref_b, ref_alpha = _rows_reference(b_rows, alpha)
        assert (p.b, p.alpha) == (ref_b, ref_alpha), (b_rows, alpha)
        assert all(type(v) is Rat for r in p.b for v in r)
        assert all(type(a) is Rat for a in p.alpha)
        ref_split = Polyhedron._split.func(
            SimpleNamespace(b=ref_b, alpha=ref_alpha))
        assert p._split == ref_split
        zero = [rat(a) for b, a in zip(b_rows, alpha)
                if all(rat(v) == 0 for v in b)]
        dropped = sum(a >= 0 for a in zero)
        seen["duplicate"] += len(ref_b) < len(b_rows) - dropped
        seen["zero dropped"] += dropped > 0
        seen["zero kept"] += any(a < 0 for a in zero)
        seen["pair"] += bool(ref_split[0])
    assert min(seen.values()) >= 30, seen


# -- tangent / normal / critical ----------------------------------------------------


def test_tangent_cone_examples():
    t = tangent_cone(ORTHANT2, (0, 0))
    assert t.contains((1, 1)) and not t.contains((-1, 0))  # equals the orthant
    t_int = tangent_cone(ORTHANT2, (2, 3))
    assert t_int.contains((-5, -5))                         # whole space
    t_edge = tangent_cone(ORTHANT2, (0, 1))                 # R_+ x R
    assert t_edge.contains((0, -4)) and t_edge.contains((1, 7))
    assert not t_edge.contains((-1, 0))
    with pytest.raises(ValueError):
        tangent_cone(ORTHANT2, (-1, 0))


def test_normal_cone_examples():
    n0 = ORTHANT2.normal_cone_of(ORTHANT2.tight_rows((0, 0)))
    assert n0.contains((-1, -2)) and not n0.contains((1, 0))  # R^2_-
    n_int = ORTHANT2.normal_cone_of(ORTHANT2.tight_rows((1, 1)))
    assert n_int.generators() == ((), ())
    n_edge = ORTHANT2.normal_cone_of(ORTHANT2.tight_rows((0, 1)))  # R_- x {0}
    assert n_edge.contains((-3, 0))
    assert not n_edge.contains((0, 1)) and not n_edge.contains((1, 0))
    assert ORTHANT2.tight_rows((-1, 0)) is None
    with pytest.raises(ValueError, match="^normal cone requested at an "
                                         "exterior point$"):
        ORTHANT2.normal_cone_of(ORTHANT2.tight_rows((-1, 0)))


def test_normal_is_polar_of_tangent_on_random_boundary_points():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        p = rand_polyhedron(rng, rng.randint(1, 3))
        pt = p.some_point()
        if pt is None or not p.tight_rows(pt):
            continue
        assert p.normal_cone_of(p.tight_rows(pt)).set_equal(
            tangent_cone(p, pt).polar())
        checked += 1


def test_critical_cone_examples():
    # orthant at 0 with zero normal: the whole tangent cone
    tight = ORTHANT2.tight_rows((0, 0))
    k = ORTHANT2.critical_cone_of(tight, (0, 0))
    assert k.set_equal(tangent_cone(ORTHANT2, (0, 0)))
    # rank-one penalty base data: lam = 0, v = 0 gives K = Y for the orthant
    k2 = ORTHANT2.critical_cone_of(tight, (-1, -1))
    assert k2.contains((0, 0)) and not k2.contains((1, 1))
    with pytest.raises(ValueError):
        ORTHANT2.critical_cone_of(tight, (1, 1))   # not a normal vector
    with pytest.raises(ValueError, match="^critical cone requested at an "
                                         "exterior point$"):
        ORTHANT2.critical_cone_of(ORTHANT2.tight_rows((-1, 0)), (0, 0))


def test_critical_cone_inside_tangent_cone_randomized():
    rng = random.Random(19)
    for _ in range(30):
        p = rand_polyhedron(rng, 2)
        pt = p.some_point()
        if pt is None:
            continue
        tcone = tangent_cone(p, pt)
        ncone = p.normal_cone_of(p.tight_rows(pt))
        lin, rays = ncone.generators()
        gens = list(rays) + list(lin)
        v = (rat(0), rat(0))
        for g in gens:
            v = tuple(a + b for a, b in zip(v, g))
        k = p.critical_cone_of(p.tight_rows(pt), v)
        for g in k.generators()[1] + k.generators()[0]:
            assert tcone.contains(g)


# -- polarity ------------------------------------------------------------------------


def test_dual_cone_convention():
    orth = PolyCone([(-1, 0), (0, -1)], dim=2)
    d = orth.dual()
    assert d.contains((1, 1)) and not d.contains((-1, 0))   # (R^2_+)* = R^2_+
    p = orth.polar()
    assert p.contains((-1, -1)) and not p.contains((1, 0))  # paper-sign polar
    half = PolyCone([(-1, 0)], dim=2)                        # R_+ x R
    dh = half.dual()
    assert dh.contains((1, 0)) and not dh.contains((0, 1)) \
        and not dh.contains((0, -1))                          # R_+ x {0}
    ph = half.polar()
    assert ph.contains((-1, 0)) and not ph.contains((0, 1))  # R_- x {0}
    trivial = PolyCone([(1, 0), (-1, 0), (0, 1), (0, -1)], dim=2)
    assert trivial.dual().contains((5, -9))                   # whole space


def test_polar_involution_random():
    rng = random.Random(3)
    for _ in range(40):
        c = rand_cone(rng, rng.randint(1, 4))
        assert c.polar().polar().set_equal(c)


# -- faces -----------------------------------------------------------------------------


def test_faces_examples():
    orth = PolyCone([(-1, 0), (0, -1)], dim=2)
    faces = orth.faces()
    assert len(faces) == 4
    line = PolyCone([(1, 0), (-1, 0)], dim=2)
    assert len(line.faces()) == 1
    wedge = PolyCone([(-1, 0), (-1, 1)], dim=2)
    assert len(wedge.faces()) == 4


def test_faces_match_brute_force_tight_sets():
    rng = random.Random(13)
    for _ in range(12):
        dim = rng.randint(1, 3)
        rows = [tuple(rat(rng.randint(-2, 2)) for _ in range(dim))
                for _ in range(rng.randint(0, 6))]
        cone = PolyCone(rows, dim=dim)
        faces = cone.faces()
        # brute force: distinct solution sets over all tight subsets
        seen = set()
        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(len(cone.rows)), k)
                for k in range(len(cone.rows) + 1)):
            sub = PolyCone(list(cone.rows) +
                           [tuple(-v for v in cone.rows[i]) for i in subset],
                           dim=dim)
            key = frozenset(sub.generators()[0]) | frozenset(sub.generators()[1])
            seen.add(key)
        assert len(faces) == len(seen)


def test_face_tight_rows_follow_each_cones_row_order():
    # The same rows in two orders share one memo entry; each cone's tight
    # indices must name its own rows that vanish on the face.
    rows = [(-1, 0, 1), (-1, -1, 0), (1, 1, 0), (0, 0, -1)]
    for order in (rows, rows[::-1], rows[1:] + rows[:1]):
        cone = PolyCone(order, dim=3)
        for face in cone.faces():
            lin, rays = face.piece.generators()
            gens = list(lin) + list(rays)
            vanish = {i for i, r in enumerate(cone.rows)
                      if all(vdot(r, g) == 0 for g in gens)}
            assert face.tight == vanish


def test_faces_closed_under_intersection():
    cone = PolyCone([(-1, 0, 0), (0, -1, 0), (0, 0, -1)], dim=3)
    faces = cone.faces()
    for f1 in faces:
        for f2 in faces:
            meet = PolyCone(list(f1.piece.rows) + list(f2.piece.rows), dim=3)
            assert any(meet.set_equal(f.piece) for f in faces)


def test_difference_polar_matches_double_description():
    # polar(F1 - F2) for every pair of faces F2 <= F1 of random cones, as
    # rows from the faces' generators, against the polar that double
    # description makes of the generators span(eq) + cone(le) of F1 - F2.
    rng = random.Random(1996)
    pairs = with_lineality = 0
    for _ in range(150):
        dim = rng.randint(1, 4)
        cone = rand_cone(rng, dim)
        for (eq, le), (polar_eq, polar_le) in polyhedra.face_differences(cone):
            rows = polar_le + polar_eq + [tuple(-v for v in h) for h in polar_eq]
            got = PolyCone(rows, dim=dim)
            assert got.set_equal(PolyCone.from_generators(eq, le, dim)), cone.rows
            pairs += 1
            with_lineality += bool(eq) and bool(le)
    assert pairs >= 500 and with_lineality >= 50, (pairs, with_lineality)


def test_emptiness_matches_the_lp(monkeypatch):
    # A polyhedron whose right-hand sides are all >= 0 holds the origin
    # and is decided without an LP; every verdict agrees with one.  One LP
    # answers both `is_empty` and `some_point`, and repeated calls solve
    # none.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lp_feasible_point(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "lp_feasible_point", counted)
    rng = random.Random(1168)
    shortcut = 0
    for _ in range(200):
        dim = rng.randint(1, 3)
        rows = [tuple(rat(rng.randint(-2, 2)) for _ in range(dim))
                for _ in range(rng.randint(1, 5))]
        rhs = [rat(rng.randint(-2, 3)) for _ in rows]
        p = Polyhedron(rows, rhs, dim)
        origin = all(a >= 0 for a in p.alpha)
        shortcut += origin
        calls.clear()
        empty = p.is_empty()
        assert len(calls) == (0 if origin else 1)
        assert empty == (lp_feasible_point(p.b, p.alpha, n=dim) is None)
        point = p.some_point()
        assert len(calls) == 1
        assert point is None if empty else p.contains(point)
        assert (p.is_empty(), p.some_point()) == (empty, point)
        assert len(calls) == 1
    assert 20 <= shortcut <= 180, shortcut


def _affine_case(rng, kind):
    """A random polyhedron of the given kind in R^1..R^4.  Rows pass
    through or near an integer point y0, so the origin lies outside many
    of them and their emptiness and points come from the LP."""
    dim = rng.randint(1, 4)

    def vec():
        return tuple(rng.randint(-2, 2) for _ in range(dim))

    y0 = vec()
    rows, rhs = [], []

    def through(b, slack=0):
        rows.append(b)
        rhs.append(sum(u * v for u, v in zip(b, y0)) + slack)

    if kind == "equality":
        for _ in range(rng.randint(1, 3)):
            b = vec()
            through(b)
            through(tuple(-v for v in b))
    elif kind == "cycle":
        # rows that sum to zero, all tight at y0: each holds with equality
        # on the set, though no two of them need be opposite
        bs = [vec() for _ in range(rng.randint(2, 3))]
        bs.append(tuple(-sum(c) for c in zip(*bs)))
        for b in bs:
            through(b)
    elif kind == "scaled":
        for _ in range(rng.randint(1, 3)):
            b, slack, k = vec(), rng.randint(0, 2), rng.randint(1, 3)
            through(b, slack)
            through(tuple(k * v for v in b), k * slack)
            through(tuple(-v for v in b), -slack * rng.randint(0, 1))
    elif kind == "empty":
        b, gap = vec(), rng.randint(1, 2)
        through(b)
        through(tuple(-v for v in b), -gap)
    for _ in range(rng.randint(0, 2) if kind != "unbounded" else 1):
        through(vec(), rng.randint(0, 2))
    return Polyhedron(rows, rhs, dim)


def test_affine_dimension_matches_the_row_lps():
    # The generators of the tangent cone at one point span the affine
    # hull; the reference solves one LP per row for the implicit
    # equalities.
    rng = random.Random(3301)
    kinds = ("equality", "cycle", "scaled", "empty", "unbounded", "random")
    seen = {kind: set() for kind in kinds}
    implicit = origin = 0
    for _ in range(120):
        for kind in kinds:
            p = _affine_case(rng, kind)
            dim = p.affine_dimension()
            assert dim == affine_dimension_by_lp(p), (kind, p.b, p.alpha)
            seen[kind].add(dim)
            # lower-dimensional with no opposite row pair to say so
            implicit += 0 <= dim < p.dim and not p.eq_system()[0]
            origin += all(a >= 0 for a in p.alpha)
    assert seen["empty"] == {-1} and len(seen["cycle"]) >= 3, seen
    assert all(len(dims) >= 3 for kind, dims in seen.items()
               if kind != "empty"), seen
    assert implicit >= 50 and 50 <= origin <= 600, (implicit, origin)


def test_multiplier_set_dimensions_match_the_row_lps(monkeypatch):
    # Every multiplier set of the corpus and random-enlp pools 1-3.
    from plqstab.varsys import VarSystem

    sets = {}
    multiplier_set = VarSystem.multiplier_set

    def recorded(self, x):
        out = multiplier_set(self, x)
        sets[id(out)] = out
        return out

    monkeypatch.setattr(VarSystem, "multiplier_set", recorded)
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(doc, name_hint=name) for seed in (1, 2, 3)
              for name, doc in random_enlp_docs(seed, 5)]
    for pf in files:
        analyze_problem(pf)
    dims = [mset.dimension for mset in sets.values()]
    assert dims == [affine_dimension_by_lp(mset.poly) for mset in sets.values()]
    assert {0, 1} <= set(dims) and len(dims) >= 20, dims


# -- double description and faces against the references ----------------------------


def _assert_matches_dd_reference(cone, monkeypatch):
    # The LP-based sweep makes the same rays in the same order.
    assert (polyhedra._cone_generators(cone.rows, cone.dim)
            == cone_generators_by_lp(cone.rows, cone.dim)), cone.rows
    monkeypatch.setattr(polyhedra, "_FACES_MEMO", {})
    got = tuple((f.tight, f.piece.rows) for f in cone.faces())
    assert got == faces_by_lp(cone), cone.rows


def _assert_matches_subset_reference(cone, monkeypatch):
    # The LP-free reference finds the rays orthogonal to the lineality
    # space, in no order: the sweep's lineality basis must equal its own,
    # and its rays, primitive and distinct, the same rays modulo lineality.
    lin, rays = polyhedra._cone_generators(cone.rows, cone.dim)
    ref_lin, ref_rays = cone_generators_by_subsets(cone.rows, cone.dim)
    assert lin == ref_lin, cone.rows
    assert canonical_generators(lin, rays) == (ref_lin, ref_rays), cone.rows
    assert len(rays) == len(ref_rays), cone.rows
    assert all(r == primitive(r) for r in rays), cone.rows
    monkeypatch.setattr(polyhedra, "_FACES_MEMO", {})
    got = tuple((f.tight, f.piece.rows) for f in cone.faces())
    assert got == faces_by_incidence(cone, ref_rays), cone.rows


# A cone over a square cut by x <= 0 along one diagonal: the rays of the
# other diagonal are not adjacent, and the only third rays on their common
# face lie on the cutting hyperplane.
PYRAMID = [(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1), (1, 0, 0)]


def _random_cones():
    """The 300 random cones (dim <= 5, <= 7 rows) of the double
    description tests, the same stream on every call."""
    rng = random.Random(1953)
    for _ in range(300):
        dim = rng.randint(1, 5)
        rows = [tuple(rat(rng.randint(-2, 2)) for _ in range(dim))
                for _ in range(rng.randint(0, 7))]
        yield PolyCone(rows, dim=dim)


def test_subset_reference_matches_the_lp_reference(monkeypatch):
    # The LP-free reference is itself checked against the LP reference on
    # a fixed handful of cones: the pyramid, the orthant, {0}, the whole
    # space, cones with lineality and equality pairs, and the first ten
    # random cones of dimension >= 3.
    handful = [PolyCone(PYRAMID, dim=3),
               PolyCone([(-1, 0, 0), (0, -1, 0), (0, 0, -1)], dim=3),
               PolyCone([(1, 0), (-1, 0), (0, 1), (0, -1)], dim=2),
               PolyCone([], dim=2),
               PolyCone([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 1, 0),
                         (0, -1, 0, 1)], dim=4),
               PolyCone([(1, 1, 0, 0, 0), (-1, 0, 1, 0, 0),
                         (0, -1, -1, 1, 0)], dim=5)]
    handful += [c for c in _random_cones() if c.dim >= 3][:10]
    for cone in handful:
        by_lp = cone_generators_by_lp(cone.rows, cone.dim)
        assert polyhedra._cone_generators(cone.rows, cone.dim) == by_lp, cone.rows
        ref = cone_generators_by_subsets(cone.rows, cone.dim)
        assert canonical_generators(*by_lp) == ref, cone.rows
        assert faces_by_incidence(cone, ref[1]) == faces_by_lp(cone), cone.rows
        _assert_matches_subset_reference(cone, monkeypatch)
    assert len(PolyCone(PYRAMID, dim=3).generators()[1]) == 3


def test_double_description_and_faces_match_the_subset_reference(monkeypatch):
    _assert_matches_subset_reference(PolyCone(PYRAMID, dim=3), monkeypatch)
    seen = {"lineality": 0, "rays": 0, "equality pair": 0, "many faces": 0}
    for cone in _random_cones():
        _assert_matches_subset_reference(cone, monkeypatch)
        lin, rays = cone.generators()
        seen["lineality"] += bool(lin) and bool(rays)
        seen["rays"] += len(rays) >= 3
        seen["equality pair"] += bool(cone._split[0])
        seen["many faces"] += len(cone.faces()) >= 8
    assert min(seen.values()) >= 20, seen


def _canonical_cone_rows(rows):
    """The cone rows as `PolyCone` canonicalized them before it became a
    `Polyhedron`: each row primitive, deduplicated in order, zero rows
    dropped."""
    out = []
    for r in rows:
        c = primitive(tuple(rat(v) for v in r))
        if any(v != 0 for v in c) and c not in out:
            out.append(c)
    return tuple(out)


def test_cone_rows_are_the_polyhedron_rows_of_zero_right_hand_sides():
    for cone in _random_cones():
        assert cone.rows == cone.b and set(cone.alpha) <= {0}
        assert len(cone.alpha) == len(cone.b)
    rng = random.Random(1953)
    for _ in range(300):
        dim = rng.randint(1, 5)
        rows = [tuple(rat(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                      for _ in range(dim)) for _ in range(rng.randint(0, 7))]
        rows += rows[:rng.randint(0, len(rows))]
        assert PolyCone(rows, dim=dim).rows == _canonical_cone_rows(rows), rows


def _tight_kind(p, y):
    """"outside", "tight" or "interior", after checking `tight_rows`
    against `contains` and the row-by-row tight set."""
    tight = p.tight_rows(y)
    assert (tight is None) == (not p.contains(y)), (p.b, p.alpha, y)
    if tight is None:
        return "outside"
    y = tuple(rat(v) for v in y)
    assert tight == frozenset(i for i in range(len(p.b))
                              if vdot(p.b[i], y) == p.alpha[i]), (p.b, y)
    return "tight" if tight else "interior"


def test_tight_rows_is_none_exactly_off_the_set():
    rng = random.Random(2019)
    kinds = {"outside": 0, "tight": 0, "interior": 0}
    for cone in _random_cones():
        for _ in range(3):
            y = [rng.randint(-1, 1) for _ in range(cone.dim)]
            kinds[_tight_kind(cone, y)] += 1
    checked = 0
    while checked < 300:
        p = rand_polyhedron(rng, rng.randint(1, 4), nonempty=False)
        if all(a == 0 for a in p.alpha):
            continue  # a cone: the loop above
        checked += 1
        points = [[rng.randint(-2, 2) for _ in range(p.dim)] for _ in range(3)]
        if not p.is_empty():
            points.append(p.some_point())
        for y in points:
            kind = _tight_kind(p, y)
            kinds[kind] += 1
            if kind == "outside":
                for build in (tangent_cone, Polyhedron.active_set):
                    with pytest.raises(ValueError, match="exterior point"):
                        build(p, y)
                with pytest.raises(ValueError, match="exterior point"):
                    p.normal_cone_of(p.tight_rows(y))
                with pytest.raises(ValueError, match="exterior point"):
                    p.critical_cone_of(p.tight_rows(y), (0,) * p.dim)
    assert min(kinds.values()) >= 100, kinds


def test_corpus_cones_match_the_lp_reference(monkeypatch):
    # Every cone the corpus analyses meet: the normal cones of Y (through
    # `from_generators`), the critical cones and their faces, and the
    # cones `stability` and `enlp` hand to double description directly
    # (reduced nontriviality systems, SOSC face regions, copositivity).
    for memo in ("_GEN_MEMO", "_FACES_MEMO", "_FROM_GEN_MEMO"):
        monkeypatch.setattr(polyhedra, memo, {})
    calls, faced = set(), set()
    cone_generators, faces = polyhedra._cone_generators, PolyCone.faces

    def recording_generators(rows, dim):
        calls.add((tuple(rows), dim))
        return cone_generators(rows, dim)

    def recording_faces(cone):
        faced.add((cone.rows, cone.dim))
        return faces(cone)

    for module in (polyhedra, stability, enlp):
        monkeypatch.setattr(module, "_cone_generators", recording_generators)
    monkeypatch.setattr(PolyCone, "faces", recording_faces)
    for name in corpus_names():
        analyze_problem(parse_problem_file(corpus_path(name)))
    monkeypatch.undo()
    assert len(calls) >= 10 and len(faced) >= 2, (len(calls), len(faced))
    for rows, dim in calls:
        assert cone_generators(rows, dim) == cone_generators_by_lp(rows, dim), rows
    for rows, dim in faced:
        _assert_matches_dd_reference(PolyCone(rows, dim=dim), monkeypatch)


def test_critical_cone_membership_matches_the_lp_reference():
    rng = random.Random(1996)
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        p = rand_polyhedron(rng, rng.randint(1, 3))
        pt = p.some_point()
        tight = [p.b[i] for i in sorted(p.tight_rows(pt))]
        weights = [rat(rng.randint(-1, 2)) for _ in tight]
        v = tuple(sum((w * b[k] for w, b in zip(weights, tight)), rat(0))
                  for k in range(p.dim))
        inside = in_cone_span(v, tight, [])
        verdicts[inside] += 1
        if inside:
            assert p.critical_cone_of(p.tight_rows(pt), v).dim == p.dim
        else:
            with pytest.raises(ValueError):
                p.critical_cone_of(p.tight_rows(pt), v)
    assert min(verdicts.values()) >= 10, verdicts


# -- horizon ----------------------------------------------------------------------------


def test_horizon_cone_examples():
    orth_h = horizon_cone(ORTHANT2)
    assert orth_h.set_equal(PolyCone([(-1, 0), (0, -1)], dim=2))
    box = Polyhedron([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 1, 1, 1])
    assert horizon_cone(box).generators() == ((), ())
    half = Polyhedron([(1, 0)], [1])
    h = horizon_cone(half)
    assert h.contains((-2, 5)) and not h.contains((1, 0))
    with pytest.raises(ValueError):
        horizon_cone(Polyhedron.empty(2))


def test_horizon_cone_by_scaling_samples():
    rng = random.Random(29)
    half = Polyhedron([(1, 0)], [1])
    h = horizon_cone(half)
    for _ in range(50):
        pt = (rat(rng.randint(-6, 1)), rat(rng.randint(-5, 5)))
        if half.contains(pt):
            # lambda_k * x stays feasible for small scalings iff direction
            # is in the horizon cone or the ray re-enters: sample check
            scaled = tuple(v * rat(1, 1000) for v in pt)
            assert half.contains(scaled)
    assert h.contains((-1, 3)) and h.contains((0, -2)) and not h.contains((2, 0))


# -- projection ---------------------------------------------------------------------------


def test_project_point_examples():
    pt, d2 = ORTHANT2.project_point((-1, 2))
    assert pt == (rat(0), rat(2)) and d2 == 1
    pt, d2 = ORTHANT2.project_point((3, 4))
    assert pt == (rat(3), rat(4)) and d2 == 0
    zero = Polyhedron([(1,), (-1,)], [0, 0])
    pt, d2 = zero.project_point((rat(1, 20),))
    assert pt == (rat(0),) and d2 == rat(1, 400)
    with pytest.raises(ValueError):
        Polyhedron.empty(2).project_point((0, 0))


def test_projection_optimality_randomized():
    rng = random.Random(37)
    for _ in range(40):
        p = rand_polyhedron(rng, rng.randint(1, 3))
        x = tuple(rat(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(p.dim))
        pt, d2 = p.project_point(x)
        assert p.contains(pt)
        resid = tuple(a - b for a, b in zip(x, pt))
        assert vdot(resid, resid) == d2
        assert p.normal_cone_of(p.tight_rows(pt)).contains(resid)


def _projection_instance(rng):
    """(polyhedron, base point y0 in it, points to project, whether a row
    was written twice): dimension 1-4,
    at most 6 rows written, several tight at y0, with equality pairs,
    duplicate (also rescaled) rows and rows that are sums of others."""
    dim = rng.randint(1, 4)
    y0 = tuple(rat(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim))
    rows, rhs, dup = [], [], False
    target = rng.randint(1, 6)
    while len(rows) < target:
        kind = rng.choice(["tight", "tight", "slack", "eq", "dup", "sum"])
        b = tuple(rat(rng.randint(-2, 2)) for _ in range(dim))
        if kind == "eq" and len(rows) + 2 <= target:
            rows += [b, tuple(-v for v in b)]
            rhs += [vdot(b, y0), -vdot(b, y0)]
        elif kind == "dup" and rows:
            i, s = rng.randrange(len(rows)), rng.randint(1, 2)
            rows.append(tuple(s * v for v in rows[i]))
            rhs.append(s * rhs[i])
            dup = True
        elif kind == "sum" and len(rows) >= 2:
            i, j = rng.sample(range(len(rows)), 2)
            rows.append(tuple(u + v for u, v in zip(rows[i], rows[j])))
            rhs.append(rhs[i] + rhs[j] + rng.randint(0, 1))
        else:
            rows.append(b)
            rhs.append(vdot(b, y0) + (rng.randint(1, 3) if kind == "slack" else 0))
    poly = Polyhedron(rows, rhs, dim)
    tight = [poly.b[i] for i in sorted(poly.tight_rows(y0))]
    # y0 plus a normal vector at y0 (zero weights included) projects to y0
    normal = [rat(rng.randint(0, 2), rng.randint(1, 3)) for _ in tight]
    pushed = tuple(y + sum((w * b[k] for w, b in zip(normal, tight)), rat(0))
                   for k, y in enumerate(y0))
    far = tuple(rat(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(dim))
    return poly, y0, [y0, pushed, far], dup


def test_project_point_matches_the_all_subsets_reference():
    rng = random.Random(2024)
    seen = {"eq": 0, "dup": 0, "dependent": 0, "degenerate": 0}
    for _ in range(240):
        poly, y0, points, dup = _projection_instance(rng)
        eq_pairs, ineq = poly._split
        seen["dup"] += dup
        seen["eq"] += bool(eq_pairs)
        seen["dependent"] += len(ineq) > 1 and rank([poly.b[i] for i in ineq]) < len(ineq)
        for x in points:
            pt, d2 = poly.project_point(x)
            assert (pt, d2) == project_by_subsets(poly, x), (poly.b, poly.alpha, x)
            # the exact scan skips dependent active sets, yet certifies the
            # first set, in size order, that any multipliers certify
            subset = poly._projector.solve(tuple(-v for v in x), with_subset=True)[1]
            assert subset == first_certified_subset(poly, x), (poly.b, poly.alpha, x)
            tight = [poly.b[i] for i in poly.tight_rows(pt)]
            seen["degenerate"] += d2 > 0 and rank(tight) < len(tight)
        assert poly.project_point(points[1])[0] == y0
    # the row patterns the instances are built to contain did occur
    assert min(seen.values()) >= 20, seen


# -- Fourier-Motzkin -----------------------------------------------------------------------


def test_fm_project_examples():
    p = Polyhedron([(1, 1), (0, -1)], [1, 0])
    r = fm_project(p, [0])
    assert r.contains((1,)) and r.contains((-5,)) and not r.contains((2,))

    # product set onto one factor
    prod = Polyhedron([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 0, 2, 0])
    r2 = fm_project(prod, [1])
    assert r2.contains((0,)) and r2.contains((2,)) and not r2.contains((3,))

    # direct elimination of a lifted multiplier
    lifted = Polyhedron([(1, -1, -1), (-1, 1, 1), (0, 0, -1)], [0, 0, 0])
    r3 = fm_project(lifted, [0, 1])
    assert r3.contains((1, 0)) and r3.contains((1, 1))
    assert not r3.contains((0, 1))


def test_fm_project_membership_sampling():
    rng = random.Random(43)
    p = rand_polyhedron(rng, 3)
    keep = [0, 2]
    proj = fm_project(p, keep)
    inside = outside = 0
    while inside < 1000 or outside < 1000:
        pt = tuple(rat(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3))
        image = (pt[0], pt[2])
        if p.contains(pt):
            assert proj.contains(image)
            inside += 1
        elif not proj.contains(image):
            outside += 1
        else:
            # in the shadow but not from this lift: must have another preimage;
            # certify by a feasibility LP on the fiber
            from plqstab.lp import lp_feasible_point

            a_eq = [(rat(1), rat(0), rat(0)), (rat(0), rat(0), rat(1))]
            b_eq = [image[0], image[1]]
            assert lp_feasible_point(p.b, p.alpha, tuple(a_eq), tuple(b_eq),
                                     n=3) is not None
            outside += 1


# -- unions ------------------------------------------------------------------------------------


def test_limiting_normals_of_cross():
    ray1 = Polyhedron([(-1, 0), (0, 1), (0, -1)], [0, 0, 0])   # R_+ x {0}
    ray2 = Polyhedron([(1, 0), (-1, 0), (0, -1)], [0, 0, 0])   # {0} x R_+
    cones = limiting_normal_cone_union(PolyUnion([ray1, ray2]), (0, 0))
    expected = {(0, 5): True, (5, 0): True, (0, -5): True, (-5, 0): True,
                (-1, -1): True, (-2, -3): True,
                (1, 1): False, (1, -1): False, (-1, 1): False}
    for v, want in expected.items():
        assert cones.contains(v) == want, v


def test_limiting_normals_single_polyhedron_collapse():
    rng = random.Random(53)
    for _ in range(100):
        p = rand_polyhedron(rng, rng.randint(1, 2))
        pt = p.some_point()
        if pt is None:
            continue
        union = limiting_normal_cone_union(PolyUnion([p]), pt)
        convex = p.normal_cone_of(p.tight_rows(pt))
        for c in union:
            for g in c.generators()[1] + c.generators()[0]:
                assert convex.contains(g)
        for g in convex.generators()[1] + convex.generators()[0]:
            assert union.contains(g)


def test_limiting_normals_whole_space_trivial():
    w = Polyhedron((), (), 2)
    cones = limiting_normal_cone_union(PolyUnion([w]), (1, 1))
    assert all(c.generators() == ((), ()) for c in cones)
    with pytest.raises(ValueError):
        limiting_normal_cone_union(PolyUnion([ORTHANT2]), (-1, -1))
