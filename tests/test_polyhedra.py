"""Polyhedral geometry: membership, cones, faces, projections, unions."""

import itertools
import random

import pytest

from plqstab import (PolyCone, Polyhedron, PolyUnion, analyze_problem,
                     corpus_names, corpus_path, critical_cone, dual_cone,
                     fm_project, horizon_cone, limiting_normal_cone_union,
                     normal_cone, parse_problem_file, polar_cone, polyhedra,
                     rat, tangent_cone)
from plqstab import enlp, stability
from plqstab.linalg import rank
from plqstab.lp import lp_feasible_point
from plqstab.rational import vdot
from dd_reference import cone_generators_by_lp, faces_by_lp, in_cone_span
from projection_reference import project_by_subsets

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
        p = Polyhedron(rows, rhs).with_dim(dim)
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
    n0 = normal_cone(ORTHANT2, (0, 0))
    assert n0.contains((-1, -2)) and not n0.contains((1, 0))  # R^2_-
    n_int = normal_cone(ORTHANT2, (1, 1))
    assert n_int.is_trivial()
    n_edge = normal_cone(ORTHANT2, (0, 1))                    # R_- x {0}
    assert n_edge.contains((-3, 0))
    assert not n_edge.contains((0, 1)) and not n_edge.contains((1, 0))


def test_normal_is_polar_of_tangent_on_random_boundary_points():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        p = rand_polyhedron(rng, rng.randint(1, 3))
        pt = p.some_point()
        if pt is None or not p.tight_rows(pt):
            continue
        assert normal_cone(p, pt).set_equal(tangent_cone(p, pt).polar())
        checked += 1


def test_critical_cone_examples():
    # orthant at 0 with zero normal: the whole tangent cone
    k = critical_cone(ORTHANT2, (0, 0), (0, 0))
    assert k.set_equal(tangent_cone(ORTHANT2, (0, 0)))
    # rank-one penalty base data: lam = 0, v = 0 gives K = Y for the orthant
    k2 = critical_cone(ORTHANT2, (0, 0), (-1, -1))
    assert k2.contains((0, 0)) and not k2.contains((1, 1))
    with pytest.raises(ValueError):
        critical_cone(ORTHANT2, (0, 0), (1, 1))   # not a normal vector


def test_critical_cone_inside_tangent_cone_randomized():
    rng = random.Random(19)
    for _ in range(30):
        p = rand_polyhedron(rng, 2)
        pt = p.some_point()
        if pt is None:
            continue
        tcone = tangent_cone(p, pt)
        ncone = normal_cone(p, pt)
        lin, rays = ncone.generators()
        gens = list(rays) + list(lin)
        v = (rat(0), rat(0))
        for g in gens:
            v = tuple(a + b for a, b in zip(v, g))
        k = critical_cone(p, pt, v)
        for g in list(k.extreme_rays()) + list(k.lineality_basis()):
            assert tcone.contains(g)


# -- polarity ------------------------------------------------------------------------


def test_dual_cone_convention():
    orth = PolyCone([(-1, 0), (0, -1)], dim=2)
    d = dual_cone(orth)
    assert d.contains((1, 1)) and not d.contains((-1, 0))   # (R^2_+)* = R^2_+
    p = polar_cone(orth)
    assert p.contains((-1, -1)) and not p.contains((1, 0))  # paper-sign polar
    half = PolyCone([(-1, 0)], dim=2)                        # R_+ x R
    dh = dual_cone(half)
    assert dh.contains((1, 0)) and not dh.contains((0, 1)) \
        and not dh.contains((0, -1))                          # R_+ x {0}
    ph = polar_cone(half)
    assert ph.contains((-1, 0)) and not ph.contains((0, 1))  # R_- x {0}
    trivial = PolyCone([(1, 0), (-1, 0), (0, 1), (0, -1)], dim=2)
    assert dual_cone(trivial).contains((5, -9))               # whole space


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
        p = Polyhedron(rows, rhs).with_dim(dim)
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


# -- double description and faces against the LP reference --------------------------


def _assert_matches_dd_reference(cone, monkeypatch):
    assert (polyhedra._cone_generators(cone.rows, cone.dim)
            == cone_generators_by_lp(cone.rows, cone.dim)), cone.rows
    monkeypatch.setattr(polyhedra, "_FACES_MEMO", {})
    got = tuple((f.tight, f.piece.rows) for f in cone.faces())
    assert got == faces_by_lp(cone), cone.rows


def test_double_description_and_faces_match_the_lp_reference(monkeypatch):
    # A cone over a square cut by x <= 0 along one diagonal: the rays of
    # the other diagonal are not adjacent, and the only third rays on
    # their common face lie on the cutting hyperplane.
    pyramid = [(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1), (1, 0, 0)]
    _assert_matches_dd_reference(PolyCone(pyramid, dim=3), monkeypatch)
    assert len(PolyCone(pyramid, dim=3).extreme_rays()) == 3
    rng = random.Random(1953)
    seen = {"lineality": 0, "rays": 0, "equality pair": 0, "many faces": 0}
    for _ in range(300):
        dim = rng.randint(1, 5)
        rows = [tuple(rat(rng.randint(-2, 2)) for _ in range(dim))
                for _ in range(rng.randint(0, 7))]
        cone = PolyCone(rows, dim=dim)
        _assert_matches_dd_reference(cone, monkeypatch)
        lin, rays = cone.generators()
        seen["lineality"] += bool(lin) and bool(rays)
        seen["rays"] += len(rays) >= 3
        seen["equality pair"] += bool(cone.as_polyhedron._split[0])
        seen["many faces"] += len(cone.faces()) >= 8
    assert min(seen.values()) >= 20, seen


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
            assert critical_cone(p, pt, v).dim == p.dim
        else:
            with pytest.raises(ValueError):
                critical_cone(p, pt, v)
    assert min(verdicts.values()) >= 10, verdicts


# -- horizon ----------------------------------------------------------------------------


def test_horizon_cone_examples():
    orth_h = horizon_cone(ORTHANT2)
    assert orth_h.set_equal(PolyCone([(-1, 0), (0, -1)], dim=2))
    box = Polyhedron([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 1, 1, 1])
    assert horizon_cone(box).is_trivial()
    half = Polyhedron([(1, 0)], [1]).with_dim(2)
    h = horizon_cone(half)
    assert h.contains((-2, 5)) and not h.contains((1, 0))
    with pytest.raises(ValueError):
        horizon_cone(Polyhedron.empty(2))


def test_horizon_cone_by_scaling_samples():
    rng = random.Random(29)
    half = Polyhedron([(1, 0)], [1]).with_dim(2)
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
        assert normal_cone(p, pt).contains(resid)


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
    poly = Polyhedron(rows, rhs).with_dim(dim)
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
            tight = [poly.b[i] for i in poly.tight_rows(pt)]
            seen["degenerate"] += d2 > 0 and rank(tight) < len(tight)
        assert poly.project_point(points[1])[0] == y0
    # the row patterns the instances are built to contain did occur
    assert min(seen.values()) >= 20, seen


# -- Fourier-Motzkin -----------------------------------------------------------------------


def test_fm_project_examples():
    p = Polyhedron([(1, 1), (0, -1)], [1, 0]).with_dim(2)
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
        convex = normal_cone(p, pt)
        for c in union:
            for g in list(c.extreme_rays()) + list(c.lineality_basis()):
                assert convex.contains(g)
        for g in list(convex.extreme_rays()) + list(convex.lineality_basis()):
            assert union.contains(g)


def test_limiting_normals_whole_space_trivial():
    w = Polyhedron((), ()).with_dim(2)
    cones = limiting_normal_cone_union(PolyUnion([w]), (1, 1))
    assert all(c.is_trivial() for c in cones)
    with pytest.raises(ValueError):
        limiting_normal_cone_union(PolyUnion([ORTHANT2]), (-1, -1))
