"""The limiting normals of the subdifferential graph from pairs of faces of
the critical cone, against the reference decomposition: the graph as a
union of polyhedra (`PlqPenalty.graph_pieces`) and its limiting normal
cones through a hyperplane arrangement (`limiting_normal_cone_union`)."""

import random

from plqstab import coderivative_contains, limiting_normal_cone_union, rat
from plqstab.plq import subdiff_graph_normal_cones
from plqstab.stability import nontrivial_over

from support import random_enlp_with_kkt


def reference_normals(penalty, zbar, lam):
    return limiting_normal_cone_union(penalty.graph_pieces(), tuple(zbar) + tuple(lam))


def reference_lipschitz_like(problem, x, lam) -> bool:
    """The coderivative criterion on the reference normal cones: only the
    zero pair (xi, eta) has H xi + G^T eta = 0 and (eta, -G xi) in one of
    the cones."""
    ctx = problem.to_varsys().point(x, lam)
    hess, gmat, n, m = ctx.amat, ctx.gmat, problem.n, problem.m
    a_eq = [tuple(hess.rows[i]) + tuple(gmat.rows[k][i] for k in range(m))
            for i in range(n)]
    systems = ((n + m, a_eq,
                [tuple(-v for v in gmat.rmatvec(h[m:])) + tuple(h[:m])
                 for h in cone.rows])
               for cone in reference_normals(problem.penalty, ctx.zbar, ctx.lam))
    return nontrivial_over(systems, range(n + m)) is None


def test_lipschitz_like_verdicts_match_the_reference():
    rng = random.Random(20261018)
    verdicts = []
    for shape in [(2, 2, 2)] * 300 + [(3, 3, 3)] * 100:
        problem, x, lam = random_enlp_with_kkt(rng, *shape)
        got = problem.lipschitz_like_skkt(x, lam)
        assert got == reference_lipschitz_like(problem, x, lam), (shape, x, lam)
        verdicts.append(got)
    assert 50 < sum(verdicts) < len(verdicts) - 50  # both verdicts are tested


def _generators(cone):
    lin, rays = cone.generators()
    return list(rays) + list(lin) + [tuple(-v for v in l) for l in lin]


def test_coderivative_matches_the_reference_union():
    rng = random.Random(7)
    tested = members = 0
    for _ in range(60):
        problem, x, lam = random_enlp_with_kkt(rng, 2, 3, 3)
        pen, zbar, m = problem.penalty, problem.phi.eval(x), problem.m
        reference = reference_normals(pen, zbar, lam)
        vectors = []
        for cone in list(subdiff_graph_normal_cones(pen, zbar, lam)) + list(reference):
            gens = _generators(cone)
            vectors += gens
            for _ in range(3):
                combo = [rat(0)] * (2 * m)
                for g in gens:
                    c = rat(rng.randint(0, 3), rng.randint(1, 3))
                    combo = [a + c * b for a, b in zip(combo, g)]
                vectors.append(tuple(combo))
        vectors += [tuple(rat(rng.randint(-2, 2)) for _ in range(2 * m))
                    for _ in range(10)]
        for v in vectors:
            u, w = v[:m], tuple(-a for a in v[m:])
            expected = reference.contains(v)
            assert coderivative_contains(pen, zbar, lam, w, u) == expected, (v,)
            tested += 1
            members += expected
    assert 0 < members < tested
