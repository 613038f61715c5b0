"""Shared builders: golden instances and randomized instance generators.

Golden instances are small systems with known exact behavior (multiplier
sets, criticality pattern, stability flags); the generators build random
systems *around* a chosen solution so that every produced instance has a
verified exact solution by construction.
"""

from __future__ import annotations

import importlib.util
import os
import random
import sys

from plqstab import (EnlpProblem, PlqPenalty, PolyMap, Polyhedron, Polynomial,
                     RatMatrix, VarSystem, identity, parse_expression, rat)
from plqstab.linalg import zeros
from plqstab.rational import vdot

ORTHANT2 = Polyhedron([(-1, 0), (0, -1)], [0, 0])


def pe(text, n):
    return parse_expression(text, n)


def quad_penalty_2d() -> PlqPenalty:
    """Y = R^2_+, B = I: the squared-plus penalty in two variables."""
    return PlqPenalty(ORTHANT2, identity(2))


def rank1_penalty_2d() -> PlqPenalty:
    """Y = R^2_+, B = diag(1, 0): quadratic in the first slot only."""
    return PlqPenalty(ORTHANT2, RatMatrix([(1, 0), (0, 0)]))


def parabola_system() -> VarSystem:
    """n=1, m=2: f = -x, Phi = (0, x^2), rank-1 quadratic penalty.

    At x = 0 the multipliers form the ray {0} x R_+; the multiplier
    (0, 1/2) is the unique critical one.
    """
    return VarSystem(PolyMap([pe("-x1", 1)]),
                     PolyMap([pe("0", 1), pe("x1^2", 1)]),
                     rank1_penalty_2d())


def embed_system_full_rank() -> VarSystem:
    """n=m=2: f = x, Phi = (x1, 0), B = I; unique noncritical multiplier."""
    return VarSystem(PolyMap([pe("x1", 2), pe("x2", 2)]),
                     PolyMap([pe("x1", 2), pe("0", 2)]),
                     quad_penalty_2d())


def embed_system_rank_drop() -> VarSystem:
    """n=m=2: f = (x1, 0), Phi = (x1, 0), B = I; critical multiplier with
    primal direction along the dropped coordinate."""
    return VarSystem(PolyMap([pe("x1", 2), pe("0", 2)]),
                     PolyMap([pe("x1", 2), pe("0", 2)]),
                     quad_penalty_2d())


def flat_system() -> VarSystem:
    """n=m=2: f = 0, Phi = (x1, 0), rank-1 penalty; multiplier ray, no
    dual qualification."""
    return VarSystem(PolyMap([pe("0", 2), pe("0", 2)]),
                     PolyMap([pe("x1", 2), pe("0", 2)]),
                     rank1_penalty_2d())


def scalar_system() -> VarSystem:
    """n=m=1: f = x, Phi = x over Y = R_+, B = 1."""
    pen = PlqPenalty(Polyhedron([(-1,)], [0]), RatMatrix([(1,)]))
    return VarSystem(PolyMap([pe("x1", 1)]), PolyMap([pe("x1", 1)]), pen)


def quad_cost_enlp(n=2) -> EnlpProblem:
    """min |x|^2 + theta(x) with Y = R^n_+, B = I; strict minimum at 0."""
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = -1
        rows.append(tuple(e))
    pen = PlqPenalty(Polyhedron(rows, [0] * n), identity(n))
    phi0 = pe(" + ".join("x%d^2" % (i + 1) for i in range(n)), n)
    phi = PolyMap([pe("x%d" % (i + 1), n) for i in range(n)], n=n)
    return EnlpProblem(phi0, phi, pen)


def parabola_enlp() -> EnlpProblem:
    """The parabola system as an ENLP (phi0 = -x^2/2)."""
    return EnlpProblem(pe("0 - 1/2*x1^2", 1),
                       PolyMap([pe("0", 1), pe("x1^2", 1)]),
                       rank1_penalty_2d())


def flat_enlp() -> EnlpProblem:
    """The flat system as an ENLP (phi0 = 0)."""
    return EnlpProblem(pe("0", 2), PolyMap([pe("x1", 2), pe("0", 2)]),
                       rank1_penalty_2d())


def smooth_enlp() -> EnlpProblem:
    """min x^2/2 + theta(x) with Y = R, B = 1 (everywhere smooth)."""
    pen = PlqPenalty(Polyhedron((), (), 1), RatMatrix([(1,)]))
    return EnlpProblem(pe("1/2*x1^2", 1), PolyMap([pe("x1", 1)]), pen)


# -- randomized instances with verified solutions -----------------------------------


def random_penalty(rng: random.Random, m, p_max=3, b_rank_max=None):
    """A random (Y, B) with a marked point lam_bar in Y."""
    lam_bar = tuple(rat(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m))
    rows, alpha = [], []
    for _ in range(rng.randint(0, p_max)):
        b = tuple(rat(rng.randint(-2, 2)) for _ in range(m))
        if all(v == 0 for v in b):
            continue
        val = vdot(b, lam_bar)
        if rng.random() < 0.5:
            rows.append(b)
            alpha.append(val)                      # tight at lam_bar
        else:
            rows.append(b)
            alpha.append(val + rat(rng.randint(1, 3)))  # strictly slack
    ypoly = Polyhedron(rows, alpha, m)
    k = rng.randint(0, m if b_rank_max is None else b_rank_max)
    if k:
        c = RatMatrix([[rat(rng.randint(-1, 1)) for _ in range(m)]
                       for _ in range(k)])
        bmat = c.T @ c
    else:
        bmat = zeros(m, m)
    return PlqPenalty(ypoly, bmat), lam_bar


def _graph_point(pen: PlqPenalty, lam_bar, rng):
    """A z_bar with lam_bar a subgradient at z_bar, by construction."""
    tight = pen.Y.tight_rows(lam_bar)
    z = list(pen.B.matvec(lam_bar))
    for i in sorted(tight):
        beta = rat(rng.randint(0, 2))
        for j in range(pen.m):
            z[j] += beta * pen.Y.b[i][j]
    return tuple(z)


def _random_polymap(rng, n, m, const, quadratic=True):
    """Polynomial map with prescribed value at the origin."""
    comps = []
    for i in range(m):
        terms = {(0,) * n: const[i]}
        for j in range(n):
            e = [0] * n
            e[j] = 1
            terms[tuple(e)] = rat(rng.randint(-2, 2))
        if quadratic:
            for _ in range(rng.randint(0, 2)):
                e = [0] * n
                e[rng.randrange(n)] += 1
                e[rng.randrange(n)] += 1
                terms[tuple(e)] = terms.get(tuple(e), rat(0)) + rat(rng.randint(-1, 1))
        comps.append(Polynomial(n, terms))
    return PolyMap(comps, n=n)


def random_varsys_with_solution(rng: random.Random, n_max=3, m_max=3, p_max=3):
    """(system, xbar=0, lam_bar), an exact solution by construction."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    pen, lam_bar = random_penalty(rng, m, p_max=p_max)
    zbar = _graph_point(pen, lam_bar, rng)
    phi = _random_polymap(rng, n, m, zbar)
    jac = phi.jacobian_at((rat(0),) * n)
    fconst = tuple(-v for v in jac.rmatvec(lam_bar))
    fmap = _random_polymap(rng, n, n, fconst)
    system = VarSystem(fmap, phi, pen)
    xbar = (rat(0),) * n
    assert system.point(xbar, lam_bar).solves, "generator must produce solutions"
    return system, xbar, lam_bar


def random_enlp_with_kkt(rng: random.Random, n_max=2, m_max=2, p_max=2):
    """(problem, xbar=0, lam_bar) solving the KKT system exactly."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    pen, lam_bar = random_penalty(rng, m, p_max=p_max)
    zbar = _graph_point(pen, lam_bar, rng)
    phi = _random_polymap(rng, n, m, zbar)
    jac = phi.jacobian_at((rat(0),) * n)
    grad0 = tuple(-v for v in jac.rmatvec(lam_bar))
    terms = {}
    for j in range(n):
        e = [0] * n
        e[j] = 1
        terms[tuple(e)] = grad0[j]
    for j in range(n):  # random symmetric quadratic part
        for k in range(j, n):
            e = [0] * n
            e[j] += 1
            e[k] += 1
            terms[tuple(e)] = rat(rng.randint(-2, 2))
    phi0 = Polynomial(n, terms)
    problem = EnlpProblem(phi0, phi, pen)
    xbar = (rat(0),) * n
    ok, _ = problem.kkt_check(xbar, lam_bar)
    assert ok, "generator must produce KKT points"
    return problem, xbar, lam_bar


def random_rational_vec(rng: random.Random, n, num=5, den=7):
    return tuple(rat(rng.randint(-num, num), rng.randint(1, den))
                 for _ in range(n))


def ball_sample(rng: random.Random, n, radius_num=1, radius_den=100):
    """A random rational point with infinity norm <= radius."""
    scale = rat(radius_num, radius_den)
    return tuple(scale * rat(rng.randint(-8, 8), 8) for _ in range(n))


def _file_module(folder, name):
    """The module `<folder>/<name>.py` of the checkout, loaded from its
    file, with `<folder>` on the import path while it loads."""
    folder = os.path.join(os.path.dirname(__file__), os.pardir, folder)
    spec = importlib.util.spec_from_file_location(
        os.path.basename(folder) + "_" + name, os.path.join(folder, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, folder)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(folder)
    return module


def bench_module(name):
    """The benchmark's module `bench/<name>.py`, loaded from its file."""
    return _file_module("bench", name)


def random_enlp_docs(seed, count):
    """The problems of the benchmark's random-enlp pool `seed`."""
    return bench_module("workloads").random_enlp_docs(seed, count)


def scale_docs(m, count):
    """(name, document) of the first `count` documents of the scale set at
    m, as `tools/scale_check.py` builds them."""
    return _file_module("tools", "scale_check").scale_docs(m, count)
