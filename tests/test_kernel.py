"""Exact kernel: rationals, linear algebra, LP, QP, PSD tests."""

import functools
import math
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

import plqstab.linalg as linalg
import plqstab.lp as lp
from plqstab import (LpInfeasible, LpOptimal, LpProblem, LpUnbounded,
                     PlqPenalty, Polyhedron, Polynomial, QpInfeasible,
                     QpOptimal, QpUnbounded, RatMatrix, analyze_problem,
                     corpus_names, corpus_path, identity, lp_max, lp_solve,
                     parse_problem_file, psd_check, qp_solve, rat)
from plqstab.errors import InternalConsistencyError
from plqstab.linalg import (invert, is_positive_definite, kernel_basis,
                            pseudo_inverse_psd, rank, reduce_lineality, rref,
                            solve_general)
from plqstab.problemfile import parse_problem_doc
from plqstab.qp import StrictQpSolver
from plqstab.rational import (ZERO, Rat, format_rat, is_zero_vec, norm2,
                              parse_rat, primitive, sqrt_float, to_float, vdot)
from psd_reference import psd_reference
from rational_reference import (eval_reference, invert_reference,
                                kernel_basis_reference, primitive_reference,
                                rank_reference, rref_reference,
                                solve_general_reference, vdot_reference)
from support import random_enlp_docs


def test_rational_parsing_and_formatting():
    assert parse_rat("3/4") == rat(3, 4)
    assert parse_rat(5) == rat(5)
    assert parse_rat("-7/2") == rat(-7, 2)
    assert parse_rat("0.05") == rat(1, 20)
    assert format_rat(rat(3, 4)) == "3/4"
    assert format_rat(rat(-8, 2)) == "-4"
    with pytest.raises(ValueError):
        parse_rat("")
    with pytest.raises(ValueError):
        parse_rat(0.1)


def test_parse_rat_reads_only_the_documented_forms():
    # an optional sign and ASCII digits, as an integer, "p/q" or a plain
    # decimal; surrounding blanks are stripped
    for text, want in (("+3", rat(3)), (" -12 ", rat(-12)), (".5", rat(1, 2)),
                       ("5.", rat(5)), ("-0.25", rat(-1, 4)),
                       ("10/4", rat(5, 2))):
        assert parse_rat(text) == want, text
    # the integers it builds from the digits are the Rat of Fraction(text)
    for text in ("-0", "+5", "007", "-3/6", "4/2", ".5", "5.", "-0.050",
                 "-.5", "+3/9", "10/4", "-12.50"):
        got, want = parse_rat(text), Fraction(text)
        assert type(got) is Rat and got == want, text
        assert str(got) == str(want) and hash(got) == hash(want), text
    with pytest.raises(ValueError, match="^zero denominator$"):
        parse_rat("1/0")
    # scientific notation, digit separators, other digits and a blank
    # inside are refused, before any number is built: "1e100000000" alone
    # keeps Fraction busy for many seconds
    for text in ("1e3", "1e5", "1E5", "1e100000000", "2.5e-3", "1_000",
                 "1/1_0", "\u0663", "1\u0663", "1 / 2", "1/-2", "--1", "0x10",
                 "inf", "nan", "1/2/3", ".", "/2", "1/", "-.", "+"):
        with pytest.raises(ValueError, match="expected an integer, 'p/q' or "
                                             "a plain decimal"):
            parse_rat(text)


def test_norm2_beyond_float_range():
    assert norm2((10 ** 200,)) == 1e200          # the square overflows a float
    assert norm2((10 ** 400,)) == math.inf       # the norm itself does
    assert norm2((rat(3), rat(4))) == 5.0
    big = rat(10 ** 300, 3)
    assert norm2((big, big)) == math.hypot(float(big), float(big))
    assert sqrt_float(rat(2) ** 2047) == 2.0 ** 1023.5
    assert sqrt_float(rat(2) ** 2048) == math.inf


def test_norm2_below_float_range():
    assert norm2((rat(1, 10 ** 200),)) == 1e-200    # the square underflows
    assert math.isclose(sqrt_float(rat(3, 10 ** 310)), math.sqrt(3) * 1e-155,
                        rel_tol=1e-15)                 # a subnormal square
    assert sqrt_float(rat(2) ** -2148) == 2.0 ** -1074   # least subnormal root
    assert sqrt_float(rat(2) ** -2150) == 0.0            # the root underflows
    assert norm2((rat(0), rat(0))) == 0.0


def test_to_float_saturates_past_float_range():
    assert to_float(rat(10) ** 400) == math.inf
    assert to_float(-rat(10) ** 400) == -math.inf
    assert to_float(rat(1, 3)) == 1 / 3


def test_primitive_scaling():
    assert primitive((rat(1, 2), rat(-3, 4))) == (rat(2), rat(-3))
    assert primitive((rat(0), rat(0))) == (rat(0), rat(0))
    assert primitive((rat(4), rat(6))) == (rat(2), rat(3))


def test_linear_solvers():
    a = RatMatrix([(1, 2), (3, 4)])
    x = invert(a).matvec((1, 1))
    assert a.matvec(x) == (rat(1), rat(1))
    sol = solve_general(RatMatrix([(1, 1, 0)]), (2,))
    assert sol is not None
    x0, null = sol
    assert len(null) == 2
    assert solve_general(RatMatrix([(0, 0)]), (1,)) is None
    assert kernel_basis(RatMatrix([(1, -1)])) == [(rat(1), rat(1))]
    assert rank(RatMatrix([(1, 2), (2, 4)])) == 1


def test_pseudo_inverse_psd_properties():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        c = RatMatrix([[rat(rng.randint(-2, 2)) for _ in range(n)]
                       for _ in range(rng.randint(0, n))] or [[rat(0)] * n])
        m = c.T @ c
        p = pseudo_inverse_psd(m)
        assert m @ p @ m == m
        assert p @ m @ p == p
        assert (m @ p).T == m @ p


# -- fraction-free kernels against step-by-step Rat arithmetic -----------------


def _entry(rng, zeros):
    """An int or a Rat, zero with probability `zeros`; the nonzero Rats
    have denominators up to 10**6."""
    if rng.random() < zeros:
        return rng.choice((0, ZERO))
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice((-1, 1)) * rng.randint(1, 20)
    if kind == 1:
        return rat(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))
    return rat(rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(1, 10 ** 6))


def _random_rows(rng):
    """A matrix of mixed int/Rat entries: sparse (about 60% zeros), dense,
    all-zero, or rank-deficient with dependent rows; empty, 1 x n, n x 1,
    wide and tall shapes all occur."""
    nr, nc = rng.choice(((0, 0), (1, rng.randint(1, 6)), (rng.randint(1, 6), 1),
                         (rng.randint(1, 3), rng.randint(4, 7)),
                         (rng.randint(4, 7), rng.randint(1, 3)),
                         (rng.randint(2, 5), rng.randint(2, 5))))
    kind = rng.choice(("sparse", "sparse", "dense", "zero", "dependent"))
    if kind == "zero":
        return [[rng.choice((0, ZERO)) for _ in range(nc)] for _ in range(nr)]
    zeros = 0.1 if kind == "dense" else 0.6
    rows = [[_entry(rng, zeros) for _ in range(nc)] for _ in range(nr)]
    if kind == "dependent" and nr > 1:
        base = rows[:rng.randint(1, nr - 1)]
        for i in range(len(base), nr):
            coef = [_entry(rng, 0.4) for _ in base]
            rows[i] = [vdot_reference(coef, [rat(r[j]) for r in base])
                       for j in range(nc)]
        rng.shuffle(rows)
    return rows


def _rats(rows):
    return [[rat(v) for v in r] for r in rows]


def test_vdot_primitive_match_reference():
    rng = random.Random(41)
    for case in range(600):
        n = rng.randint(0, 7)
        zeros = 0.6 if case % 2 else 0.1
        a = [_entry(rng, zeros) for _ in range(n)]
        b = [_entry(rng, zeros) for _ in range(n)]
        got = vdot(a, b)
        assert got == vdot_reference(a, b) and isinstance(got, Rat), (a, b)
        got = primitive(a)
        assert got == primitive_reference(a), a
        assert all(isinstance(v, Rat) for v in got)


def test_rref_matches_reference():
    rng = random.Random(42)
    shapes = set()
    for _ in range(600):
        rows = _random_rows(rng)
        red, piv = rref(rows)
        ref_red, ref_piv = rref_reference(_rats(rows))
        assert piv == ref_piv, rows
        assert red == ref_red, rows     # same values in the same row order
        assert all(isinstance(v, Rat) for r in red for v in r)
        shapes.add((len(rows), len(rows[0]) if rows else 0, len(piv)))
    # empty, 1 x n, n x 1, rank-deficient and zero matrices all occurred
    assert (0, 0, 0) in shapes
    assert any(r == 1 < c for r, c, _ in shapes)
    assert any(c == 1 < r for r, c, _ in shapes)
    assert any(0 < k < min(r, c) for r, c, k in shapes)
    assert any(r > 1 and c > 1 and k == 0 for r, c, k in shapes)


def test_linalg_solvers_match_reference():
    rng = random.Random(43)
    square = 0
    for _ in range(500):
        rows = _random_rows(rng)
        if not rows or not rows[0]:
            continue
        mat = RatMatrix(rows)
        ref = mat.rows
        assert rank(mat) == rank_reference(ref)
        assert kernel_basis(mat) == kernel_basis_reference(ref)
        x0 = [_entry(rng, 0.5) for _ in range(mat.ncols)]
        b = mat.matvec(x0) if rng.random() < 0.6 else \
            [_entry(rng, 0.5) for _ in range(mat.nrows)]
        assert solve_general(mat, b) == solve_general_reference(ref, b)
        if mat.is_square():
            square += 1
            assert invert(mat) == invert_reference(ref)
    assert square >= 50


def test_polynomial_eval_matches_reference():
    rng = random.Random(44)
    for _ in range(500):
        n = rng.randint(1, 4)
        terms = {tuple(rng.randint(0, 3) for _ in range(n)): _entry(rng, 0.0)
                 for _ in range(rng.randint(0, 6))}
        poly = Polynomial(n, terms)
        point = [_entry(rng, 0.5) for _ in range(n)]
        got = poly.eval(point)
        assert got == eval_reference(poly, point) and isinstance(got, Rat)


# -- LP ------------------------------------------------------------------------


def test_lp_zero_objective_any_feasible():
    out = lp_max((0,), a_ub=((1,),), b_ub=(1,))
    assert isinstance(out, LpOptimal) and out.value == 0
    assert out.point[0] <= 1


def test_lp_contradictory_bounds_infeasible():
    out = lp_max((1,), a_ub=((1,), (-1,)), b_ub=(-1, -1))
    assert isinstance(out, LpInfeasible)


def test_lp_vertex_optimum():
    # max 2y1 - 3y2 over y >= 0, y1 <= 2: vertex (2, 0), value 4
    out = lp_max((2, -3), a_ub=((-1, 0), (0, -1), (1, 0)), b_ub=(0, 0, 2))
    assert isinstance(out, LpOptimal)
    assert out.point == (rat(2), rat(0)) and out.value == 4


def test_lp_unbounded_ray():
    out = lp_max((1,), a_ub=((-1,),), b_ub=(0,))
    assert isinstance(out, LpUnbounded)
    assert out.ray[0] > 0


def test_lp_certificates_on_random_instances():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = tuple(tuple(rat(rng.randint(-3, 3)) for _ in range(n))
                     for _ in range(rng.randint(1, 5)))
        rhs = tuple(rat(rng.randint(-2, 4)) for _ in rows)
        eq = tuple(tuple(rat(rng.randint(-2, 2)) for _ in range(n))
                   for _ in range(rng.randint(0, 2)))
        erhs = tuple(rat(rng.randint(-1, 1)) for _ in eq)
        c = tuple(rat(rng.randint(-3, 3)) for _ in range(n))
        # lp_solve re-verifies the certificate internally; reaching here
        # without an assertion is the test
        lp_solve(LpProblem(c, rows, rhs, eq, erhs))


def _random_lp(rng):
    """A random LP with rational data (denominators up to 12) built around
    a point x0: some rows tight at x0 (degenerate vertices), zero rows,
    negative right-hand sides, equality rows and redundant copies of
    them (artificials left basic at zero after phase 1)."""
    def q(k=3):
        return rat(rng.randint(-k * 12, k * 12), rng.randint(1, 12))

    n = rng.randint(1, 4)
    x0 = [q(2) for _ in range(n)]

    def row():
        if rng.random() < 0.1:
            return (rat(0),) * n
        return tuple(rat(0) if rng.random() < 0.3 else q() for _ in range(n))

    rows, rhs = [], []
    for _ in range(rng.randint(0, 6)):
        a = row()
        rows.append(a)
        rhs.append(vdot(a, x0) if rng.random() < 0.4 else vdot(a, x0) + q(2))
    eq, erhs = [], []
    for _ in range(rng.randint(0, 2)):
        if eq and rng.random() < 0.3:
            k = q(2) or rat(1)
            a, b = eq[-1], erhs[-1]
            eq.append(tuple(k * v for v in a))
            erhs.append(k * b)
        else:
            a = row()
            eq.append(a)
            erhs.append(vdot(a, x0) if rng.random() < 0.8 else q(2))
    c = (rat(0),) * n if rng.random() < 0.1 else tuple(q() for _ in range(n))
    return LpProblem(c, tuple(rows), tuple(rhs), tuple(eq), tuple(erhs))


def _record_phases(monkeypatch, cls, log):
    """Log (phase, r, j) for every pivot of `cls`; the artificial pivot-out
    step, which runs between the phases, is logged as phase 1."""
    pivot, run = cls.pivot, cls.run
    phase = [1]

    def logged_pivot(self, r, j):
        log.append((phase[0], r, j))
        return pivot(self, r, j)

    def logged_run(self, cost, allow_artificial):
        phase[0] = 1 if allow_artificial else 2
        try:
            return run(self, cost, allow_artificial)
        finally:
            phase[0] = 1

    monkeypatch.setattr(cls, "pivot", logged_pivot)
    monkeypatch.setattr(cls, "run", logged_run)


def test_lp_matches_fraction_reference(monkeypatch):
    from lp_reference import FractionTableau, reference_lp_solve
    import plqstab.lp as lp

    pivots = {"int": [], "ref": []}
    _record_phases(monkeypatch, lp._Tableau, pivots["int"])
    _record_phases(monkeypatch, FractionTableau, pivots["ref"])
    rng = random.Random(2024)
    outcomes = {LpOptimal: 0, LpUnbounded: 0, LpInfeasible: 0}
    for _ in range(600):
        p = _random_lp(rng)
        pivots["int"].clear()
        pivots["ref"].clear()
        ref = reference_lp_solve(p)
        out = lp_solve(p)
        assert type(out) is type(ref) and out == ref, p
        assert pivots["int"] == pivots["ref"], p
        outcomes[type(out)] += 1
    assert min(outcomes.values()) >= 60, outcomes


def _forgeries(out, rng):
    """Copies of an outcome with one certificate entry moved, some of
    which stay valid (a scaled ray, an unchanged entry).  Each copy is
    built by the outcome's constructor from its slots."""

    def moved(v):
        return rng.choice((v + rat(1, 7), v - 1, -v, v * 2, rat(0), v))

    def replace(name, value):
        fields = {f: getattr(out, f) for f in type(out).__slots__}
        return type(out)(**{**fields, name: value})

    forged = []
    for name in type(out).__slots__:
        value = getattr(out, name)
        if isinstance(value, tuple):
            for _ in range(2):
                if value:
                    i = rng.randrange(len(value))
                    v = list(value)
                    v[i] = moved(v[i])
                    forged.append(replace(name, tuple(v)))
            forged.append(replace(name, tuple(2 * v for v in value)))
        else:
            forged.append(replace(name, moved(value)))
    return forged


def test_lp_integer_checks_match_substitution():
    from lp_reference import reference_verify
    import plqstab.lp as lp

    def rejects(check, *args):
        try:
            check(*args)
        except lp._CertificateError:
            return True
        return False

    rng = random.Random(99)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        p = _random_lp(rng)
        t = lp._Tableau(p)
        out = lp_solve(p)
        for forged in [out] + _forgeries(out, rng):
            if isinstance(forged, LpOptimal):
                args = (lp._check_optimal, t, p.objective, forged)
            elif isinstance(forged, LpUnbounded):
                args = (lp._check_unbounded, t, p.objective, forged)
            else:
                args = (lp._check_infeasible, t, forged)
            expect = rejects(reference_verify, p, forged)
            assert rejects(*args) == expect, (p, forged)
            verdicts[expect] += 1
    assert min(verdicts.values()) >= 300, verdicts


def test_every_lp_is_one_lp_solve(monkeypatch):
    # The benchmark's LP counters wrap `lp.lp_solve` in every plqstab
    # namespace: they see every LP only when each tableau is built by one
    # lp_solve call, for the problem that call was given.
    solve, init = lp.lp_solve, lp._Tableau.__init__
    calls, tableaux = [], []

    def counted_solve(p):
        calls.append(p)
        return solve(p)

    def counted_init(self, p):
        tableaux.append(p)
        init(self, p)

    for mname, module in list(sys.modules.items()):
        if module is not None and mname.split(".")[0] == "plqstab":
            for attr, value in list(vars(module).items()):
                if value is solve:
                    monkeypatch.setattr(module, attr, counted_solve)
    monkeypatch.setattr(lp._Tableau, "__init__", counted_init)
    files = [parse_problem_file(corpus_path(name)) for name in corpus_names()]
    files += [parse_problem_doc(doc, name_hint=name)
              for name, doc in random_enlp_docs(1, 5)]
    for pf in files:
        analyze_problem(pf)
    assert tableaux == calls and len(calls) >= 4, (len(tableaux), len(calls))


_WORK_COUNTER_SCRIPT = """
import sys
import plqstab.linalg as linalg
import plqstab.lp as lp
import plqstab.polyhedra as polyhedra
import plqstab.qp as qp
import plqstab.rational as rational
import plqstab.stability as stability
from plqstab import analyze_problem, corpus_path, parse_problem_file
pf = parse_problem_file(corpus_path(sys.argv[1]))
counts = {"outcomes": 0, "tableaux": 0, "pivots": 0, "projecting": 0,
          "active_sets": 0, "systems": 0, "trivial_kernels": 0, "hits": 0,
          "rref": 0, "vdot": 0, "qp_solve": 0}
def rebind(original, replacement):
    # in every plqstab module that holds the function by name
    for mname, mod in list(sys.modules.items()):
        if mod is not None and mname.split(".")[0] == "plqstab":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
def count_calls(module, name):
    original = getattr(module, name)
    def counted(*args):
        counts[name] += 1
        return original(*args)
    rebind(original, counted)
count_calls(linalg, "rref")
count_calls(rational, "vdot")
count_calls(qp, "qp_solve")
lp_solve, init, pivot = lp.lp_solve, lp._Tableau.__init__, lp._Tableau.pivot
project, scan = polyhedra.Polyhedron.project_point, qp.StrictQpSolver._scan
def counted_lp_solve(p):
    out = lp_solve(p)
    counts["outcomes"] += 1
    return out
def counted_init(self, p):
    counts["tableaux"] += 1
    init(self, p)
def counted_pivot(self, r, j):
    counts["pivots"] += 1
    return pivot(self, r, j)
def counted_project(self, x):
    counts["projecting"] += 1
    try:
        return project(self, x)
    finally:
        counts["projecting"] -= 1
def counted_scan(self):
    for rec in scan(self):
        counts["active_sets"] += bool(counts["projecting"])
        yield rec
solutions, kernel_basis = stability._solutions, stability.kernel_basis
def counted_solutions(*args):
    counts["systems"] += 1
    gens = solutions(*args)
    counts["hits"] += bool(gens)
    return gens
def counted_kernel_basis(a_eq):
    basis = kernel_basis(a_eq)
    counts["trivial_kernels"] += not basis
    return basis
stability._solutions = counted_solutions
stability.kernel_basis = counted_kernel_basis
rebind(lp_solve, counted_lp_solve)
lp._Tableau.__init__ = counted_init
lp._Tableau.pivot = counted_pivot
polyhedra.Polyhedron.project_point = counted_project
qp.StrictQpSolver._scan = counted_scan
analyze_problem(pf)
print(counts["outcomes"], counts["tableaux"], counts["pivots"],
      counts["active_sets"], counts["systems"], counts["trivial_kernels"],
      counts["hits"], counts["rref"], counts["vdot"], counts["qp_solve"])
"""


@functools.lru_cache(maxsize=None)
def _work_counts(name):
    # A fresh interpreter: the polyhedra memo tables change the counts
    # once they are warm.
    out = subprocess.run([sys.executable, "-c", _WORK_COUNTER_SCRIPT, name],
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_lp_work_counts_on_example_6_2():
    # LP outcomes, tableaux built (one phase 1 each) and pivots, the
    # artificial pivot-out step included.  No nontriviality system or
    # criticality witness solves an LP.  The SOSC face regions solve none either (generators, no projection).
    # Y, the multiplier set and the three normal cones the error-bound
    # table projects onto contain the origin, so their emptiness needs no
    # LP.  The point's theta QP has a positive definite B, so it has no
    # descent ray to look for, and the analysis solves no LP at all.
    assert _work_counts("example_6_2")[:3] == ["0", "0", "0"]


def test_lp_outcomes_of_fresh_corpus_analyses():
    # Criticality and its witness solve no LP, critical or not, and the
    # multiplier set's affine dimension needs none beyond emptiness.  What
    # is left on example_3_3 and example_4_4 is the theta QP's descent-ray
    # LP and its singular KKT LP.
    assert {name: _work_counts(name)[0] for name in corpus_names()} == {
        "example_3_2a": "0", "example_3_2b": "0", "example_3_3": "2",
        "example_4_4": "2", "example_6_2": "0"}


def test_projection_active_sets_on_example_6_2():
    # Active sets the exact projections try before one is certified.  A
    # point already in P is certified by the first set, which has no
    # inequality rows: the multiplier set's representative, the origin,
    # takes one.  The multiplier set is the singleton {lam_bar}, so the
    # error-bound table reads each distance to it as |lam - lam_bar| and
    # projects onto it nowhere.
    assert _work_counts("example_6_2")[3] == "15"


def test_nontriviality_systems_on_example_6_2():
    # Homogeneous systems solved by double description, those whose eq
    # rows leave only the zero kernel, and those with a nonzero solution.
    # Isolated calmness reads the face systems that criticality solved.
    assert _work_counts("example_6_2")[4:7] == ["18", "10", "0"]


def test_exact_kernel_calls_on_example_6_2():
    # Calls of the fraction-free eliminations and dot products, in every
    # module that binds them.  Each face's span basis is reduced once, and
    # each row of a polar is mapped to (G^T h, -B h) once per point.  A
    # strict QP solver picks its equality basis with one elimination, and
    # ranks an active set only when its bordered system is singular.  It
    # rejects an active set at its first negative multiplier, before it
    # forms y, and a projection makes no membership test of its own.  The
    # point context reads the rows of Y tight at lam_bar once.  SONC reads
    # the generators, pulled-back forms and stationary families that SOSC
    # left on the same regions, and the multiplier set checks lam_bar's
    # membership once instead of the table projecting onto the set.
    assert _work_counts("example_6_2")[7:9] == ["66", "598"]


def test_theta_qp_once_per_point_on_example_6_2():
    # The solution check's Fenchel cross-check and the multiplier set's
    # subdifferential share one exact theta QP at Phi(xbar).
    assert _work_counts("example_6_2")[9] == "1"


_FORGED_DUALS_SCRIPT = """
import sys
import plqstab.lp as lp
from plqstab import corpus_path
from plqstab.cli import main
if not sys.flags.optimize:
    sys.exit(3)
duals = lp._Tableau.duals
lp._Tableau.duals = lambda self, cost: [y + 1 for y in duals(self, cost)]
sys.exit(main(["analyze", corpus_path("example_4_4")]))
"""


def test_lp_certificate_failure_exits_2_under_optimize():
    out = subprocess.run([sys.executable, "-O", "-c", _FORGED_DUALS_SCRIPT],
                         capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("internal consistency failure:")
    assert "Traceback" not in out.stderr


# -- PSD --------------------------------------------------------------------------


def test_psd_examples():
    assert psd_check(identity(3))
    assert psd_check(RatMatrix([(1, 0), (0, 0)]))
    assert not psd_check(RatMatrix([(0, 1), (1, 0)]))
    assert not is_positive_definite(RatMatrix([(1, 0), (0, 0)]))
    assert is_positive_definite(identity(2))
    with pytest.raises(ValueError):
        psd_check(RatMatrix([(1, 2), (3, 4)]))


def test_psd_agrees_with_random_directions():
    rng = random.Random(23)
    mats = []
    for _ in range(12):
        n = rng.randint(1, 4)
        c = RatMatrix([[rat(rng.randint(-2, 2)) for _ in range(n)]
                       for _ in range(n)])
        mats.append(c.T @ c)                     # PSD
        s = RatMatrix([[rat(rng.randint(-2, 2)) for _ in range(n)]
                       for _ in range(n)])
        mats.append(s @ identity(n) + (s.T @ identity(n)))  # symmetric, arbitrary
    for m in mats:
        verdict = psd_check(m)
        neg_dir = False
        for _ in range(10_000 // len(mats)):
            d = tuple(rat(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(m.nrows))
            if vdot(m.matvec(d), d) < 0:
                neg_dir = True
                break
        if neg_dir:
            assert not verdict
    # necessary-direction check only: PSD verdicts never see a negative value


def _random_symmetric_pairs(rng, count):
    """C^T C with k <= n rows, and the same with one symmetric +-1 entry
    perturbation, n from 1 to 5."""
    for _ in range(count):
        n = rng.randint(1, 5)
        c = [[rng.randint(-2, 2) for _ in range(n)]
             for _ in range(rng.randint(0, n))]
        m = [[sum(r[i] * r[j] for r in c) for j in range(n)] for i in range(n)]
        yield RatMatrix(m)
        i, j, d = rng.randrange(n), rng.randrange(n), rng.choice((-1, 1))
        m[i][j] += d
        if i != j:
            m[j][i] += d
        yield RatMatrix(m)


def test_psd_and_pd_match_the_reference_elimination():
    # psd_check and is_positive_definite are the two verdicts of the one
    # shared elimination over every coordinate; the reference is the
    # stand-alone LDL^T psd_check ran before, and rank == n for PD.
    rng = random.Random(1601)
    mats = [RatMatrix(()), RatMatrix([(-1,)]), RatMatrix([(rat(-1, 3),)])]
    mats += _random_symmetric_pairs(rng, 300)
    verdicts = Counter()
    for m in mats:
        n = m.nrows
        psd = psd_reference(m.rows)
        pd = psd and rank(m) == n
        assert psd_check(m) == psd, m
        assert is_positive_definite(m) == pd, m
        for strict, verdict in ((False, psd), (True, pd)):
            witness, schur, lifts = reduce_lineality(m, n, strict)
            if verdict:
                assert witness is None and schur.nrows == 0 and lifts == []
                continue
            # every False verdict's witness is checked exactly
            value = vdot(m.matvec(witness), witness)
            assert not is_zero_vec(witness), m
            assert value <= 0 if strict else value < 0, (m, strict)
        verdicts[psd, pd] += 1
    assert set(verdicts) == {(True, True), (True, False), (False, False)}
    assert min(verdicts.values()) >= 100, verdicts


def test_pseudo_inverse_psd_failure_is_an_internal_consistency_error(
        monkeypatch):
    # The singular core cannot happen; if it did, the CLI maps the error
    # to exit 2 rather than a traceback.
    monkeypatch.setattr(linalg, "invert", lambda mat: None)
    with pytest.raises(InternalConsistencyError):
        pseudo_inverse_psd(RatMatrix([(1, 1), (1, 1)]))


# -- QP --------------------------------------------------------------------------


def test_qp_scalar_examples():
    out = qp_solve(RatMatrix([(1,)]), (-2,), Polyhedron([(-1,)], [0]))
    assert isinstance(out, QpOptimal)
    assert out.point == (rat(2),) and out.value == -2

    out = qp_solve(RatMatrix([(0,)]), (0,), Polyhedron([(1,), (-1,)], [-1, -1]))
    assert isinstance(out, QpInfeasible)

    out = qp_solve(RatMatrix([(0,)]), (-1,), Polyhedron([(-1,)], [0]))
    assert isinstance(out, QpUnbounded)
    assert out.ray[0] > 0


def test_a_polyhedron_keeps_the_dimension_it_was_built_with():
    # a rowless polyhedron has no rows to infer a dimension from
    with pytest.raises(ValueError):
        Polyhedron([], [])
    with pytest.raises(ValueError):
        Polyhedron([(1, 0)], [1], dim=3)
    assert Polyhedron([(1, 0)], [1]).dim == 2
    whole = Polyhedron([], [], dim=2)
    assert whole.contains((1, 1))
    with pytest.raises(ValueError):
        whole.contains((1, 1, 1))
    assert qp_solve(identity(2), (1, 1), whole) == QpOptimal(
        point=(rat(-1), rat(-1)), value=rat(-1))
    # a caller of another dimension is refused, and the polyhedron it was
    # handed is left as it was
    with pytest.raises(ValueError):
        qp_solve(identity(3), (1, 1, 1), whole)
    with pytest.raises(ValueError):
        StrictQpSolver(identity(3), whole)
    with pytest.raises(ValueError):
        PlqPenalty(whole, identity(3))
    assert whole.dim == 2
    assert qp_solve(identity(2), (1, 1), whole) == QpOptimal(
        point=(rat(-1), rat(-1)), value=rat(-1))
    assert isinstance(qp_solve(identity(3), (1, 1, 1), Polyhedron([], [], 3)),
                      QpOptimal)


def test_qp_rejects_indefinite():
    with pytest.raises(ValueError):
        qp_solve(RatMatrix([(0, 1), (1, 0)]), (0, 0), Polyhedron((), (), 2))


def test_qp_zero_quadratic_matches_lp():
    rng = random.Random(31)
    from plqstab.linalg import zeros

    for _ in range(100):
        n = rng.randint(1, 3)
        rows = tuple(tuple(rat(rng.randint(-3, 3)) for _ in range(n))
                     for _ in range(rng.randint(1, 4)))
        rhs = tuple(rat(rng.randint(-1, 4)) for _ in rows)
        c = tuple(rat(rng.randint(-3, 3)) for _ in range(n))
        p = Polyhedron(rows, rhs, n)
        qo = qp_solve(zeros(n, n), c, p)
        lo = lp_max(tuple(-v for v in c), rows, rhs)
        if isinstance(qo, QpInfeasible):
            assert isinstance(lo, LpInfeasible)
        elif isinstance(qo, QpUnbounded):
            assert isinstance(lo, LpUnbounded)
        else:
            assert isinstance(lo, LpOptimal) and qo.value == -lo.value


def _random_qp(rng, shift):
    """(C^T C + shift I, linear term, polyhedron with the origin in it)."""
    n = rng.randint(1, 3)
    c0 = RatMatrix([[rat(rng.randint(-2, 2)) for _ in range(n)]
                    for _ in range(rng.randint(0, n))] or [[rat(0)] * n])
    q = c0.T @ c0 + identity(n).scale(shift)
    rows = tuple(tuple(rat(rng.randint(-3, 3)) for _ in range(n))
                 for _ in range(rng.randint(1, 4)))
    rhs = tuple(rat(rng.randint(0, 4)) for _ in rows)
    lin = tuple(rat(rng.randint(-3, 3)) for _ in range(n))
    return q, lin, Polyhedron(rows, rhs, n)


def test_qp_kkt_conditions_hold_exactly():
    rng = random.Random(41)
    for _ in range(40):
        q, lin, p = _random_qp(rng, 0)
        out = qp_solve(q, lin, p)
        if isinstance(out, QpOptimal):
            y = out.point
            assert p.contains(y)
            grad = tuple(v + w for v, w in zip(q.matvec(y), lin))
            # -grad must be a normal direction at y
            assert p.normal_cone_of(p.tight_rows(y)).contains(
                tuple(-g for g in grad))


def _count_qp_work(monkeypatch):
    """Count LP feasibility runs, in every module that binds the function,
    and symmetric eliminations."""
    counts = {"lp": 0, "eliminations": 0}

    def counter(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted

    original = lp.lp_feasible_point
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.split(".")[0] == "plqstab":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counter("lp", original))
    monkeypatch.setattr(linalg, "reduce_lineality",
                        counter("eliminations", linalg.reduce_lineality))
    return counts


def test_qp_with_positive_definite_q_solves_no_lp(monkeypatch):
    # A PD Q has no descent ray (Q d = 0 forces d = 0): one elimination
    # sends it to the strict solver, and no LP runs.
    rng = random.Random(41)
    problems = [_random_qp(rng, 1) for _ in range(40)]
    counts = _count_qp_work(monkeypatch)
    for q, lin, p in problems:
        out = qp_solve(q, lin, p)
        assert isinstance(out, QpOptimal)
        assert out.point == StrictQpSolver(q, p).solve(lin)
    assert counts == {"lp": 0, "eliminations": 40}


def test_qp_with_singular_q_takes_two_eliminations(monkeypatch):
    # Only a Q that is not PD is validated by a second, PSD elimination.
    rng = random.Random(42)
    problems = [_random_qp(rng, 0) for _ in range(60)]
    problems = [(q, lin, p) for q, lin, p in problems
                if not is_positive_definite(q)]
    assert len(problems) >= 30
    counts = _count_qp_work(monkeypatch)
    outcomes = Counter()
    for q, lin, p in problems:
        counts["eliminations"] = 0
        outcomes[type(qp_solve(q, lin, p))] += 1
        assert counts["eliminations"] == 2
    assert outcomes[QpOptimal] and outcomes[QpUnbounded], outcomes
    assert counts["lp"] > 0


def test_a_resumed_scan_reads_the_records_another_scan_appended():
    # |y_i| <= 1 in R^2 with Q = I has 9 independent active sets.  A scan
    # paused after its first record resumes after a second scan reached
    # all 9, and must read on through the 8 that scan appended.
    square = Polyhedron([(1, 0), (-1, 0), (0, 1), (0, -1)], [1] * 4)
    solver = StrictQpSolver(identity(2), square)
    first = solver._scan()
    head = next(first)
    whole = list(solver._scan())
    assert len(whole) == 9 and whole[0] is head
    assert [head] + list(first) == whole


def test_threads_sharing_a_penalty_get_the_sequential_proxes():
    # Four threads prox eight points through one fresh penalty at a time:
    # each scan of the shared solver may be paused while another grows
    # the record list, and must still find every active set.
    y = Polyhedron([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                    (1, 1, 1, 1)], [1, 1, 1, 1, 2])
    rng = random.Random(5)
    points = [tuple(rat(rng.randint(-9, 9), rng.randint(1, 3))
                    for _ in range(4)) for _ in range(8)]
    expected = [PlqPenalty(y, identity(4)).prox(p) for p in points]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            penalty = PlqPenalty(y, identity(4))
            got, errors = {}, []

            def work(share):
                try:
                    for i in share:
                        got[i] = penalty.prox(points[i])
                except Exception as exc:  # reported below, from this thread
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(range(k, 8, 4),))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors, errors
            assert [got[i] for i in range(8)] == expected
    finally:
        sys.setswitchinterval(interval)
