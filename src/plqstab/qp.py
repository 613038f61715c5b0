"""Exact convex quadratic programming over H-polyhedra.

minimize 1/2 y^T Q y + c^T y  over  P = {y : <b_i, y> <= alpha_i}

with Q symmetric PSD (verified).  Solutions are found by enumerating
candidate active sets of inequality rows, which is exact and adequate
at desk scale (at most 2^p subsets for p inequality rows):

* positive definite Q: each linearly independent active set gives one
  bordered KKT system; the first consistent candidate that is feasible
  with nonnegative multipliers is the unique minimizer.  Such a Q needs
  no descent-ray test and solves no LP: Q d = 0 forces d = 0;
* singular PSD Q: after an explicit descent-ray test (one LP), each
  subset is checked by an LP feasibility run over the full KKT
  conditions, whose any solution is a global minimizer.

Returned optima satisfy the KKT conditions exactly by construction.
P is a `polyhedra.Polyhedron`; this module does not import `polyhedra`,
which projects points with `StrictQpSolver` (Q = I).

For the proximal map's repeated solves, `StrictQpSolver` keeps one record
per active set, which its exact and float scans walk in one order, so the
numeric probes can pick the active piece in float (`solve_float`) and read
its exact data (`piece`) without an exact solve per evaluation.
"""

from __future__ import annotations

import threading

from .errors import InternalConsistencyError
from .linalg import (RatMatrix, invert, is_positive_definite, psd_check, rank,
                     rref)
from .lp import lp_feasible_point
from .rational import ONE, ZERO, rat, rats, to_float, vdot
from .record import FrozenRecord, Record

__all__ = ["QpOptimal", "QpUnbounded", "QpInfeasible", "qp_solve", "StrictQpSolver"]


def _fdot(row, v):
    """The float inner product 0.0 + row_0 v_0 + row_1 v_1 + ..., added in
    order, so the same bits on every CPython (`sum` of floats is
    compensated from 3.12 on)."""
    s = 0.0
    for a, b in zip(row, v):
        s += a * b
    return s


class QpOptimal(FrozenRecord):
    __slots__ = ("point", "value")


class QpUnbounded(FrozenRecord):
    __slots__ = ("ray",)


class QpInfeasible(FrozenRecord):
    __slots__ = ()


def _subsets(items):
    """All subsets, by increasing cardinality (deterministic order)."""
    from itertools import combinations

    for k in range(len(items) + 1):
        for c in combinations(items, k):
            yield c


def _objective(qmat: RatMatrix, c, y):
    return vdot(qmat.matvec(y), y) / 2 + vdot(c, y)


def _descent_ray(qmat: RatMatrix, c, poly):
    """Feasible recession direction with Q d = 0 and <c, d> <= -1, or None."""
    n = qmat.nrows
    a_ub = list(poly.b) + [tuple(c)]
    b_ub = [ZERO] * len(poly.b) + [-ONE]
    a_eq = list(qmat.rows)
    b_eq = [ZERO] * n
    return lp_feasible_point(tuple(a_ub), tuple(b_ub), tuple(a_eq), tuple(b_eq), n=n)


def qp_solve(qmat: RatMatrix, c, poly):
    """Exact outcome: QpInfeasible | QpUnbounded(ray) | QpOptimal(point, value).

    One elimination decides a positive definite Q, which has no descent
    ray (Q d = 0 forces d = 0); only another Q takes a second, PSD one."""
    pd = is_positive_definite(qmat)
    if not pd and not psd_check(qmat):
        raise ValueError("quadratic term must be symmetric positive semidefinite")
    c = rats(c)
    n = qmat.nrows
    if len(c) != n:
        raise ValueError("linear term dimension mismatch")
    if poly.dim != n:
        raise ValueError("polyhedron dimension mismatch")
    if poly.is_empty():
        return QpInfeasible()
    if pd:
        y = StrictQpSolver(qmat, poly).solve(c)
    else:
        ray = _descent_ray(qmat, c, poly)
        if ray is not None:
            return QpUnbounded(ray=ray)
        y = _solve_singular(qmat, c, poly)
    return QpOptimal(point=y, value=_objective(qmat, c, y))


def _solve_singular(qmat: RatMatrix, c, poly):
    """Subset enumeration with full-KKT LP feasibility checks."""
    eq_rows, eq_rhs = poly.eq_system()
    _, ineq = poly._split
    n = qmat.nrows
    ne = len(eq_rows)
    for subset in _subsets(tuple(ineq)):
        ns = len(subset)
        nv = n + ne + ns  # variables: y, nu (free), mu (>= 0)
        a_eq, b_eq = [], []
        # stationarity: Q y + sum nu_k e_k + sum mu_i b_i = -c
        for r in range(n):
            row = list(qmat.rows[r])
            row += [eq_rows[k][r] for k in range(ne)]
            row += [poly.b[i][r] for i in subset]
            a_eq.append(tuple(row))
            b_eq.append(-c[r])
        for k in range(ne):
            a_eq.append(tuple(eq_rows[k]) + (ZERO,) * (ne + ns))
            b_eq.append(eq_rhs[k])
        for i in subset:
            a_eq.append(tuple(poly.b[i]) + (ZERO,) * (ne + ns))
            b_eq.append(poly.alpha[i])
        a_ub, b_ub = [], []
        for i_other in ineq:
            if i_other in subset:
                continue
            a_ub.append(tuple(poly.b[i_other]) + (ZERO,) * (ne + ns))
            b_ub.append(poly.alpha[i_other])
        for j in range(ns):
            row = [ZERO] * nv
            row[n + ne + j] = -ONE
            a_ub.append(tuple(row))
            b_ub.append(ZERO)
        sol = lp_feasible_point(tuple(a_ub), tuple(b_ub), tuple(a_eq), tuple(b_eq), n=nv)
        if sol is not None:
            return tuple(sol[:n])
    raise InternalConsistencyError("feasible bounded QP without a KKT point")


class _ActiveSet(Record):
    """One independent active set S, from the inverse of its bordered KKT
    matrix: with rhs = (-c, act_rhs), y_i = <yrows_i, rhs> on S, and the
    inequality rows of S have multipliers mu_k = <murows_k, rhs>.
    `inactive` holds the inequality rows outside S; `floats` is the float
    copy `solve_float` makes when it first meets S."""

    __slots__ = ("subset", "yrows", "murows", "act_rhs", "inactive", "floats")
    _defaults = {"floats": None}


class StrictQpSolver:
    """Repeated exact solves of min 1/2 y^T Q y + c^T y over a fixed P, Q PD.

    Each independent active set gets one record (`_ActiveSet`) when a scan
    first reaches it, in one list in `_subsets` order that scans read by
    position and grow under one lock, so threads can share a solver.
    `solve` walks it exactly and `solve_float` in float, both from the first
    record, in one order.  The solution on an active set, y(c) = d - M c,
    and its multipliers are affine in c; `piece` gives (M, d).
    """

    def __init__(self, qmat: RatMatrix, poly):
        if poly.dim != qmat.nrows:
            raise ValueError("polyhedron dimension mismatch")
        self.q = qmat
        self.poly = poly
        self.n = qmat.nrows
        eq_rows, eq_rhs = poly.eq_system()
        # dependent equality rows are implied (P nonempty): keep the basis
        # of the first independent rows, the pivot columns of the transpose
        basis = rref(list(zip(*eq_rows)))[1] if eq_rows else []
        self._eq_rows = [list(eq_rows[k]) for k in basis]
        self._eq_rhs = tuple(eq_rhs[k] for k in basis)
        _, self._ineq = poly._split
        # every record built, by subset (None for dependent rows); the
        # records reached, in order; the independent sets after them
        self._built: dict = {}
        self._records = []
        self._lock = threading.Lock()
        self._unreached = filter(None, map(self._record,
                                           _subsets(tuple(self._ineq))))

    def _record(self, subset):
        if subset in self._built:
            return self._built[subset]
        act_rows = self._eq_rows + [self.poly.b[i] for i in subset]
        n, na = self.n, len(act_rows)
        kkt = [[ZERO] * (n + na) for _ in range(n + na)]
        for i in range(n):
            for j in range(n):
                kkt[i][j] = self.q.rows[i][j]
            for k in range(na):
                kkt[i][n + k] = act_rows[k][i]
                kkt[n + k][i] = act_rows[k][i]
        # with Q PD the bordered system is singular exactly when the
        # active rows are dependent, so only a singular one needs a rank
        inv = invert(RatMatrix(kkt))
        if inv is not None:
            rec = _ActiveSet(
                subset, inv.rows[:n], inv.rows[n + len(self._eq_rows):],
                self._eq_rhs + tuple(self.poly.alpha[i] for i in subset),
                tuple(i for i in self._ineq if i not in subset))
        elif act_rows and rank(act_rows) < na:
            rec = None  # dependent rows: an independent subset covers them
        else:
            raise InternalConsistencyError(
                "PD bordered system with independent rows is singular")
        self._built[subset] = rec
        return rec

    def _scan(self):
        """The records in order, read by position: those reached, then each
        next independent set, appended under the lock as it is reached while
        the caller reads on (so a file with many slack rows factors no set
        beyond the one that passes)."""
        records, i = self._records, 0
        while True:
            if i == len(records):
                with self._lock:
                    if i == len(records):
                        rec = next(self._unreached, None)
                        if rec is None:
                            return
                        records.append(rec)
            yield records[i]
            i += 1

    def solve(self, c, with_subset=False):
        """The unique minimizer for the linear term c; with `with_subset`,
        the pair (minimizer, active set that produced it).

        The first record whose multipliers are >= 0 and whose y satisfies
        every inactive row wins, so the active set is a function of c
        alone.  A set is rejected at its first negative multiplier, and
        y is formed only for a set whose multipliers all pass.
        """
        neg_c = tuple(-rat(v) for v in c)
        b, alpha = self.poly.b, self.poly.alpha
        for rec in self._scan():
            rhs = neg_c + rec.act_rhs
            if any(vdot(row, rhs) < 0 for row in rec.murows):
                continue
            y = tuple(vdot(row, rhs) for row in rec.yrows)
            if all(vdot(b[i], y) <= alpha[i] for i in rec.inactive):
                return (y, rec.subset) if with_subset else y
        raise InternalConsistencyError(
            "strictly convex QP over nonempty P has a minimizer")

    def _affine(self, rows, act_rhs):
        """(M_i, d_i) with <row_i, (-c, act_rhs)> = d_i - <M_i, c>."""
        n = self.n
        return [(row[:n], vdot(row[n:], act_rhs)) for row in rows]

    def piece(self, subset):
        """Exact (M, d) with y(c) = d - M c on the active set `subset`."""
        rec = self._record(subset)
        return tuple(zip(*self._affine(rec.yrows, rec.act_rhs)))

    def solve_float(self, c):
        """(subset, y) for the first active set, in the order of `solve`,
        that passes in float for the float linear term c: multipliers
        >= 0 and every inactive row feasible.  None when no set passes,
        which rounding can cause at a kink.

        The scan starts at the first record, not at the last winner: at a
        kink more than one set passes in float, and the order decides
        which piece, and so which generalized Jacobian, is used.  A
        record's float copy holds its (M_i, d_i) pairs for y and for the
        multipliers and its inactive (b_i, alpha_i), each exact value
        rounded once (`rational.to_float`: +-inf past float range).  Inner
        products are `_fdot`'s, written out inline.  `probe.FloatKernel`
        runs this scan, through `PlqPenalty.prox_float`, once per residual
        that reaches the prox.
        """
        for rec in self._scan():
            if rec.floats is None:
                rec.floats = tuple(
                    [([to_float(v) for v in row], to_float(d)) for row, d in pairs]
                    for pairs in (self._affine(rec.yrows, rec.act_rhs),
                                  self._affine(rec.murows, rec.act_rhs),
                                  [(self.poly.b[i], self.poly.alpha[i])
                                   for i in rec.inactive]))
            yrows, murows, inactive = rec.floats
            for row, d in murows:
                s = 0.0
                for a, b in zip(row, c):
                    s += a * b
                if d - s < 0:
                    break
            else:
                y = []
                for row, d in yrows:
                    s = 0.0
                    for a, b in zip(row, c):
                        s += a * b
                    y.append(d - s)
                for row, alpha in inactive:
                    s = 0.0
                    for a, b in zip(row, y):
                        s += a * b
                    if not s <= alpha:
                        break
                else:
                    return rec.subset, y
        return None
