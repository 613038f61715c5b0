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

For the proximal map's repeated solves, `StrictQpSolver` also keeps a
float copy of each active set's affine solution map, so that the
numeric probes can pick the active piece in float (`solve_float`) and
read its exact data (`piece`) without an exact solve per evaluation.
"""

from __future__ import annotations

from .errors import InternalConsistencyError
from .linalg import (RatMatrix, invert, is_positive_definite, psd_check, rank,
                     rref)
from .lp import lp_feasible_point
from .rational import ONE, ZERO, rat, to_float, vdot
from .record import FrozenRecord, set_field

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

    def __init__(self, point, value):
        set_field(self, "point", point)
        set_field(self, "value", value)


class QpUnbounded(FrozenRecord):
    __slots__ = ("ray",)

    def __init__(self, ray):
        set_field(self, "ray", ray)


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
    c = tuple(rat(v) for v in c)
    n = qmat.nrows
    if len(c) != n:
        raise ValueError("linear term dimension mismatch")
    poly = poly.with_dim(n)
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


class StrictQpSolver:
    """Repeated exact solves of min 1/2 y^T Q y + c^T y over a fixed P, Q PD.

    Bordered KKT systems are factored once per active set and reused
    across calls (the proximal map evaluates this with varying c).  On
    an active set the solution is affine in c, y(c) = d - M c, and so
    are its multipliers; `piece` gives (M, d) exactly and `solve_float`
    tests the active sets in float from cached float copies of both maps.
    """

    def __init__(self, qmat: RatMatrix, poly):
        self.q = qmat
        self.poly = poly.with_dim(qmat.nrows)
        self.n = qmat.nrows
        self._solvers: dict = {}
        eq_rows, eq_rhs = poly.eq_system()
        # dependent equality rows are implied (P nonempty): keep the basis
        # of the first independent rows, the pivot columns of the transpose
        basis = rref(list(zip(*eq_rows)))[1] if eq_rows else []
        self._eq_rows = [list(eq_rows[k]) for k in basis]
        self._eq_rhs = [eq_rhs[k] for k in basis]
        _, self._ineq = poly._split
        # the float scan of `solve_float`: (subset, float maps) of the
        # independent active sets reached so far, and the sets after them
        self._reached = []
        self._unreached = _subsets(tuple(self._ineq))

    def _subset_solver(self, subset):
        if subset in self._solvers:
            return self._solvers[subset]
        act_rows = list(self._eq_rows) + [self.poly.b[i] for i in subset]
        act_rhs = list(self._eq_rhs) + [self.poly.alpha[i] for i in subset]
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
        if inv is None:
            if act_rows and rank(act_rows) < na:
                self._solvers[subset] = None  # dependent rows: covered elsewhere
                return None
            raise InternalConsistencyError(
                "PD bordered system with independent rows is singular")
        self._solvers[subset] = (inv, tuple(act_rhs), len(self._eq_rows))
        return self._solvers[subset]

    def _try_subset(self, subset, c):
        solver = self._subset_solver(subset)
        if solver is None:
            return None
        inv, act_rhs, ne = solver
        rhs = tuple(-v for v in c) + act_rhs
        sol = inv.matvec(rhs)
        y = sol[:self.n]
        mus = sol[self.n + ne:]
        if any(m < 0 for m in mus):
            return None
        if all(vdot(self.poly.b[i], y) <= self.poly.alpha[i]
               for i in self._ineq if i not in subset):
            return tuple(y)
        return None

    def solve(self, c, with_subset=False):
        """The unique minimizer for the linear term c; with `with_subset`,
        the pair (minimizer, active set that produced it).

        The active sets are tried in one fixed order, so the active set
        is a function of c alone.
        """
        c = tuple(rat(v) for v in c)
        for subset in _subsets(tuple(self._ineq)):
            y = self._try_subset(subset, c)
            if y is not None:
                return (y, subset) if with_subset else y
        raise InternalConsistencyError(
            "strictly convex QP over nonempty P has a minimizer")

    def piece(self, subset):
        """Exact (M, d) with y(c) = d - M c on the active set `subset`."""
        inv, act_rhs, _ = self._subset_solver(subset)
        n = self.n
        mmat = tuple(tuple(row[:n]) for row in inv.rows[:n])
        d = tuple(vdot(row[n:], act_rhs) for row in inv.rows[:n])
        return mmat, d

    def _float_maps(self, subset):
        """Float copies of the affine maps of `subset`, or None for a
        dependent subset: (row of M, d) pairs with y_i(c) = d_i - <M_i, c>,
        the same pairs for the inequality multipliers mu(c), and the
        (b_i, alpha_i) of the inequality rows outside the subset.  Values
        past float range become +-inf (`rational.to_float`)."""
        solver = self._subset_solver(subset)
        if solver is None:
            return None
        inv, act_rhs, ne = solver
        n = self.n
        rows = [([to_float(v) for v in row[:n]],
                 to_float(vdot(row[n:], act_rhs))) for row in inv.rows]
        inactive = [([to_float(v) for v in self.poly.b[i]],
                     to_float(self.poly.alpha[i]))
                    for i in self._ineq if i not in subset]
        return rows[:n], rows[n + ne:], inactive

    def _reach(self) -> bool:
        """Append the next independent active set of the scan, with its
        float maps, to `_reached`; False once every set is reached."""
        for subset in self._unreached:
            maps = self._float_maps(subset)
            if maps is not None:
                self._reached.append((subset, maps))
                return True
        return False

    def solve_float(self, c):
        """(subset, y) for the first active set, in the order of `solve`,
        that passes in float for the float linear term c: multipliers
        >= 0 and every inactive row feasible.  None when no set passes,
        which rounding can cause at a kink.

        Every call scans from the first set, over the list of sets the
        scan has reached so far, which grows only when a scan runs past
        its end (so a file with many slack rows factors no set beyond the
        one that passes).  The scan does not start at the last winner: at
        a kink more than one set passes in float, and the order decides
        which piece, and so which generalized Jacobian, is used.  Each
        inner product is `_fdot`'s, 0.0 plus the products in order, written
        out inline.  `probe.FloatKernel` runs this scan, through
        `PlqPenalty.prox_float`, once per residual that reaches the prox.
        """
        reached = self._reached
        i = 0
        while i < len(reached) or self._reach():
            subset, (yrows, murows, inactive) = reached[i]
            i += 1
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
                    return subset, y
        return None
