"""Reference LP solver for differential tests: a dense simplex tableau of
`Rat` entries with the column layout, Bland's rule, the two phases and
the artificial pivot-out step of `plqstab.lp`, one fresh solve per
objective, and certificate checks by substitution into the `Rat` data.
The integer tableau in `plqstab.lp` must take the same pivots and return
the same outcomes, and its integer certificate checks must accept and
reject what these checks do.
"""

from plqstab.lp import (LpInfeasible, LpOptimal, LpProblem, LpUnbounded,
                        _CertificateError)
from plqstab.rational import ONE, ZERO, vdot


def _verify_optimal(p: LpProblem, out: LpOptimal):
    x, y_ub, y_eq = out.point, out.dual_ub, out.dual_eq
    for row, rhs in zip(p.a_ub, p.b_ub):
        if vdot(row, x) > rhs:
            raise _CertificateError("optimal point violates an inequality")
    for row, rhs in zip(p.a_eq, p.b_eq):
        if vdot(row, x) != rhs:
            raise _CertificateError("optimal point violates an equality")
    if any(y < 0 for y in y_ub):
        raise _CertificateError("negative inequality dual")
    n = len(p.objective)
    for j in range(n):
        s = ZERO
        for row, y in zip(p.a_ub, y_ub):
            s += row[j] * y
        for row, y in zip(p.a_eq, y_eq):
            s += row[j] * y
        if s != p.objective[j]:
            raise _CertificateError("dual stationarity fails")
    dual_val = vdot(p.b_ub, y_ub) + vdot(p.b_eq, y_eq)
    if dual_val != out.value or vdot(p.objective, x) != out.value:
        raise _CertificateError("objective values disagree")


def _verify_unbounded(p: LpProblem, out: LpUnbounded):
    d, x = out.ray, out.feasible_point
    for row, rhs in zip(p.a_ub, p.b_ub):
        if vdot(row, x) > rhs or vdot(row, d) > 0:
            raise _CertificateError("unbounded certificate infeasible")
    for row, rhs in zip(p.a_eq, p.b_eq):
        if vdot(row, x) != rhs or vdot(row, d) != 0:
            raise _CertificateError("unbounded certificate breaks equality")
    if vdot(p.objective, d) <= 0:
        raise _CertificateError("ray does not improve the objective")


def _verify_infeasible(p: LpProblem, out: LpInfeasible):
    y_ub, y_eq = out.farkas_ub, out.farkas_eq
    if any(y < 0 for y in y_ub):
        raise _CertificateError("negative Farkas component")
    n = len(p.objective)
    for j in range(n):
        s = ZERO
        for row, y in zip(p.a_ub, y_ub):
            s += row[j] * y
        for row, y in zip(p.a_eq, y_eq):
            s += row[j] * y
        if s != 0:
            raise _CertificateError("Farkas combination is not zero")
    if vdot(p.b_ub, y_ub) + vdot(p.b_eq, y_eq) >= 0:
        raise _CertificateError("Farkas value not negative")


def reference_verify(p: LpProblem, out):
    """Check the certificate of an outcome of `p` by substitution."""
    {LpOptimal: _verify_optimal, LpUnbounded: _verify_unbounded,
     LpInfeasible: _verify_infeasible}[type(out)](p, out)


class FractionTableau:
    """Dense tableau over columns [x+ | x- | slacks | artificials | rhs]."""

    def __init__(self, p: LpProblem):
        self.n = n = len(p.objective)
        self.mu = mu = len(p.a_ub)
        self.me = me = len(p.a_eq)
        self.m = m = mu + me
        self.ncols = 2 * n + mu + m
        self.sign = []
        rows = []
        for i in range(m):
            if i < mu:
                base, rhs = p.a_ub[i], p.b_ub[i]
            else:
                base, rhs = p.a_eq[i - mu], p.b_eq[i - mu]
            s = -ONE if rhs < 0 else ONE
            self.sign.append(s)
            row = [s * v for v in base] + [-s * v for v in base]
            row += [s if i == k else ZERO for k in range(mu)]
            row += [ONE if i == k else ZERO for k in range(m)]
            row.append(s * rhs)
            rows.append(row)
        self.t = rows
        self.basis = [2 * n + mu + i for i in range(m)]
        self.art0 = 2 * n + mu

    def is_artificial(self, j):
        return j >= self.art0

    def pivot(self, r, j):
        row = self.t[r]
        piv = row[j]
        if piv != 1:
            inv = ONE / piv
            self.t[r] = row = [v * inv for v in row]
        for i, other in enumerate(self.t):
            if i != r and other[j] != 0:
                f = other[j]
                self.t[i] = [a - f * b for a, b in zip(other, row)]
        self.basis[r] = j

    def reduced_costs(self, cost):
        """z_j - c_j for the cost vector over all columns."""
        cb = [cost[b] for b in self.basis]
        red = []
        for j in range(self.ncols):
            s = ZERO
            for i in range(self.m):
                cbi = cb[i]
                if cbi != 0:
                    s += cbi * self.t[i][j]
            red.append(s - cost[j])
        return red

    def run(self, cost, allow_artificial):
        """Bland simplex on the current basis; returns 'optimal' or ('unbounded', j)."""
        m, ncols = self.m, self.ncols
        while True:
            cb = [cost[b] for b in self.basis]
            enter = -1
            for j in range(ncols):
                if not allow_artificial and self.is_artificial(j):
                    continue
                s = ZERO
                for i in range(m):
                    cbi = cb[i]
                    if cbi != 0:
                        s += cbi * self.t[i][j]
                if s - cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", None
            leave = -1
            best = None
            for i in range(m):
                a = self.t[i][enter]
                if a > 0:
                    ratio = self.t[i][-1] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", enter
            self.pivot(leave, enter)

    def solution_x(self):
        x = [ZERO] * self.n
        for i, b in enumerate(self.basis):
            val = self.t[i][-1]
            if b < self.n:
                x[b] += val
            elif b < 2 * self.n:
                x[b - self.n] -= val
        return tuple(x)

    def ray_x(self, enter):
        d = [ZERO] * self.ncols
        d[enter] = ONE
        for i, b in enumerate(self.basis):
            d[b] = -self.t[i][enter]
        ray = [ZERO] * self.n
        for j in range(self.n):
            ray[j] = d[j] - d[j + self.n]
        return tuple(ray)

    def duals(self, cost):
        """Multipliers c_B B^{-1} e_i read off the artificial columns."""
        red = self.reduced_costs(cost)
        y = [red[self.art0 + i] + cost[self.art0 + i] for i in range(self.m)]
        return [yi * s for yi, s in zip(y, self.sign)]


def reference_lp_solve(p: LpProblem):
    """The Fraction-tableau solver; outcome is LpOptimal | LpUnbounded | LpInfeasible."""
    t = FractionTableau(p)
    n, mu, m = t.n, t.mu, t.m

    # phase 1: drive the artificial variables to zero
    cost1 = [ZERO] * (2 * n + mu) + [-ONE] * m
    status, _ = t.run(cost1, allow_artificial=True)
    assert status == "optimal"
    phase1 = sum((t.t[i][-1] for i in range(m) if t.is_artificial(t.basis[i])), ZERO)
    if phase1 > 0:
        y = t.duals(cost1)
        out = LpInfeasible(farkas_ub=tuple(y[:mu]), farkas_eq=tuple(y[mu:]))
        _verify_infeasible(p, out)
        return out

    # pivot remaining zero-valued artificials out of the basis when possible
    for i in range(m):
        if t.is_artificial(t.basis[i]):
            j = next((c for c in range(t.art0) if t.t[i][c] != 0), None)
            if j is not None:
                t.pivot(i, j)

    # phase 2: original objective (artificials may stay basic at zero but
    # never re-enter)
    cost2 = list(p.objective) + [-v for v in p.objective] + [ZERO] * (mu + m)
    status, enter = t.run(cost2, allow_artificial=False)
    if status == "unbounded":
        out = LpUnbounded(ray=t.ray_x(enter), feasible_point=t.solution_x())
        _verify_unbounded(p, out)
        return out
    x = t.solution_x()
    y = t.duals(cost2)
    out = LpOptimal(point=x, value=vdot(p.objective, x),
                    dual_ub=tuple(y[:mu]), dual_eq=tuple(y[mu:]))
    _verify_optimal(p, out)
    return out
