"""Exact rational simplex for linear programs with free variables.

Maximization over mixed <= and == rows.  Free variables are split into
differences of nonnegatives, a two-phase tableau method with Bland's
rule (lowest eligible index enters; ratio ties leave by lowest basis
index) guarantees termination, and every outcome ships a certificate
that is re-verified by exact substitution before it is returned:

* Optimal:    primal feasibility, dual feasibility, equal objectives.
* Unbounded:  a feasible point plus a feasible ray improving the objective.
* Infeasible: a Farkas vector for the constraint system.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): every row is a
list of Python ints whose positive basic entry is the row's denominator,
a pivot cross-multiplies and divides each changed row by its gcd, and the
reduced-cost row is held over one positive denominator and updated with
every pivot.  Every decision compares the same rationals a Fraction
tableau would, so the pivots are the same; points, rays and multipliers
are returned as Rat.  Desk-scale solver: dense, no factorization reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import InternalConsistencyError
from .rational import ONE, ZERO, Rat, rat, vdot

__all__ = [
    "LpProblem",
    "LpOptimal",
    "LpUnbounded",
    "LpInfeasible",
    "lp_solve",
    "lp_max",
    "lp_feasible_point",
]


@dataclass(frozen=True)
class LpProblem:
    """max <objective, x>  s.t.  a_ub x <= b_ub,  a_eq x == b_eq."""

    objective: tuple
    a_ub: tuple = ()
    b_ub: tuple = ()
    a_eq: tuple = ()
    b_eq: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(rat(v) for v in self.objective))
        object.__setattr__(self, "a_ub", tuple(tuple(rat(v) for v in r) for r in self.a_ub))
        object.__setattr__(self, "b_ub", tuple(rat(v) for v in self.b_ub))
        object.__setattr__(self, "a_eq", tuple(tuple(rat(v) for v in r) for r in self.a_eq))
        object.__setattr__(self, "b_eq", tuple(rat(v) for v in self.b_eq))
        n = len(self.objective)
        if any(len(r) != n for r in self.a_ub) or any(len(r) != n for r in self.a_eq):
            raise ValueError("constraint row length does not match objective")
        if len(self.a_ub) != len(self.b_ub) or len(self.a_eq) != len(self.b_eq):
            raise ValueError("constraint/right-hand-side count mismatch")


@dataclass(frozen=True)
class LpOptimal:
    point: tuple
    value: object
    dual_ub: tuple
    dual_eq: tuple


@dataclass(frozen=True)
class LpUnbounded:
    ray: tuple
    feasible_point: tuple


@dataclass(frozen=True)
class LpInfeasible:
    farkas_ub: tuple
    farkas_eq: tuple


class _CertificateError(InternalConsistencyError):
    pass


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


# The star-calls below unpack lists and take no leading fixed argument: on
# CPython 3.11 `f(*generator)` and `f(x, *list)` build argument tuples that
# pile up on the tuple free lists, which raised peak RSS by about 1.5 MB.

def _scaled_ints(values):
    """(ints, scale): the values times the least common denominator."""
    fracs = [(int(v.numerator), int(v.denominator)) for v in values]
    scale = lcm(*[d for _, d in fracs])
    return [num * (scale // d) for num, d in fracs], scale


def _primitive(row):
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


class _Tableau:
    """Integer tableau over columns [x+ | x- | slacks | artificials | rhs].

    Row i stands for the rational row t[i] / t[i][basis[i]]: its basic
    entry is positive and serves as its denominator, and the row is kept
    primitive (gcd 1).  The reduced costs z_j - c_j of the current cost
    vector are z[j] / zden with zden > 0; z[-1] / zden is the objective
    value of the basic solution.
    """

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
            s = -1 if rhs < 0 else 1
            self.sign.append(s)
            ints, scale = _scaled_ints(base + (rhs,))
            ints = [s * v for v in ints]
            row = ints[:-1] + [-v for v in ints[:-1]]
            row += [s * scale if i == k else 0 for k in range(mu)]
            row += [scale if i == k else 0 for k in range(m)]
            row.append(ints[-1])
            rows.append(row)
        self.t = rows
        self.basis = [2 * n + mu + i for i in range(m)]
        self.art0 = 2 * n + mu
        self.z = [0] * (self.ncols + 1)
        self.zden = 1

    def is_artificial(self, j):
        return j >= self.art0

    def pivot(self, r, j):
        """Exchange on (r, j): R_i <- p R_i - R_i[j] R_r, then R_i / gcd(R_i).

        The pivot row is negated first when its entry is negative, so that
        p > 0 becomes the row's denominator; the cost row is updated the
        same way, with zden <- p zden.
        """
        row = self.t[r]
        piv = row[j]
        if piv < 0:
            piv = -piv
            self.t[r] = row = [-v for v in row]
        for i, other in enumerate(self.t):
            f = other[j]
            if i != r and f:
                self.t[i] = _primitive([piv * a - f * b
                                        for a, b in zip(other, row)])
        f = self.z[j]
        if f:
            self._store_cost([piv * a - f * b for a, b in zip(self.z, row)],
                             piv * self.zden)
        self.basis[r] = j

    def _store_cost(self, z, zden):
        g = gcd(zden, gcd(*z))
        self.z = [v // g for v in z]
        self.zden = zden // g

    def set_cost(self, cost):
        """Recompute z / zden = c_B B^{-1} A - c for the cost vector."""
        c, cden = _scaled_ints(cost)
        basic = [(c[b], row, row[b]) for b, row in zip(self.basis, self.t)
                 if c[b]]
        scale = lcm(*[d for _, _, d in basic])
        z = [-v * scale for v in c] + [0]
        for cb, row, d in basic:
            w = cb * (scale // d)
            z = [a + w * b for a, b in zip(z, row)]
        self._store_cost(z, cden * scale)

    def run(self, cost, allow_artificial):
        """Bland simplex on the current basis; returns 'optimal' or ('unbounded', j)."""
        self.set_cost(cost)
        t, basis = self.t, self.basis
        stop = self.ncols if allow_artificial else self.art0
        while True:
            z = self.z
            enter = next((j for j in range(stop) if z[j] < 0), -1)
            if enter < 0:
                return "optimal", None
            # min ratio rhs / a over a > 0, compared by cross-multiplying
            # (every denominator is positive); ties leave by lowest basis index
            leave = -1
            for i, row in enumerate(t):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    best = t[leave]
                    lhs, rhs = row[-1] * best[enter], best[-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded", enter
            self.pivot(leave, enter)

    def solution_x(self):
        x = [ZERO] * self.n
        for row, b in zip(self.t, self.basis):
            val = Rat(row[-1], row[b])
            if b < self.n:
                x[b] += val
            elif b < 2 * self.n:
                x[b - self.n] -= val
        return tuple(x)

    def ray_x(self, enter):
        d = [ZERO] * self.ncols
        d[enter] = ONE
        for row, b in zip(self.t, self.basis):
            d[b] = -Rat(row[enter], row[b])
        ray = [ZERO] * self.n
        for j in range(self.n):
            ray[j] = d[j] - d[j + self.n]
        return tuple(ray)

    def duals(self, cost):
        """Multipliers c_B B^{-1} e_i read off the artificial columns of the
        cost row last set by `run` for this cost vector."""
        y = [Rat(self.z[self.art0 + i], self.zden) + cost[self.art0 + i]
             for i in range(self.m)]
        return [yi * s for yi, s in zip(y, self.sign)]


def lp_solve(p: LpProblem):
    """Solve exactly; outcome is LpOptimal | LpUnbounded | LpInfeasible."""
    t = _Tableau(p)
    n, mu, m = t.n, t.mu, t.m

    # phase 1: drive the artificial variables to zero
    cost1 = [ZERO] * (2 * n + mu) + [-ONE] * m
    status, _ = t.run(cost1, allow_artificial=True)
    if status != "optimal":
        raise InternalConsistencyError("phase 1 reported unbounded")
    # the phase-1 optimum is minus the artificials' sum, -z[-1] / zden
    if t.z[-1] < 0:
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


def lp_max(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    return lp_solve(LpProblem(tuple(objective), tuple(a_ub), tuple(b_ub),
                              tuple(a_eq), tuple(b_eq)))


def lp_feasible_point(a_ub=(), b_ub=(), a_eq=(), b_eq=(), n=None):
    """A feasible point of the system, or None when it is empty."""
    if n is None:
        if a_ub:
            n = len(a_ub[0])
        elif a_eq:
            n = len(a_eq[0])
        else:
            return ()
    out = lp_max((ZERO,) * n, a_ub, b_ub, a_eq, b_eq)
    if isinstance(out, LpInfeasible):
        return None
    if isinstance(out, LpUnbounded):  # zero objective is never unbounded
        raise InternalConsistencyError("unbounded with zero objective")
    return out.point
