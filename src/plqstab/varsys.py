"""Variational systems of subdifferential type.

A system is a triple (f, Phi, theta) with f : R^n -> R^n,
Phi : R^n -> R^m polynomial maps and theta a piecewise linear-quadratic
penalty; its residual map is

    Psi(x, lam) = f(x) + DPhi(x)^T lam,

and a pair (x, lam) solves the system when Psi(x, lam) = 0 and lam is a
subgradient of theta at Phi(x).
"""

from __future__ import annotations

from functools import cached_property

from .linalg import RatMatrix
from .plq import PlqPenalty
from .polyhedra import Polyhedron
from .polymap import PolyMap
from .rational import rat, vadd
from .record import FrozenRecord

__all__ = ["VarSystem", "MultiplierSet"]


class MultiplierSet(FrozenRecord):
    """The multiplier polyhedron at a base point with its shape flags."""

    __slots__ = ("poly", "empty", "singleton", "dimension", "representative")


class VarSystem:
    """The data (f, Phi, penalty) with exact residual calculus."""

    def __init__(self, f: PolyMap, phi: PolyMap, penalty: PlqPenalty):
        if f.k != f.n:
            raise ValueError("f must map R^n to R^n")
        if phi.n != f.n:
            raise ValueError("f and Phi disagree on the primal dimension")
        if phi.k != penalty.m:
            raise ValueError("Phi range dimension does not match the penalty")
        self.f = f
        self.phi = phi
        self.penalty = penalty
        self.n = f.n
        self.m = phi.k
        self._multiplier_sets = {}  # exact x -> MultiplierSet
        self._points = {}  # exact (x, lam) -> stability.PointContext

    # -- residual ----------------------------------------------------------
    def psi(self, x, lam):
        """Psi(x, lam) = f(x) + DPhi(x)^T lam, exactly."""
        x = tuple(rat(v) for v in x)
        lam = tuple(rat(v) for v in lam)
        jac = self.phi.jacobian_at(x)
        return vadd(self.f.eval(x), jac.rmatvec(lam))

    def psi_jacobian_x(self, x, lam) -> RatMatrix:
        """d(Psi)/dx = Df(x) + sum_i lam_i Hess(Phi_i)(x)."""
        x = tuple(rat(v) for v in x)
        lam = tuple(rat(v) for v in lam)
        jac = self.f.jacobian_at(x)
        rows = [list(r) for r in jac.rows]
        for i in range(self.m):
            if lam[i] == 0:
                continue
            h = self.phi.hessian_at(i, x)
            for a in range(self.n):
                for b in range(self.n):
                    rows[a][b] += lam[i] * h.rows[a][b]
        return RatMatrix(rows)

    # -- multipliers ----------------------------------------------------------
    def multiplier_set(self, x) -> MultiplierSet:
        """All lam with Psi(x, lam) = 0 and lam a subgradient at Phi(x)."""
        x = tuple(rat(v) for v in x)
        if x in self._multiplier_sets:
            return self._multiplier_sets[x]
        jac = self.phi.jacobian_at(x)
        fx = self.f.eval(x)
        sub = self.penalty.subdiff(self.phi.eval(x))
        rows = list(sub.b)
        rhs = list(sub.alpha)
        for j in range(self.n):  # DPhi(x)^T lam = -f(x), row per primal coordinate
            col = tuple(jac.rows[i][j] for i in range(self.m))
            rows.append(col)
            rhs.append(-fx[j])
            rows.append(tuple(-v for v in col))
            rhs.append(fx[j])
        poly = Polyhedron(rows, rhs, self.m)
        if poly.is_empty():
            out = MultiplierSet(poly, True, False, -1, None)
        else:
            dim = poly.affine_dimension()
            rep, _ = poly.project_point((rat(0),) * self.m)
            out = MultiplierSet(poly, False, dim == 0, dim, rep)
        self._multiplier_sets[x] = out
        return out

    def point(self, x, lam):
        """The `stability.PointContext` of (x, lam), one per pair on this
        instance: the criteria share its solution check and objects."""
        from .stability import PointContext

        key = tuple(rat(v) for v in x), tuple(rat(v) for v in lam)
        if key not in self._points:
            self._points[key] = PointContext(self, *key)
        return self._points[key]

    @cached_property
    def float_kernel(self):
        """The `probe.FloatKernel` of the Newton probe, built once on this
        instance."""
        from .probe import FloatKernel

        return FloatKernel(self)
