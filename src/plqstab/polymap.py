"""Multivariate polynomials with exact rational coefficients.

Sparse monomial dictionaries keyed by exponent tuples; differentiation
is symbolic, so evaluation, Jacobians and Hessians at rational points
are exact.  The float evaluators (numeric probes only) use float
coefficients cached once per polynomial, flattened into one list per
map and derivative order, so that a map is evaluated in one loop with
the float operations of the per-polynomial evaluator.  Canonical
printing orders monomials by descending total degree, then descending
exponent tuple, and round-trips through the expression parser.
"""

from __future__ import annotations

import math
from functools import cached_property

from .linalg import RatMatrix
from .rational import ONE, ZERO, format_rat, rat

__all__ = ["Polynomial", "PolyMap"]


def _float_values(term_lists, point):
    """The value at a float point of each polynomial in `term_lists`, each
    given by its float terms (`Polynomial._float_coefficients`): the terms in
    order, each multiplied by x_j ** k per power and added to a total that
    starts at 0.0; nan when a power of a coordinate raises OverflowError.
    One loop over flat lists, so the float evaluators of a map make no call
    per polynomial."""
    point = [float(v) for v in point]
    out = []
    for terms in term_lists:
        total = 0.0
        try:
            for term, powers in terms:
                for j, k in powers:
                    term *= point[j] ** k
                total += term
        except OverflowError:
            total = math.nan
        out.append(total)
    return out


class Polynomial:
    """A polynomial in n variables as {exponent tuple: coefficient}."""

    __slots__ = ("n", "terms", "_float_terms")

    def __init__(self, n, terms=None):
        self.n = n
        self._float_terms = None
        clean = {}
        for exps, coef in (terms or {}).items():
            coef = rat(coef)
            if coef != 0:
                exps = tuple(int(e) for e in exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError("bad exponent tuple %r" % (exps,))
                clean[exps] = coef
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @staticmethod
    def constant(n, value):
        return Polynomial(n, {(0,) * n: rat(value)})

    @staticmethod
    def variable(n, index):
        if not 0 <= index < n:
            raise ValueError("variable index out of range")
        e = [0] * n
        e[index] = 1
        return Polynomial(n, {tuple(e): ONE})

    # -- ring operations ---------------------------------------------------
    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mixing polynomials over different variable counts")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return Polynomial(self.n, out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, t):
        t = rat(t)
        return Polynomial(self.n, {e: t * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return Polynomial(self.n, out)

    def __pow__(self, k):
        return self.power(k)

    def power(self, k, mul=lambda a, b: a * b):
        """self ** k by binary powering, each product formed by `mul`,
        which may check the factors first and refuse by raising."""
        if k < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = mul(result, base)
            k >>= 1
            if k:  # no squaring past the last bit
                base = mul(base, base)
        return result

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.n == other.n \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- calculus ---------------------------------------------------------
    def diff(self, j) -> "Polynomial":
        out = {}
        for e, c in self.terms.items():
            if e[j] > 0:
                ne = list(e)
                ne[j] -= 1
                out[tuple(ne)] = out.get(tuple(ne), ZERO) + c * e[j]
        return Polynomial(self.n, out)

    def eval(self, point):
        point = tuple(rat(v) for v in point)
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        total = ZERO
        for e, c in self.terms.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    if not x:
                        break  # a zero factor: the monomial vanishes
                    for _ in range(k):
                        term *= x
            else:
                total += term
        return total

    def _float_coefficients(self):
        """(float coefficient, powers) per term, converted once; one nan
        term in their place when a coefficient is past float range, so
        that every float value is then nan."""
        if self._float_terms is None:
            try:
                self._float_terms = tuple(
                    (float(c), tuple((j, k) for j, k in enumerate(e) if k))
                    for e, c in self.terms.items())
            except OverflowError:
                self._float_terms = ((math.nan, ()),)
        return self._float_terms

    def fits_float(self) -> bool:
        """Whether every coefficient converts to a finite float."""
        return all(math.isfinite(c) for c, _ in self._float_coefficients())

    def eval_float(self, point):
        """Value at a float point, from float coefficients converted once.
        Past float range a product gives +-inf; a power of a coordinate
        raises OverflowError instead, and the value is then nan."""
        return _float_values((self._float_coefficients(),), point)[0]

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    # -- printing ------------------------------------------------------------
    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            mono = "*".join(
                "x%d" % (j + 1) if k == 1 else "x%d^%d" % (j + 1, k)
                for j, k in enumerate(e) if k > 0)
            mag = c if c > 0 else -c
            if not mono:
                body = format_rat(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%s*%s" % (format_rat(mag), mono)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%r)" % self.canonical_str()


class PolyMap:
    """A polynomial vector map R^n -> R^k with exact derivatives."""

    def __init__(self, components, n=None):
        comps = tuple(components)
        if not comps:
            raise ValueError("a polynomial map needs at least one component")
        self.components = comps
        self.n = comps[0].n if n is None else n
        if any(c.n != self.n for c in comps):
            raise ValueError("components over different variable counts")
        self.k = len(comps)
        self._jac = None
        self._hess = {}
        self._hess_terms = {}

    def eval(self, point):
        return tuple(c.eval(point) for c in self.components)

    @cached_property
    def _component_terms(self):
        return tuple(c._float_coefficients() for c in self.components)

    @cached_property
    def _jacobian_terms(self):
        return tuple(p._float_coefficients() for row in self._jacobian_polys()
                     for p in row)

    def eval_float(self, point):
        """The value at a float point, each component as
        `Polynomial.eval_float` computes it."""
        return tuple(_float_values(self._component_terms, point))

    def _jacobian_polys(self):
        if self._jac is None:
            self._jac = tuple(tuple(c.diff(j) for j in range(self.n))
                              for c in self.components)
        return self._jac

    def jacobian_at(self, point) -> RatMatrix:
        """k x n matrix of first partial derivatives at a rational point."""
        return RatMatrix(tuple(tuple(p.eval(point) for p in row)
                               for row in self._jacobian_polys()))

    def jacobian_at_float(self, point):
        """k x n numpy array of the first partials at a float point, each
        entry as `Polynomial.eval_float` computes it."""
        import numpy as np

        return np.array(_float_values(self._jacobian_terms, point),
                        dtype=float).reshape(self.k, self.n)

    def _hessian_polys(self, i):
        if i not in self._hess:
            grad = self._jacobian_polys()[i]
            self._hess[i] = tuple(tuple(g.diff(j) for j in range(self.n))
                                  for g in grad)
        return self._hess[i]

    def hessian_at(self, i, point) -> RatMatrix:
        """n x n Hessian of component i at a rational point."""
        return RatMatrix(tuple(tuple(p.eval(point) for p in row)
                               for row in self._hessian_polys(i)))

    def fits_float(self, i, order) -> bool:
        """Whether component i and its derivatives up to `order` (at most
        2), the polynomials the float evaluators read, have coefficients in
        float range."""
        polys = [self.components[i]]
        if order >= 1:
            polys += self._jacobian_polys()[i]
        if order >= 2:
            polys += [p for row in self._hessian_polys(i) for p in row]
        return all(p.fits_float() for p in polys)

    def hessian_at_float(self, i, point):
        import numpy as np

        if i not in self._hess_terms:
            self._hess_terms[i] = tuple(p._float_coefficients()
                                        for row in self._hessian_polys(i)
                                        for p in row)
        return np.array(_float_values(self._hess_terms[i], point),
                        dtype=float).reshape(self.n, self.n)

    def gradient_map(self) -> "PolyMap":
        """For a scalar map (k == 1), the gradient as an n -> n map."""
        if self.k != 1:
            raise ValueError("gradient_map needs a scalar map")
        return PolyMap(tuple(self.components[0].diff(j) for j in range(self.n)),
                       n=self.n)

    def __repr__(self):
        return "PolyMap(n=%d, k=%d)" % (self.n, self.k)
