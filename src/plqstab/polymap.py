"""Multivariate polynomials with exact rational coefficients.

Sparse monomial dictionaries keyed by exponent tuples; differentiation
is symbolic, so evaluation, Jacobians and Hessians at rational points
are exact.  The float evaluators (numeric probes only) use float
coefficients cached once per polynomial, flattened into one list per
map and derivative order, so that a map is evaluated in one loop, term
by term in a fixed order (`_float_values`).  Canonical
printing orders monomials by descending total degree, then descending
exponent tuple, and round-trips through the expression parser.
"""

from __future__ import annotations

import math
from functools import cached_property

from .linalg import RatMatrix
from .rational import ONE, ZERO, format_rat, rat, rats

__all__ = ["Polynomial", "PolyMap"]


def _float_values(term_lists, point):
    """The value at a float point of each polynomial in `term_lists`, each
    given by its float terms (`Polynomial._float_coefficients`): the terms in
    order, each coefficient multiplied by its powers left to right and
    added to a total that starts at 0.0.  A power is multiplied out, w_j,1
    = x_j and w_j,k = w_j,k-1 * x_j, never through the C library's `pow`;
    past float range a value is +-inf or nan.  One loop over flat lists,
    so the float evaluators of a map make no call per polynomial."""
    point = [float(v) for v in point]
    table = [[1.0, v] for v in point]
    out = []
    for terms in term_lists:
        total = 0.0
        for term, powers in terms:
            for j, k in powers:
                row = table[j]
                while len(row) <= k:
                    row.append(row[-1] * point[j])
                term *= row[k]
            total += term
        out.append(total)
    return out


# Ring operations on term dicts {exponent tuple: Rat} with no zero
# coefficient, shared by `Polynomial` and the expression parser; each
# fixes the order of the terms it returns.

def _add_terms(total, terms, sign=1):
    """`total` plus `sign` (1 or -1) times `terms`, added into `total` in
    place: a new monomial is appended, one that cancels is dropped."""
    for e, c in terms.items():
        old = total.get(e)
        if old is None:
            total[e] = c if sign > 0 else -c
            continue
        new = old + c if sign > 0 else old - c
        if new:
            total[e] = new
        else:
            del total[e]
    return total


def _mul_terms(a, b):
    """The terms of a * b, each monomial where its first pair lands; those
    that sum to zero are dropped once the product is complete."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple([i + j for i, j in zip(e1, e2)])
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if c}


def _binary_power(one, base, k, mul):
    """base^k by binary powering from `one`, each product formed by `mul`;
    no squaring past the last bit."""
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


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
        return Polynomial(self.n, _add_terms(dict(self.terms), other.terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        self._check(other)
        return Polynomial(self.n, _add_terms(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, t):
        t = rat(t)
        return Polynomial(self.n, {e: t * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        return Polynomial(self.n, _mul_terms(self.terms, other.terms))

    def power(self, k, mul=lambda a, b: a * b):
        """The k-th power by binary powering, each product formed by `mul`,
        which may check the factors first and refuse by raising."""
        if k < 0:
            raise ValueError("negative exponent")
        return _binary_power(Polynomial.constant(self.n, 1), self, k, mul)

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
        point = rats(point)
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
        self._hess = {}

    def eval(self, point):
        return tuple(c.eval(point) for c in self.components)

    @cached_property
    def _component_terms(self):
        return tuple(c._float_coefficients() for c in self.components)

    @cached_property
    def _jacobian_terms(self):
        return tuple(p._float_coefficients() for row in self._jacobian_polys
                     for p in row)

    @cached_property
    def _hessian_terms(self):
        """The float terms of the Hessian of each component in turn, each
        n x n row by row."""
        return tuple(p._float_coefficients() for i in range(self.k)
                     for row in self._hessian_polys(i) for p in row)

    @cached_property
    def _jacobian_polys(self):
        return tuple(tuple(c.diff(j) for j in range(self.n))
                     for c in self.components)

    def jacobian_at(self, point) -> RatMatrix:
        """k x n matrix of first partial derivatives at a rational point."""
        return RatMatrix(tuple(tuple(p.eval(point) for p in row)
                               for row in self._jacobian_polys))

    def _hessian_polys(self, i):
        if i not in self._hess:
            grad = self._jacobian_polys[i]
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
            polys += self._jacobian_polys[i]
        if order >= 2:
            polys += [p for row in self._hessian_polys(i) for p in row]
        return all(p.fits_float() for p in polys)

    def gradient_map(self) -> "PolyMap":
        """For a scalar map (k == 1), the gradient as an n -> n map."""
        if self.k != 1:
            raise ValueError("gradient_map needs a scalar map")
        return PolyMap(tuple(self.components[0].diff(j) for j in range(self.n)),
                       n=self.n)

    def __repr__(self):
        return "PolyMap(n=%d, k=%d)" % (self.n, self.k)
