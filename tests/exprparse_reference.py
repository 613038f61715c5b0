"""Reference expression parser for differential tests: the recursive
descent of `plqstab.exprparse` over the `Polynomial` ring, every
subexpression a `Polynomial`.  Sums, products and powers are the ring
operations as `Polynomial` first wrote them, kept here: a sum copies its
left operand's terms and adds the right operand's in, a product adds up
every pair, and `Polynomial(n, terms)` then drops the zero coefficients
in order.  `parse_expression` must give the same terms, in the same
order, and raise the same `ParseError` at the same position.  The
scanner, the limits and the error type are the package's.
"""

from plqstab.exprparse import (MAX_EXPANSION, MAX_EXPONENT, MAX_NESTING,
                               ParseError, _Scanner)
from plqstab.polymap import Polynomial
from plqstab.rational import ZERO, Rat


def _add(p, q):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, ZERO) + c
    return Polynomial(p.n, out)


def _scale(p, t):
    return Polynomial(p.n, {e: t * c for e, c in p.terms.items()})


def _mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return Polynomial(p.n, out)


def _power(p, k, mul):
    result = Polynomial.constant(p.n, 1)
    base = p
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def parse_expression(text, n) -> Polynomial:
    sc = _Scanner(text)
    poly = _expr(sc, n)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("unexpected trailing input %r" % sc.text[sc.pos:], sc.pos)
    return poly


def _expr(sc, n):
    sign = 1
    if sc.peek() in ("+", "-"):
        sign = -1 if sc.take() == "-" else 1
    total = _scale(_term(sc, n), Rat(sign))
    while sc.peek() in ("+", "-"):
        op = sc.take()
        t = _term(sc, n)
        total = _add(total, t if op == "+" else _scale(t, Rat(-1)))
    return total


def _term(sc, n):
    total = _factor(sc, n)
    while sc.peek() == "*":
        sc.take()
        pos = sc.pos
        total = _product(total, _factor(sc, n), pos)
    return total


def _product(a, b, pos):
    if len(a.terms) * len(b.terms) > MAX_EXPANSION:
        raise ParseError("product of over %d term pairs" % MAX_EXPANSION, pos)
    return _mul(a, b)


def _factor(sc, n):
    base = _base(sc, n)
    if sc.peek() == "^":
        sc.take()
        pos = sc.pos
        if sc.peek() == "-":
            raise ParseError("negative exponent", pos)
        text = sc.digits()
        if sc.peek() == "/":
            raise ParseError("fractional exponent", sc.pos)
        if len(text) > len(str(MAX_EXPONENT)) or int(text) > MAX_EXPONENT:
            raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
        power = int(text)
        if base.degree() * power > MAX_EXPONENT:
            raise ParseError("power of degree above %d" % MAX_EXPONENT, pos)
        return _power(base, power, lambda a, b: _product(a, b, pos))
    return base


def _base(sc, n):
    ch = sc.peek()
    pos = sc.pos
    if ch == "(":
        sc.take()
        sc.depth += 1
        if sc.depth > MAX_NESTING:
            raise ParseError("parentheses nested deeper than %d" % MAX_NESTING,
                             pos)
        inner = _expr(sc, n)
        if sc.peek() != ")":
            raise ParseError("expected ')'", sc.pos)
        sc.take()
        sc.depth -= 1
        return inner
    if ch == "x":
        sc.take()
        idx = sc.integer()
        if not 1 <= idx <= n:
            raise ParseError("variable x%d out of range 1..%d" % (idx, n), pos)
        return Polynomial.variable(n, idx - 1)
    if "0" <= ch <= "9":
        num = sc.integer()
        if sc.peek() == "/":
            sc.take()
            den = sc.integer()
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Polynomial.constant(n, Rat(num, den))
        return Polynomial.constant(n, num)
    raise ParseError("expected a rational, a variable, or '('", pos)
