"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := rational | 'x'index | '(' expr ')'
    rational := digits ('/' digits)?

Variables are x1..xn; exponents are nonnegative integer literals of at
most MAX_EXPONENT, a power may not raise the degree above it either, and
no product may multiply out over MAX_EXPANSION term pairs, so that a
short input cannot ask for an unbounded expansion.  Errors carry the
character position.
"""

from __future__ import annotations

from .polymap import Polynomial
from .rational import Rat

__all__ = ["MAX_EXPANSION", "MAX_EXPONENT", "ParseError", "parse_expression"]

# The largest exponent, and the largest degree of a power, that parses.
MAX_EXPONENT = 64
# The most term pairs one product may multiply out, checked before the
# product is formed: a short power of a sum can ask for a huge expansion.
MAX_EXPANSION = 100_000


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def digits(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected digits", start)
        return self.text[start:self.pos]

    def integer(self):
        """The next digits as an int."""
        pos = self.pos
        text = self.digits()
        try:
            return int(text)
        except ValueError:  # beyond the interpreter's integer string limit
            raise ParseError("numeral of %d digits is too long" % len(text),
                             pos) from None


def parse_expression(text, n) -> Polynomial:
    """Parse `text` into a canonical polynomial in variables x1..xn."""
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
    total = _term(sc, n).scale(sign)
    while sc.peek() in ("+", "-"):
        op = sc.take()
        t = _term(sc, n)
        total = total + t if op == "+" else total - t
    return total


def _term(sc, n):
    total = _factor(sc, n)
    while sc.peek() == "*":
        sc.take()
        pos = sc.pos
        total = _product(total, _factor(sc, n), pos)
    return total


def _product(a, b, pos):
    """a * b, refused before it is formed past MAX_EXPANSION term pairs."""
    if len(a.terms) * len(b.terms) > MAX_EXPANSION:
        raise ParseError("product of over %d term pairs" % MAX_EXPANSION, pos)
    return a * b


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
        # compare the length first: int() of a huge literal is itself slow
        if len(text) > len(str(MAX_EXPONENT)) or int(text) > MAX_EXPONENT:
            raise ParseError("exponent above %d" % MAX_EXPONENT, pos)
        power = int(text)
        if base.degree() * power > MAX_EXPONENT:
            raise ParseError("power of degree above %d" % MAX_EXPONENT, pos)
        return base.power(power, lambda a, b: _product(a, b, pos))
    return base


def _base(sc, n):
    ch = sc.peek()
    pos = sc.pos
    if ch == "(":
        sc.take()
        inner = _expr(sc, n)
        if sc.peek() != ")":
            raise ParseError("expected ')'", sc.pos)
        sc.take()
        return inner
    if ch == "x":
        sc.take()
        idx = sc.integer()
        if not 1 <= idx <= n:
            raise ParseError("variable x%d out of range 1..%d" % (idx, n), pos)
        return Polynomial.variable(n, idx - 1)
    if "0" <= ch <= "9":  # ASCII only: str.isdigit() admits other digits
        num = sc.integer()
        if sc.peek() == "/":
            sc.take()
            den = sc.integer()
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Polynomial.constant(n, Rat(num, den))
        return Polynomial.constant(n, num)
    raise ParseError("expected a rational, a variable, or '('", pos)
