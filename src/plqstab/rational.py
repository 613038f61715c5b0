"""Exact rational scalars and vector helpers.

Every kernel computation in this package is exact; floating point only
appears in the numeric probes, which go through ``to_float``.  ``Rat``
is a ``fractions.Fraction`` subclass with integer fast paths.  Its
constructor from ints, ``+``, ``-``, ``*``, ``/``, negation, ``abs``,
the comparisons and the hash of an integer read ``_numerator`` and
``_denominator`` directly when the other operand is a ``Rat`` or an
``int``, and return a ``Rat``.  Sums and products reduce by gcds as in
Henrici's method (Knuth, TAOCP Vol. 2, 4.5.1), so each result is in
lowest terms without a final normalization.  Any other operand (a
``float``, a plain ``Fraction``) goes to the ``Fraction`` method, so
values, ``str``, hashes and equality with ``int`` and ``Fraction`` are
those of ``Fraction``.

The scalar kernels (``vdot``, ``primitive`` and ``linalg.rref``) are
fraction-free: a product with a zero factor is skipped and builds no
``Rat``, and a sum or an elimination runs on integer numerators over
integer denominators, with one normalization at the end.  They read only
``numerator``, ``denominator`` and the truth value of their entries, and
their results are the values that step-by-step ``Rat`` arithmetic gives.
On a ``Rat``, ``numerator`` and ``denominator`` are ``Fraction``'s slots
themselves, read in C, not its Python-level properties; like
``_numerator`` they are writable, and ``Rat`` values are immutable by
convention only.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import OversizeError

_gcd = math.gcd


class Rat(Fraction):
    """A ``Fraction`` with fast paths for ``Rat`` and ``int`` operands;
    see the module docstring."""

    __slots__ = ()
    # the slots themselves, not Fraction's Python-level properties
    numerator = Fraction._numerator
    denominator = Fraction._denominator

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is int:
            if denominator is None:
                return _make(numerator, 1)
            if type(denominator) is int:
                if not denominator:
                    raise ZeroDivisionError("Fraction(%s, 0)" % numerator)
                g = _gcd(numerator, denominator)
                if denominator < 0:
                    g = -g
                return _make(numerator // g, denominator // g)
        return Fraction.__new__(cls, numerator, denominator)

    def __add__(a, b):
        if type(b) is Rat:
            return _add(a._numerator, a._denominator,
                        b._numerator, b._denominator)
        if type(b) is int:
            return _make(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    def __radd__(a, b):
        if type(b) is int:
            return _make(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__radd__(a, b)

    def __sub__(a, b):
        if type(b) is Rat:
            return _add(a._numerator, a._denominator,
                        -b._numerator, b._denominator)
        if type(b) is int:
            return _make(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        if type(b) is int:
            return _make(b * a._denominator - a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        if type(b) is Rat:
            na, da, nb, db = (a._numerator, a._denominator,
                              b._numerator, b._denominator)
            g = _gcd(na, db)
            if g > 1:
                na //= g
                db //= g
            g = _gcd(nb, da)
            if g > 1:
                nb //= g
                da //= g
            return _make(na * nb, da * db)
        if type(b) is int:
            g = _gcd(b, a._denominator)
            return _make(a._numerator * (b // g), a._denominator // g)
        return Fraction.__mul__(a, b)

    def __rmul__(a, b):
        if type(b) is int:
            g = _gcd(b, a._denominator)
            return _make(a._numerator * (b // g), a._denominator // g)
        return Fraction.__rmul__(a, b)

    def __truediv__(a, b):
        if type(b) is Rat:
            return _div(a._numerator, a._denominator,
                        b._numerator, b._denominator)
        if type(b) is int:
            return _div(a._numerator, a._denominator, b, 1)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(a, b):
        if type(b) is int:
            return _div(b, 1, a._numerator, a._denominator)
        return Fraction.__rtruediv__(a, b)

    def __neg__(a):
        return _make(-a._numerator, a._denominator)

    def __abs__(a):
        return _make(abs(a._numerator), a._denominator)

    def __eq__(a, b):
        if type(b) is Rat:
            return (a._numerator == b._numerator
                    and a._denominator == b._denominator)
        if type(b) is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        if type(b) is Rat:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if type(b) is int:
            return a._numerator < b * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        if type(b) is Rat:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        if type(b) is int:
            return a._numerator <= b * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        if type(b) is Rat:
            return a._numerator * b._denominator > b._numerator * a._denominator
        if type(b) is int:
            return a._numerator > b * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        if type(b) is Rat:
            return a._numerator * b._denominator >= b._numerator * a._denominator
        if type(b) is int:
            return a._numerator >= b * a._denominator
        return Fraction.__ge__(a, b)

    def __hash__(a):
        # Fraction's hash of n/1 is hash(n)
        if a._denominator == 1:
            return hash(a._numerator)
        return Fraction.__hash__(a)


def _make(n, d):
    """The Rat n/d of a reduced pair with d > 0, not normalized again."""
    q = object.__new__(Rat)
    q._numerator = n
    q._denominator = d
    return q


def _add(na, da, nb, db):
    """na/da + nb/db in lowest terms (Henrici): with g = gcd(da, db),
    only gcd(t, g) can divide the numerator t over da/g * db."""
    g = _gcd(da, db)
    if g == 1:
        return _make(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = _gcd(t, g)
    if g2 == 1:
        return _make(t, s * db)
    return _make(t // g2, s * (db // g2))


def _div(na, da, nb, db):
    """(na/da) / (nb/db) in lowest terms, by cross-cancellation."""
    if not nb:
        raise ZeroDivisionError("Fraction(%s, 0)" % (na * db))
    g = _gcd(na, nb)
    if g > 1:
        na //= g
        nb //= g
    g = _gcd(db, da)
    if g > 1:
        da //= g
        db //= g
    n, d = na * db, nb * da
    return _make(-n, -d) if d < 0 else _make(n, d)


ZERO = Rat(0)
ONE = Rat(1)


def rat(value, den=None):
    """Exact rational from int/str/Rat/float, or a (num, den) pair; a Rat
    is returned as it is."""
    if type(value) is Rat and den is None:
        return value
    if den is not None:
        return Rat(value, den)
    if isinstance(value, float):
        # exact binary expansion, no rounding; nan and inf raise as in
        # Fraction(value)
        return Rat(*value.as_integer_ratio())
    return Rat(value)


# The text `parse_rat` reads: an optional sign and ASCII digits, as an
# integer, "p/q" or a plain decimal ("0.05", ".5", "5."); the groups are
# the sign, the digits before "/" or ".", and those after "/" and ".".
_RAT_TEXT = re.compile(r"([-+]?)(?=[0-9]|\.[0-9])([0-9]*)"
                       r"(?:/([0-9]+)|\.([0-9]*))?")


def parse_rat(text):
    """Parse ``"p/q"``, integer, or plain decimal text to an exact Rat.

    Raises ValueError on anything else (scientific notation, underscores,
    digits other than ASCII, empty strings, ...) before building a number.
    """
    if isinstance(text, int):
        return Rat(text)
    if isinstance(text, float):
        raise ValueError("refusing float %r; use a string 'p/q' or an int" % text)
    m = _RAT_TEXT.fullmatch(str(text).strip())
    if not m:
        raise ValueError("expected an integer, 'p/q' or a plain decimal")
    sign, num, den, dec = m.groups()
    num, den = int(num or "0"), int(den or "1")
    if dec:  # each part is read on its own, as Fraction reads it
        den = 10 ** len(dec)
        num = num * den + int(dec)
    try:
        return Rat(-num if sign == "-" else num, den)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def format_rat(value) -> str:
    """Render as ``"p"`` or ``"p/q"`` (gcd-reduced, positive denominator).

    A numerator or denominator with more digits than the interpreter
    writes as text (its int-to-str limit) raises OversizeError."""
    try:
        return str(value)
    except ValueError:
        raise OversizeError("a rational of the report has more digits than "
                            "the interpreter writes as text") from None


def to_float(value) -> float:
    """float(value), with +-inf past float range where float() raises."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# -- small tuple-vector helpers (vectors are tuples of Rat) ------------------

def vadd(a, b):
    return tuple(x + y if y else x for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y if y else x for x, y in zip(a, b))


def vscale(t, a):
    return tuple(t * x for x in a)


def vdot(a, b):
    """The exact dot product, as a Rat.  Pairs with a zero factor are
    skipped; the other products are summed as one integer numerator over
    the least common denominator so far, and a single Rat is built at
    the end."""
    num, den = 0, 1
    for x, y in zip(a, b):
        xn = x.numerator
        if xn:
            yn = y.numerator
            if yn:
                q = x.denominator * y.denominator
                if q == den:
                    num += xn * yn
                else:
                    g = math.gcd(den, q)
                    num = num * (q // g) + xn * yn * (den // g)
                    den = den // g * q
    if not num:
        return ZERO
    g = math.gcd(num, den)
    return _make(num // g, den // g)


def norm_sq(a):
    return vdot(a, a)


def sqrt_float(value) -> float:
    """sqrt(value) for a Rat value >= 0, as a float.  A value past float
    range, or nonzero and below the normal floats, is divided by 4**k and
    the root scaled back by 2**k; the result is inf or 0.0 only when the
    root itself lies outside float range."""
    try:
        f = float(value)
    except OverflowError:
        f = math.inf
    if value == 0 or sys.float_info.min <= f < math.inf:
        return f ** 0.5
    k = (value.numerator.bit_length() - value.denominator.bit_length()) // 2
    scaled = value / 4 ** k if k >= 0 else value * 4 ** -k
    try:
        return math.ldexp(float(scaled) ** 0.5, k)
    except OverflowError:
        return math.inf


def norm2(a) -> float:
    return sqrt_float(norm_sq(a))


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def to_float_vec(a):
    return tuple(float(x) for x in a)


# Integer rows, for `primitive`, `linalg.rref` and the `lp` tableau.  The
# star-calls unpack lists, not generators (see the note in `lp`).

def scaled_ints(values):
    """(ints, scale): the values times their least common denominator."""
    fracs = [(v.numerator, v.denominator) for v in values]
    scale = math.lcm(*[d for _, d in fracs])
    return [num * (scale // d) for num, d in fracs], scale


def primitive_ints(row):
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def primitive(a):
    """Scale a rational vector to a canonical primitive integer vector.

    The result has integer entries with gcd 1 and the same direction;
    the zero vector maps to itself.  The scaling is integer arithmetic on
    the numerators and denominators.
    """
    ints = primitive_ints(scaled_ints([rat(x) for x in a])[0])
    return tuple(Rat(v) for v in ints)
