"""Exact rational scalars and vector helpers.

Every kernel computation in this package is exact; floating point only
appears in the numeric probes, which go through ``to_float``.  ``Rat``
is ``gmpy2.mpq`` when available (a drop-in rational that is several
times faster than ``fractions.Fraction``) and ``Fraction`` otherwise.

The scalar kernels (``vdot``, ``primitive`` and ``linalg.rref``) are
fraction-free: a product with a zero factor is skipped and builds no
``Rat``, and a sum or an elimination runs on integer numerators over
integer denominators, with one normalization at the end.  They read only
``numerator``, ``denominator`` and the truth value of their entries and
build results with ``Rat(n, d)``, so they run unchanged on either
backend, and their results are the values that step-by-step ``Rat``
arithmetic gives.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    Rat = Fraction

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
        # exact binary expansion, no rounding
        return Rat(Fraction(value))
    return Rat(value)


def parse_rat(text):
    """Parse ``"p/q"``, integer, or plain decimal text to an exact Rat.

    Raises ValueError on anything else (floats in scientific notation,
    empty strings, ...).
    """
    if isinstance(text, int):
        return Rat(text)
    if isinstance(text, float):
        raise ValueError("refusing float %r; use a string 'p/q' or an int" % text)
    s = str(text).strip()
    if not s:
        raise ValueError("empty rational literal")
    try:
        return Rat(Fraction(s))
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def format_rat(value) -> str:
    """Render as ``"p"`` or ``"p/q"`` (gcd-reduced, positive denominator)."""
    return str(value)


def to_float(value) -> float:
    """float(value), with +-inf past float range where float() raises."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# -- small tuple-vector helpers (vectors are tuples of Rat) ------------------

def vec(values):
    return tuple(rat(v) for v in values)


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
    return Rat(num, den) if num else ZERO


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
    fracs = [(int(v.numerator), int(v.denominator)) for v in values]
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
