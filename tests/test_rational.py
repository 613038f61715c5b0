"""`Rat` (a `Fraction` subclass with integer fast paths) against stdlib `fractions.Fraction`: every overridden operation, with
`Rat`, `int`, `Fraction` and `float` as the other operand, on both sides;
the reads of `Fraction`'s slots that `Rat` binds in place of its
properties; and `vdot` against a step-by-step `Fraction` sum.
"""

import math
import operator
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plqstab.rational import Rat, vdot

_BIG = 2 ** 64

ints = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, _BIG + 1, -_BIG - 3]),
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(_BIG, 2 ** 90),
    st.integers(-2 ** 90, -_BIG),
)
# Negative denominators are given to the constructor on purpose.
denominators = ints.filter(bool)
pairs = st.tuples(ints, denominators)
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan]),
    st.floats(-1e30, 1e30),
)
# (kind, the operand as given to Rat's side, its value for the reference)
others = st.one_of(
    pairs.map(lambda p: ("rat", Rat(*p), Fraction(*p))),
    ints.map(lambda n: ("int", n, n)),
    pairs.map(lambda p: ("fraction", Fraction(*p), Fraction(*p))),
    floats.map(lambda f: ("float", f, f)),
)

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
          operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
          operator.ge]


def _outcome(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError as exc:
        return exc


def _check(got, want, exact, label):
    """`got` from the Rat side agrees with `want` from the Fraction side;
    `exact` when every operand is a Rat or an int."""
    if isinstance(want, ZeroDivisionError):
        assert isinstance(got, ZeroDivisionError), label
        return
    assert not isinstance(got, Exception), (label, got)
    if isinstance(want, Fraction):
        assert isinstance(got, Fraction), label
        assert got == want and str(got) == str(want), label
        assert hash(got) == hash(want), label
        if got.denominator == 1:
            assert hash(got) == hash(int(got)), label
        if exact:
            assert type(got) is Rat, label
    else:
        assert type(got) is type(want), label
        assert repr(got) == repr(want), label


@settings(derandomize=True, max_examples=400,
          deadline=timedelta(seconds=2))
@given(pairs, others)
def test_rat_operations_match_fraction(pair, other):
    a, ref = Rat(*pair), Fraction(*pair)
    kind, b, b_ref = other
    exact = kind in ("rat", "int")
    for op in BINARY:
        _check(_outcome(op, a, b), _outcome(op, ref, b_ref), exact,
               (op.__name__, kind, "left"))
        _check(_outcome(op, b, a), _outcome(op, b_ref, ref), exact,
               (op.__name__, kind, "right"))
    for op in (operator.neg, abs):
        _check(op(a), op(ref), True, op.__name__)
    _check(a, ref, True, "constructor")
    assert repr(a) == "Rat(%d, %d)" % (ref.numerator, ref.denominator)


@settings(derandomize=True, max_examples=200,
          deadline=timedelta(seconds=2))
@given(ints, st.one_of(st.none(), ints))
def test_rat_constructor_matches_fraction(num, den):
    want = _outcome(Fraction, num, den)
    got = _outcome(Rat, num, den)
    _check(got, want, True, "Rat(%r, %r)" % (num, den))
    if den is None:
        assert hash(got) == hash(num)


def test_rat_from_other_types_is_a_rat():
    for value, want in [(Fraction(-3, 6), Fraction(-1, 2)),
                        ("-6/4", Fraction(-3, 2)),
                        ("0.25", Fraction(1, 4)),
                        (0.75, Fraction(3, 4)),
                        (True, Fraction(1))]:
        got = Rat(value)
        assert type(got) is Rat and got == want and str(got) == str(want)
    half = Rat(Rat(1, 2), Rat(-3))
    assert type(half) is Rat and half == Fraction(-1, 6)
    assert hash(Rat(-1)) == hash(-1) == -2
    assert {Rat(1, 2): 0}[Fraction(1, 2)] == 0 and {2: 0}[Rat(4, 2)] == 0
    with pytest.raises(ZeroDivisionError):
        Rat(0) / 0
    with pytest.raises(ZeroDivisionError):
        1 / Rat(0, 5)


@settings(derandomize=True, max_examples=300,
          deadline=timedelta(seconds=2))
@given(pairs)
def test_rat_slot_reads_match_fraction(pair):
    # `numerator` and `denominator` are Fraction's slots on a Rat, so this
    # also checks the slot layout of the running CPython's Fraction
    a, ref = Rat(*pair), Fraction(*pair)
    assert type(a.numerator) is int and type(a.denominator) is int
    assert (a.numerator, a.denominator) == (ref.numerator, ref.denominator)
    assert float(a) == float(ref)
    assert hash(a) == hash(ref)
    assert bool(a) is bool(ref)


# vdot's entries: Rats, ints and zeros of both kinds, which it skips
entries = st.one_of(pairs.map(lambda p: Rat(*p)), ints,
                    st.sampled_from([0, Rat(0)]))


@settings(derandomize=True, max_examples=300,
          deadline=timedelta(seconds=2))
@given(st.lists(st.tuples(entries, entries), max_size=6))
def test_vdot_matches_the_stepwise_fraction_sum(terms):
    want = Fraction(0)
    for x, y in terms:
        want += Fraction(x) * Fraction(y)
    got = vdot([x for x, _ in terms], [y for _, y in terms])
    assert type(got) is Rat and got == want and str(got) == str(want)
