"""Expression grammar and polynomial map calculus."""

import math
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exprparse_reference
from plqstab import ParseError, PolyMap, Polynomial, parse_expression, rat
from plqstab.polymap import _float_values


def _eval_float(poly, point):
    """The float value of one polynomial, as the Newton probe evaluates it."""
    return _float_values((poly._float_coefficients(),), point)[0]


def test_grammar_examples():
    p = parse_expression("x1^2 + 2*x1*x2", 2)
    assert p.terms == {(2, 0): rat(1), (1, 1): rat(2)}
    assert parse_expression("-x1", 1).terms == {(1,): rat(-1)}
    q = parse_expression("1/2*x1^2 - 3", 1)
    assert q.terms == {(2,): rat(1, 2), (0,): rat(-3)}
    cubed = parse_expression("(x1 - x2)^3", 2)
    assert cubed.terms[(2, 1)] == rat(-3)


@pytest.mark.parametrize("bad", [
    "x3", "x0", "x1^-2", "x1^1/2", "2/0", "x1 +", "(x1", "y1", "", "* x1",
])
def test_grammar_errors_carry_positions(bad):
    with pytest.raises(ParseError) as err:
        parse_expression(bad, 2)
    assert "position" in str(err.value)


def _random_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = tuple(rng.randint(0, 3) for _ in range(n))
        terms[e] = rat(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(n, terms)


def test_print_parse_round_trip_1000():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(1, 3)
        p = _random_poly(rng, n)
        s = p.canonical_str()
        q = parse_expression(s, n)
        assert q == p
        assert q.canonical_str() == s


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-9, 9)), max_size=5))
def test_round_trip_property(entries):
    terms = {}
    for e1, e2, c in entries:
        terms[(e1, e2)] = terms.get((e1, e2), rat(0)) + rat(c)
    p = Polynomial(2, terms)
    assert parse_expression(p.canonical_str(), 2) == p


def test_symbolic_derivative_matches_finite_differences():
    rng = random.Random(47)
    for _ in range(12):
        n = rng.randint(1, 3)
        pmap = PolyMap([_random_poly(rng, n) for _ in range(rng.randint(1, 3))],
                       n=n)
        h = 1e-6
        for _ in range(100):
            x = [rng.uniform(-1, 1) for _ in range(n)]
            jac = [[_eval_float(c.diff(j), x) for j in range(n)]
                   for c in pmap.components]
            for i in range(pmap.k):
                for j in range(n):
                    xp = list(x)
                    xp[j] += h
                    xm = list(x)
                    xm[j] -= h
                    fd = (_eval_float(pmap.components[i], xp)
                          - _eval_float(pmap.components[i], xm)) / (2 * h)
                    assert abs(fd - jac[i][j]) < 1e-7 + 1e-6 * max(1.0, abs(jac[i][j]))


def test_derivative_polynomials_are_exact():
    p = parse_expression("1/3*x1^3 - x1*x2 + 5", 2)
    assert p.diff(0) == parse_expression("x1^2 - x2", 2)
    assert p.diff(1) == parse_expression("-x1", 2)
    # second derivatives commute
    assert p.diff(0).diff(1) == p.diff(1).diff(0)


def test_polymap_jacobian_hessian_values():
    f = PolyMap([parse_expression("x1^2 + x2", 2),
                 parse_expression("x1*x2", 2)])
    assert f.eval((1, 2)) == (rat(3), rat(2))
    assert f.jacobian_at((1, 2)).rows == ((rat(2), rat(1)), (rat(2), rat(1)))
    assert f.hessian_at(0, (1, 2)).rows == ((rat(2), rat(0)), (rat(0), rat(0)))
    grad = PolyMap([parse_expression("x1^2 + x2^2", 2)]).gradient_map()
    assert grad.eval((3, 4)) == (rat(6), rat(8))


def test_eval_float_past_float_range():
    # powers are multiplied out, x^3 = (x * x) * x, so past float range a
    # product or a power gives +-inf and inf - inf gives nan; nothing raises
    assert _eval_float(parse_expression("x1*x2", 2), (1e200, 1e200)) == math.inf
    assert _eval_float(parse_expression("x1^2 + 1", 1), (1e200,)) == math.inf
    assert _eval_float(parse_expression("x1^3", 1), (-1e200,)) == -math.inf
    assert math.isnan(_eval_float(parse_expression("x1^2 - x2^2", 2),
                                  (1e200, 1e200)))
    # 1.134^3 rounds to 1.4582741039999996, (1.134 * 1.134) * 1.134 to ...98
    assert _eval_float(parse_expression("x1^3", 1), (1.134,)) \
        == (1.134 * 1.134) * 1.134 == 1.4582741039999998


def test_polymap_guards():
    with pytest.raises(ValueError):
        PolyMap([])
    with pytest.raises(ValueError):
        PolyMap([Polynomial(2, {}), Polynomial(3, {})])
    with pytest.raises(ValueError):
        PolyMap([Polynomial(2, {}), Polynomial(2, {})]).gradient_map()


def test_power_skips_the_last_squaring():
    base = parse_expression("x1+x2+x3+x4", 4)
    products = []

    def mul(a, b):
        products.append((len(a.terms), len(b.terms)))
        return a * b

    result = base.power(8, mul)
    # base^2, base^4, base^8 by squaring, then 1 * base^8; no base^16
    assert products == [(4, 4), (10, 10), (35, 35), (1, 165)]
    expanded = Polynomial.constant(4, 1)
    for _ in range(8):
        expanded = expanded * base
    assert result == expanded == base.power(8)


# -- fuzzing the expression boundary ----------------------------------------------

_EXPR_ALPHABET = list("x0123456789+-*^/() ")


def _grammar_expressions(n):
    """Expressions from the grammar, with exponents past the caps."""
    every = "(%s)" % "+".join("x%d" % i for i in range(1, n + 1))
    leaves = st.one_of(st.integers(1, n + 1).map(lambda i: "x%d" % i),
                       st.just(every),
                       st.integers(0, 10 ** 6).map(str),
                       st.tuples(st.integers(0, 9), st.integers(0, 9))
                       .map(lambda t: "%d/%d" % t))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner)
        .map(lambda t: "%s%s%s" % t),
        st.tuples(inner, st.integers(0, 80)).map(lambda t: "(%s)^%d" % t),
        inner.map(lambda e: "-(%s)" % e)), max_leaves=8)


def _parses_or_refuses(text, n):
    try:
        poly = parse_expression(text, n)
    except ParseError:
        return
    assert isinstance(poly, Polynomial) and poly.n == n


@settings(derandomize=True, max_examples=400, deadline=timedelta(seconds=2))
@given(st.text(st.one_of(st.sampled_from(_EXPR_ALPHABET), st.characters()),
               max_size=40), st.integers(1, 4))
def test_fuzz_parse_expression_text(text, n):
    _parses_or_refuses(text, n)


@settings(derandomize=True, max_examples=300, deadline=timedelta(seconds=2))
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_grammar_expressions(n),
                                                     st.just(n))))
def test_fuzz_parse_expression_grammar(case):
    _parses_or_refuses(*case)


def test_only_ascii_digits_are_numerals():
    # str.isdigit() holds for "²" and "٣", and int() accepts "٣"
    with pytest.raises(ParseError, match="expected a rational"):
        parse_expression("²", 1)
    with pytest.raises(ParseError, match="unexpected trailing input"):
        parse_expression("1٣", 1)
    for text in ("x٣", "x1^٣"):
        with pytest.raises(ParseError, match="expected digits"):
            parse_expression(text, 3)


# -- the dict parser against the Polynomial-ring reference -------------------------


def _random_expression(rng, n, depth):
    """Grammar text with unary signs, nested parentheses, powers of sums,
    and sums and products that cancel."""
    def leaf():
        kind = rng.random()
        if kind < 0.5:
            return "x%d" % rng.randint(1, n)
        if kind < 0.8:
            return str(rng.randint(0, 9))
        return "%d/%d" % (rng.randint(0, 9), rng.randint(1, 9))

    def base(d):
        if d and rng.random() < 0.45:
            inner = expr(d - 1)
            if rng.random() < 0.25:  # a sum that cancels to zero
                return "(%s - (%s))" % (inner, inner)
            return "(%s)" % inner
        return leaf()

    def factor(d):
        out = base(d)
        if rng.random() < 0.3:
            out += "^%d" % rng.randint(0, 4)
        return out

    def term(d):
        if rng.random() < 0.15:  # a product whose cross terms cancel
            a, b = leaf(), leaf()
            return "(%s + %s) * (%s - %s)" % (a, b, a, b)
        return " * ".join(factor(d) for _ in range(rng.randint(1, 3)))

    def expr(d):
        terms = [term(d) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:  # a term and its negative, later in the sum
            terms += [terms[0], terms[0]]
            ops = [rng.choice("+-") for _ in terms[1:-2]] + ["+", "-"]
        else:
            ops = [rng.choice("+-") for _ in terms[1:]]
        text = rng.choice(("", "-", "+")) + terms[0]
        return text + "".join(" %s %s" % pair for pair in zip(ops, terms[1:]))

    return expr(depth)


def _outcome(parse, text, n):
    try:
        return list(parse(text, n).terms.items())
    except ParseError as err:
        return "ParseError", str(err), err.pos


def test_parser_matches_the_polynomial_ring_reference():
    rng = random.Random(3801)
    shapes = {"cancelled": 0, "refused": 0}
    for _ in range(400):
        n = rng.randint(1, 3)
        text = _random_expression(rng, n, rng.randint(1, 3))
        got = _outcome(parse_expression, text, n)
        # terms by value and in the reference's insertion order
        assert got == _outcome(exprparse_reference.parse_expression, text, n), text
        shapes["cancelled"] += "- (" in text and isinstance(got, list)
        shapes["refused"] += isinstance(got, tuple)
    assert shapes["cancelled"] >= 40, shapes


_MALFORMED = ["x3", "x0", "x1^-2", "x1^1/2", "2/0", "x1 +", "(x1", "y1", "",
              "* x1", "²", "1٣", "x٣", "x1^٣", "x1^65", "x1^99999999999",
              "(x1^9)^8", "(x1+x2+x3+x4)^40", "(" * 101 + "x1" + ")" * 101,
              "1" * 5000, "x1 x2", "x1^", "3/", "(x1))", "x1 * ", "x1^2^2"]


def test_parser_errors_match_the_polynomial_ring_reference():
    rng = random.Random(3802)
    cases = [(text, 3) for text in _MALFORMED]
    for _ in range(300):  # one character of a valid text replaced
        text = _random_expression(rng, 2, 2)
        at = rng.randrange(len(text))
        cases.append((text[:at] + rng.choice("x0^/()*+- ") + text[at + 1:], 2))
    refused = 0
    for text, n in cases:
        got = _outcome(parse_expression, text, n)
        assert got == _outcome(exprparse_reference.parse_expression, text, n), \
            text
        refused += isinstance(got, tuple)
    assert refused >= len(_MALFORMED) + 50, refused
