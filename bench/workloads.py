"""Benchmark inputs: the shipped corpus and a seeded ENLP generator.

Every input is a problem-file JSON document (the format `plqstab analyze`
reads), so the program under test sees nothing but generated files.
Known answers live here too; they are checked against each analysis
report and never come from the program under test.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

CORPUS_DIR = os.path.join("src", "plqstab", "corpus")
CORPUS_NAMES = ("example_3_2a", "example_3_2b", "example_3_3", "example_4_4",
                "example_6_2")

# Verdicts asserted by the paper examples (and pinned in the test suite).
CORPUS_VERDICTS = {
    "example_3_2a": ["noncritical"],
    "example_3_2b": ["critical"],
    "example_3_3": ["noncritical", "noncritical", "critical", "noncritical",
                    "noncritical"],
    "example_6_2": ["noncritical"],
}
# Further facts from the same examples: multiplier non-uniqueness without
# the dual qualification (4.4), and a certified strict minimum (6.2).
CORPUS_POINT_FACTS = {
    "example_4_4": {"uniqueness": {"singleton": False, "dqc": False}},
    "example_6_2": {"stability": {"sosc": True, "noncritical": True,
                                  "robust_ic": True}},
}

# Shape limits of the random ENLP family: n variables, m penalty
# coordinates, at most P_MAX rows in Y.
N_MAX, M_MAX, P_MAX = 3, 3, 3


def corpus_docs(root):
    """(name, document) for each shipped corpus file under checkout `root`."""
    out = []
    for name in CORPUS_NAMES:
        with open(os.path.join(root, CORPUS_DIR, name + ".json"),
                  encoding="utf-8") as fh:
            out.append((name, json.load(fh)))
    return out


# -- random ENLP problems around a known KKT point ---------------------------

def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else \
        "%d/%d" % (q.numerator, q.denominator)


def _monomial(exps):
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append("x%d" % (i + 1))
        elif e > 1:
            parts.append("x%d^%d" % (i + 1, e))
    return "*".join(parts)


def _expression(terms):
    """Expression text of {exponent tuple: Fraction}, in the file grammar."""
    out = []
    for exps in sorted(terms, key=lambda e: (-sum(e), tuple(-v for v in e))):
        c = terms[exps]
        if c == 0:
            continue
        mono = _monomial(exps)
        body = _fmt(abs(c)) if not mono else (
            mono if abs(c) == 1 else "%s*%s" % (_fmt(abs(c)), mono))
        sign = "-" if c < 0 else "+"
        out.append(("-" if c < 0 else "") + body if not out
                   else "%s %s" % (sign, body))
    return " ".join(out) if out else "0"


def _unit(n, j):
    e = [0] * n
    e[j] = 1
    return tuple(e)


def _random_map_terms(rng, n, const):
    """Polynomial in n variables: given constant, random linear and
    quadratic parts."""
    terms = {(0,) * n: const}
    for j in range(n):
        terms[_unit(n, j)] = Fraction(rng.randint(-2, 2))
    for _ in range(rng.randint(0, 2)):
        e = [0] * n
        e[rng.randrange(n)] += 1
        e[rng.randrange(n)] += 1
        e = tuple(e)
        terms[e] = terms.get(e, Fraction(0)) + rng.randint(-1, 1)
    return terms


def random_enlp_doc(rng: random.Random, name):
    """One ENLP problem document whose point (x, lambda) = (0, lam_bar)
    solves the KKT system exactly, by construction.

    theta is given by Y = {y : b_i . y <= alpha_i} (some rows tight at
    lam_bar, some slack) and B = C^T C with k rows in C; Phi(0) is a point
    z_bar with lam_bar in the subdifferential of theta at z_bar, and
    grad phi0(0) cancels Phi'(0)^T lam_bar.
    """
    n, m, p = rng.randint(1, N_MAX), rng.randint(1, M_MAX), rng.randint(0, P_MAX)
    k = rng.randint(0, m)
    lam = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m)]
    rows, alpha, tight = [], [], []
    for _ in range(p):
        b = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
        if all(v == 0 for v in b):
            continue
        val = sum(x * y for x, y in zip(b, lam))
        if rng.random() < 0.5:
            tight.append(len(rows))
            alpha.append(val)
        else:
            alpha.append(val + rng.randint(1, 3))
        rows.append(b)
    c = [[Fraction(rng.randint(-1, 1)) for _ in range(m)] for _ in range(k)]
    bmat = [[sum((c[r][i] * c[r][j] for r in range(k)), Fraction(0))
             for j in range(m)] for i in range(m)]

    # z_bar = B lam_bar + sum of nonnegative multiples of the tight rows
    zbar = [sum((bmat[i][j] * lam[j] for j in range(m)), Fraction(0))
            for i in range(m)]
    for i in tight:
        beta = rng.randint(0, 2)
        for j in range(m):
            zbar[j] += beta * rows[i][j]

    phi = [_random_map_terms(rng, n, zbar[i]) for i in range(m)]
    # Phi'(0)^T lam_bar, read from the linear coefficients
    grad0 = [-sum((phi[i][_unit(n, j)] * lam[i] for i in range(m)),
                  Fraction(0)) for j in range(n)]
    phi0 = {_unit(n, j): grad0[j] for j in range(n)}
    for j in range(n):
        for l in range(j, n):
            e = [0] * n
            e[j] += 1
            e[l] += 1
            phi0[tuple(e)] = Fraction(rng.randint(-2, 2))

    return {
        "name": name,
        "kind": "enlp",
        "n": n,
        "m": m,
        "phi0": _expression(phi0),
        "Phi": [_expression(t) for t in phi],
        "Y": {"b": [[_fmt(v) for v in r] for r in rows],
              "alpha": [_fmt(a) for a in alpha]},
        "B": [[_fmt(v) for v in r] for r in bmat],
        "points": [{"x": ["0"] * n, "lambda": [_fmt(v) for v in lam]}],
    }


def random_enlp_docs(seed, count):
    """(name, document) for `count` problems drawn from one seeded stream."""
    rng = random.Random("random-enlp/%d" % seed)
    names = ["enlp_%d_%03d" % (seed, i) for i in range(count)]
    return [(name, random_enlp_doc(rng, name)) for name in names]


# -- known answers -------------------------------------------------------------

def check_report(name, report, probe):
    """Known-answer failures (a list of strings) of one analysis report."""
    bad = []
    points = report["points"]
    if name in CORPUS_VERDICTS and report["verdicts"] != CORPUS_VERDICTS[name]:
        bad.append("%s: verdicts %r, expected %r"
                   % (name, report["verdicts"], CORPUS_VERDICTS[name]))
    for section, facts in CORPUS_POINT_FACTS.get(name, {}).items():
        got = points[0].get(section, {})
        for key, want in facts.items():
            if got.get(key) != want:
                bad.append("%s: %s.%s is %r, expected %r"
                           % (name, section, key, got.get(key), want))
    if name not in CORPUS_NAMES:
        for i, pt in enumerate(points):
            if pt["is_solution"] is not True or pt["kkt"]["holds"] is not True:
                bad.append("%s: point %d is not a KKT solution" % (name, i))
    if probe:
        for i, pt in enumerate(points):
            if "probes" not in pt:
                bad.append("%s: point %d has no probe section" % (name, i))
    return bad


def verdict_vector(report):
    """The exact verdicts of one report, without floats or witnesses."""
    out = []
    for pt in report["points"]:
        uniq = pt.get("uniqueness", {})
        stab = pt.get("stability", {})
        out.append([pt.get("criticality", {}).get("verdict", "not-a-solution"),
                    uniq.get("singleton"), uniq.get("dqc"),
                    [stab.get(k) for k in ("bcq", "sosc", "sonc", "unique",
                                           "isolated_calm_skkt",
                                           "lipschitz_like_skkt",
                                           "robust_ic")]])
    return out


def probe_solves(report):
    """(converged, attempted) Newton solves of a probed report.  The
    semi-isolated probe records a non-converged solve with lhs "nan"."""
    records = [r for pt in report["points"]
               for r in pt.get("probes", {}).get("semi_isolated", {})
               .get("records", [])]
    return sum(1 for r in records if r["lhs"] != "nan"), len(records)
