"""The source of `stability.FloatKernel`'s compiled line search.

`search_source` writes one Python function that runs the backtracking
loop of `stability.solve_perturbed`'s line search, damp = 1, 1/2, ...,
and performs in each trial the float operations of a generic trial
(`FloatKernel.trial`), in their order: the trial point,
`polymap._float_values` over the kernel's term lists, the prox argument,
`StrictQpSolver.solve_float` unrolled over the active sets reached so
far, the prox block r2 and `FloatKernel.rejects`.  It returns the first
trial the bound does not reject; a rejected trial builds no list.  Each
sum is 0.0 plus its terms, one statement per addition, as the generic
loops and `sum` add them, so the function returns the generic path's
bits and a polynomial of any length compiles.  The source holds only
template names, integer literals and operators; every float and every
Jacobian is one of the constants k0, k1, ..., which the enclosing
`make` unpacks from a tuple once per build, so nothing of the problem
file is written into it.  The kernel imports this module when it first
builds, so runs without the probe never load it.
"""

from __future__ import annotations

import math

from .stability import _BIG, _C, _TRIALS

__all__ = ["bound_lines", "compile_search", "p1_lines", "search_source"]


def _sum_lines(target, products):
    """Source lines leaving in `target` 0.0 plus each of `products` in
    order, one statement per addition: the float sum of
    `polymap._float_values` and, for a nonempty row, of
    `sum(map(mul, ...))`."""
    if not products:
        return ["%s = ZERO" % target]
    return (["%s = ZERO + %s" % (target, products[0])]
            + ["%s += %s" % (target, p) for p in products[1:]])


def _const(consts, value):
    """The source name k{i} of `value`, appended to `consts`."""
    consts.append(value)
    return "k%d" % (len(consts) - 1)


def _dot_lines(target, row, names, consts):
    return _sum_lines(target, ["%s * %s" % (_const(consts, a), b)
                               for a, b in zip(row, names)])


def _value_lines(terms, consts):
    """`polymap._float_values(terms, x)` at the point x0, x1, ...: each
    distinct power x_j ** k once, as w{j}_{k}, with an OverflowError
    ending the search at this trial; then polynomial i as v{i}, its terms
    in order, each coefficient times its powers left to right."""
    powers = sorted({p for poly in terms for _, ps in poly for p in ps})
    lines = []
    if powers:
        lines = (["try:"]
                 + ["    w%d_%d = x%d ** %d" % (j, k, j, k) for j, k in powers]
                 + ["except OverflowError:", "    return i, None"])
    for i, poly in enumerate(terms):
        lines += _sum_lines("v%d" % i, [
            " * ".join([_const(consts, c)] + ["w%d_%d" % p for p in ps])
            for c, ps in poly])
    return lines


def _scan_lines(m, reached, jacs, consts):
    """`StrictQpSolver.solve_float` at c0, c1, ... over the sets of
    `reached`, in order, leaving the passing set's y in y0, y1, ... and
    its Jacobian in J.  The search ends at this trial when no set passes
    or when the passing set has no Jacobian in `jacs`."""
    cs = ["c%d" % j for j in range(m)]
    ys = ["y%d" % j for j in range(m)]
    lines = ["J = None"]
    for subset, (yrows, murows, inactive) in reached:
        body = []
        for row, d in murows:
            body += _dot_lines("s", row, cs, consts)
            body += ["if %s - s < 0:" % _const(consts, d), "    break"]
        for y, (row, d) in zip(ys, yrows):
            body += _dot_lines("s", row, cs, consts)
            body.append("%s = %s - s" % (y, _const(consts, d)))
        for row, alpha in inactive:
            body += _dot_lines("s", row, ys, consts)
            body += ["if not s <= %s:" % _const(consts, alpha), "    break"]
        body.append("J = %s" % _const(consts, jacs[subset])
                    if subset in jacs else "return i, None")
        lines += ["while J is None:"] + ["    " + line for line in body]
    return lines + ["if J is None:", "    return i, None"]


def p1_lines(n):
    """p1's entries q{i} and their magnitudes m{i}, which every trial of a
    search shares."""
    return (["q%d = p1[%d]" % (i, i) for i in range(n)]
            + ["m%d = abs(q%d)" % (i, i) for i in range(n)])


def bound_lines(n, m):
    """`FloatKernel.rejects` over the values v{i}, the trial multiplier
    l{j}, the prox block r{j}, `p1_lines`' q{i} and m{i}, and floor,
    leaving its decision in `rejected`.  A failed magnitude guard (a
    comparison that nan fails too) clears `ok` where `rejects` returns
    False; the float operations that follow it cannot raise."""
    lines = ["ok = " + " and ".join("-BIG < r%d < BIG" % j for j in range(m)),
             "total = ZERO"]
    lines += ["total += r%d * r%d" % (j, j) for j in range(m)]
    for i in range(n):
        lines += ["e = v%d - q%d" % (i, i), "b = abs(v%d) + m%d" % (i, i)]
        for j in range(m):
            lines += ["t = v%d * l%d" % (n + m + j * n + i, j), "e += t",
                      "b += abs(t)"]
        lines += ["if b < BIG:", "    d = abs(e) - C * b", "    if d > 0:",
                  "        total += d * d", "else:", "    ok = False"]
    return lines + ["rejected = ok and total * SHRINK >= floor"]


def search_source(n, m, terms, reached, jacs):
    """(source lines, constants) of `FloatKernel.line_search`'s function:
    `make(K)` unpacks the constants K and returns `search(x, lam, step, i,
    p1, p2, floor)`, which runs the trials i, i + 1, ... (damp 2^-i) and
    returns (i, (x', lam', values, r2, J)) for the first one its bound
    does not reject, (i, None) for a trial i it cannot finish, and
    (_TRIALS, None) when it rejects every one.  The source holds only
    template names, integer literals, the constants' names k{i} (a float
    or a Jacobian) and operators."""
    consts = []
    loop = ["damp = DAMPS[i]"]
    loop += ["x%d = a%d + damp * h%d" % (j, j, j) for j in range(n)]
    loop += ["l%d = a%d + damp * h%d" % (j, n + j, n + j) for j in range(m)]
    loop += _value_lines(terms, consts)
    for j in range(m):
        loop += ["z%d = v%d + o%d" % (j, n + j, j),
                 "u%d = l%d + z%d" % (j, j, j), "c%d = -u%d" % (j, j)]
    loop += _scan_lines(m, reached, jacs, consts)
    loop += ["r%d = z%d - (u%d - y%d)" % (j, j, j, j) for j in range(m)]
    loop += bound_lines(n, m)

    def names(prefix, count):
        return ", ".join("%s%d" % (prefix, i) for i in range(count))

    loop += ["if not rejected:",
             "    return i, ([%s], [%s], [%s], [%s], J)" % (
                 names("x", n), names("l", m), names("v", len(terms)),
                 names("r", m)),
             "i += 1"]
    body = ["a%d = x[%d]" % (j, j) for j in range(n)]
    body += ["a%d = lam[%d]" % (n + j, j) for j in range(m)]
    body += ["h%d = step[%d]" % (j, j) for j in range(n + m)]
    body += p1_lines(n)
    body += ["o%d = p2[%d]" % (j, j) for j in range(m)]
    body += ["while i < %d:" % _TRIALS] + ["    " + line for line in loop]
    body.append("return i, None")
    head = ["%s, = K" % names("k", len(consts))] if consts else []
    head += ["def search(x, lam, step, i, p1, p2, floor):"]
    head += ["    " + line for line in body]
    return (["def make(K):"] + ["    " + line for line in head]
            + ["    return search"], consts)


def compile_search(lines, consts):
    """The function `search` that `make(consts)` returns, `make` defined
    by the source `lines` with ZERO, BIG, C and SHRINK bound to 0.0 and
    the bound's constants and DAMPS to the damping factors 2^-i."""
    env = {"ZERO": 0.0, "BIG": _BIG, "C": _C, "SHRINK": 1 - _C,
           "DAMPS": tuple(math.ldexp(1.0, -i) for i in range(_TRIALS))}
    exec(compile("\n".join(lines) + "\n", "<plqstab search>", "exec"), env)
    return env["make"](tuple(consts))
