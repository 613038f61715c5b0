"""The source of `probe.FloatKernel`'s compiled line search.

`search_source` writes one Python function that runs the backtracking
loop of `probe.solve_perturbed`'s line search, damp = 1, 1/2, ...,
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

Two rejections skip work without changing a bit.  A trial point equal
to the iterate ends the search: numpy would reject it and every smaller
damp (`FloatKernel.line_search`).  And the bound's first block, the e-part
of `rejects`, runs before the prox scan: when it alone reaches the floor
and the prox argument is below CAP, where `offsets_capped` has shown that
no prox value of any path can push r2 to _BIG, `rejects` would have
rejected the trial whatever the scan returns.
"""

from __future__ import annotations

import math

from .probe import _BIG, _C, _TRIALS

__all__ = ["bound_lines", "compile_search", "first_block_lines",
           "first_block_rejects", "offsets_capped", "p1_lines",
           "search_source"]

# The prox argument bound of the early rejection, and the bound that
# `offsets_capped` proves on every prox offset: below 2^200 each, they keep
# every prox value, and so r2, far below _BIG (see `offsets_capped`).
_CAP = math.ldexp(1.0, 200)


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
    in order, each coefficient times its powers left to right.

    The first power is x_j itself, with no call of `pow`, and that is the
    float x_j ** 1 gives: CPython's `float_pow` answers +-0, +-inf and nan
    itself, and for a negative x it negates the power of -x, so `pow(x,
    1.0)` of the C library sees only a positive finite x.  Its exact result
    x is a float, one ulp of its own from each neighbouring float, so any
    `pow` whose error is below one ulp returns x."""
    powers = sorted({p for poly in terms for _, ps in poly for p in ps})
    lines = ["w%d_1 = x%d" % (j, j) for j, k in powers if k == 1]
    raised = ["    w%d_%d = x%d ** %d" % (j, k, j, k) for j, k in powers if k != 1]
    if raised:
        lines += ["try:"] + raised + ["except OverflowError:",
                                      "    return i, None"]
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


def first_block_lines(n, m):
    """The first block of `FloatKernel.rejects` over the values v{i}, the
    trial multiplier l{j} and `p1_lines`' q{i} and m{i}, in its order:
    g{i} = max(|e_i| - C A_i, 0)^2 (ZERO where that is 0), pre their float
    sum, and ok cleared where an A_i is not below BIG (a comparison that
    nan fails too), where `rejects` returns False."""
    lines = ["ok = True", "pre = ZERO"]
    for i in range(n):
        lines += ["e = v%d - q%d" % (i, i), "b = abs(v%d) + m%d" % (i, i)]
        for j in range(m):
            lines += ["t = v%d * l%d" % (n + m + j * n + i, j), "e += t",
                      "b += abs(t)"]
        lines += ["if b < BIG:", "    d = abs(e) - C * b", "    if d > 0:",
                  "        g%d = d * d" % i, "        pre += g%d" % i,
                  "    else:", "        g%d = ZERO" % i,
                  "else:", "    ok = False"]
    return lines


def first_block_rejects(m):
    """The condition under which the first block alone rejects a trial,
    before its prox scan: every A_i below BIG, pre (1 - C) >= floor, and
    each z{j} and prox argument u{j} below CAP.  Where `offsets_capped`
    holds, every prox value then keeps each |r2_j| below 2^216, so
    `rejects` would find its guards met and, adding the r2 squares before
    the same g{i} with a float sum that is monotone in each term, a total
    no smaller than pre: it would reject the trial too."""
    return " and ".join(["ok", "pre * SHRINK >= floor"]
                        + ["-CAP < %s%d < CAP" % (v, j)
                           for j in range(m) for v in "zu"])


def bound_lines(n, m):
    """`FloatKernel.rejects` over `first_block_lines`' names and the prox
    block r{j}, leaving its decision in `rejected`."""
    return first_block_lines(n, m) + _prox_block_lines(n, m)


def _prox_block_lines(n, m):
    """The rest of `bound_lines`: the r2 guards, then the total, the r2
    squares and then each g{i}.  Adding a ZERO g{i} leaves the total's
    bits as they are, since the total is never -0.0; the float operations
    after a failed guard cannot raise."""
    guards = " and ".join("-BIG < r%d < BIG" % j for j in range(m))
    lines = ["rejected = ok and " + guards, "if rejected:", "    total = ZERO"]
    lines += ["    total += r%d * r%d" % (j, j) for j in range(m)]
    lines += ["    total += g%d" % i for i in range(n)]
    return lines + ["    rejected = total * SHRINK >= floor"]


def offsets_capped(solver):
    """Whether every active set of the prox QP `solver` has its offset d
    (y(c) = d - M c) below CAP, proven without factoring one.

    Q = B + I is at least I, so M, the leading block of the bordered
    inverse, has eigenvalues in [0, 1] and entries of magnitude at most
    1, and so has J = I - M, the Jacobian of the piece; d solves the
    bordered system with right-hand side (0, the active rows' rhs).  Each
    row of that system times the least common denominator of its entries
    (over every row of Y, not only the active ones) is an integer row, and
    scaling rows keeps Cramer's ratios, so |d_j| is at most the integer
    determinant with column j replaced, whose Hadamard bound is at most
    sqrt(P), P the product below.  With |M|, |J| <= 1, |d| < 2^200 and a
    prox argument below 2^200 in m <= 2000 coordinates, a float map's y,
    the prox value u - y and the exact fallback's J u + o all stay below
    2^215."""
    rows = [(b, a) for b, a in zip(solver._eq_rows, solver._eq_rhs)]
    rows += [(solver.poly.b[i], solver.poly.alpha[i]) for i in solver._ineq]
    product = 1
    for i, qrow in enumerate(solver.q.rows):
        product *= _scaled_square(list(qrow) + [b[i] for b, _ in rows])
    for b, alpha in rows:
        product *= _scaled_square(list(b) + [alpha])
    return product.bit_length() <= 400


def _scaled_square(entries):
    """max(1, |D v|^2) for the rational vector v and D the least common
    denominator of its entries, an integer."""
    scale = math.lcm(*(v.denominator for v in entries))
    return max(1, sum((v.numerator * (scale // v.denominator)) ** 2
                      for v in entries))


def search_source(n, m, terms, solver, jacs):
    """(source lines, constants) of `FloatKernel.line_search`'s function
    over the sets the prox QP `solver` has reached and the Jacobians
    `jacs`: `make(K)` unpacks the constants K and returns `search(x, lam,
    step, i, p1, p2, floor)`, which runs the trials i, i + 1, ... (damp
    2^-i) and returns (i, (x', lam', values, r2, J)) for the first one its
    bound does not reject, (i, None) for a trial i it cannot finish, and
    (_TRIALS, None) when it rejects every one or reaches a trial point
    equal to the iterate.  Where `offsets_capped(solver)` holds, the first
    block rejects a trial before its prox scan where it can.  The source
    holds only template names, integer literals, the constants' names
    k{i} (a float or a Jacobian) and operators."""
    consts = []
    loop = ["damp = DAMPS[i]"]
    loop += ["x%d = a%d + damp * h%d" % (j, j, j) for j in range(n)]
    loop += ["l%d = a%d + damp * h%d" % (j, n + j, n + j) for j in range(m)]
    loop += ["if %s:" % " and ".join(
        ["x%d == a%d" % (j, j) for j in range(n)]
        + ["l%d == a%d" % (j, n + j) for j in range(m)]),
             "    return %d, None" % _TRIALS]
    loop += _value_lines(terms, consts)
    for j in range(m):
        loop += ["z%d = v%d + o%d" % (j, n + j, j),
                 "u%d = l%d + z%d" % (j, j, j), "c%d = -u%d" % (j, j)]
    loop += first_block_lines(n, m)
    if offsets_capped(solver):
        loop += ["if %s:" % first_block_rejects(m), "    i += 1",
                 "    continue"]
    loop += _scan_lines(m, solver._reached, jacs, consts)
    loop += ["r%d = z%d - (u%d - y%d)" % (j, j, j, j) for j in range(m)]
    loop += _prox_block_lines(n, m)

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
    by the source `lines` with ZERO, BIG, C, SHRINK and CAP bound to 0.0
    and the bounds' constants and DAMPS to the damping factors 2^-i."""
    env = {"ZERO": 0.0, "BIG": _BIG, "C": _C, "SHRINK": 1 - _C, "CAP": _CAP,
           "DAMPS": tuple(math.ldexp(1.0, -i) for i in range(_TRIALS))}
    exec(compile("\n".join(lines) + "\n", "<plqstab search>", "exec"), env)
    return env["make"](tuple(consts))
