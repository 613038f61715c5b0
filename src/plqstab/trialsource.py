"""The source of `stability.FloatKernel`'s compiled line-search trial.

`trial_source` writes one straight-line Python function that performs
the float operations of a generic trial, in their order: the trial
point, `polymap._float_values` over the kernel's term lists, the prox
argument, `StrictQpSolver.solve_float` unrolled over the active sets
reached so far, the prox block r2 and `FloatKernel.rejects`.  Each sum
is 0.0 plus its terms, one statement per addition, as the generic loops
and `sum` add them, so the function returns the generic path's bits and
a polynomial of any length compiles.  The source holds only template
names, integer literals and operators; every float and every Jacobian
array is read as K[i] from a tuple of constants, so nothing of the
problem file is written into it.  The kernel imports this module when it
first builds, so runs without the probe never load it.
"""

from __future__ import annotations

from .stability import _BIG, _C

__all__ = ["bound_lines", "compile_trial", "trial_source"]


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
    """The source reference K[i] of `value`, appended to `consts`."""
    consts.append(value)
    return "K[%d]" % (len(consts) - 1)


def _dot_lines(target, row, names, consts):
    return _sum_lines(target, ["%s * %s" % (_const(consts, a), b)
                               for a, b in zip(row, names)])


def _value_lines(terms, consts):
    """`polymap._float_values(terms, x)` at the point x0, x1, ...: each
    distinct power x_j ** k once, as w{j}_{k}, with an OverflowError
    ending the trial (None); then polynomial i as v{i}, its terms in
    order, each coefficient times its powers left to right."""
    powers = sorted({p for poly in terms for _, ps in poly for p in ps})
    lines = []
    if powers:
        lines = (["try:"]
                 + ["    w%d_%d = x%d ** %d" % (j, k, j, k) for j, k in powers]
                 + ["except OverflowError:", "    return None"])
    for i, poly in enumerate(terms):
        lines += _sum_lines("v%d" % i, [
            " * ".join([_const(consts, c)] + ["w%d_%d" % p for p in ps])
            for c, ps in poly])
    return lines


def _scan_lines(m, reached, jacs, consts):
    """`StrictQpSolver.solve_float` at c0, c1, ... over the sets of
    `reached`, in order, leaving the passing set's y in y0, y1, ... and
    its Jacobian in J.  The trial ends (None) when no set passes or when
    the passing set has no Jacobian in `jacs`."""
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
                    if subset in jacs else "return None")
        lines += ["while J is None:"] + ["    " + line for line in body]
    return lines + ["if J is None:", "    return None"]


def bound_lines(n, m):
    """`FloatKernel.rejects` over the values v{i}, the trial multiplier
    l{j}, the prox block r{j}, p1 and floor, leaving its decision in
    `rejected`.  A failed magnitude guard clears `ok` where `rejects`
    returns False; the float operations that follow it cannot raise."""
    lines = ["ok = " + " and ".join("abs(r%d) < BIG" % j for j in range(m)),
             "total = ZERO"]
    lines += ["total += r%d * r%d" % (j, j) for j in range(m)]
    for i in range(n):
        lines += ["q = p1[%d]" % i, "e = v%d - q" % i,
                  "b = abs(v%d) + abs(q)" % i]
        for j in range(m):
            lines += ["t = v%d * l%d" % (n + m + j * n + i, j), "e += t",
                      "b += abs(t)"]
        lines += ["if b < BIG:", "    d = abs(e) - C * b", "    if d > 0:",
                  "        total += d * d", "else:", "    ok = False"]
    return lines + ["rejected = ok and total * SHRINK >= floor"]


def trial_source(n, m, terms, reached, jacs):
    """(source lines, constants) of the straight-line trial function of
    `FloatKernel.trial`, the float operations of `parts` and `rejects` in
    their order.  The source holds only template names, integer literals,
    K[i] (the i-th constant: a float or a Jacobian array) and operators."""
    consts = []
    body = ["x%d = x[%d] + damp * step[%d]" % (j, j, j) for j in range(n)]
    body += ["l%d = lam[%d] + damp * step[%d]" % (j, j, n + j)
             for j in range(m)]
    body += _value_lines(terms, consts)
    for j in range(m):
        body += ["z%d = v%d + p2[%d]" % (j, n + j, j),
                 "u%d = l%d + z%d" % (j, j, j), "c%d = -u%d" % (j, j)]
    body += _scan_lines(m, reached, jacs, consts)
    body += ["r%d = z%d - (u%d - y%d)" % (j, j, j, j) for j in range(m)]
    body += bound_lines(n, m)

    def names(prefix, count):
        return ", ".join("%s%d" % (prefix, i) for i in range(count))

    body.append("return [%s], [%s], [%s], [%s], J, rejected" % (
        names("x", n), names("l", m), names("v", len(terms)), names("r", m)))
    return (["def trial(x, lam, step, damp, p1, p2, floor):"]
            + ["    " + line for line in body], consts)


def compile_trial(lines, consts):
    """The function `trial` that the source `lines` define, with K bound
    to `consts` and ZERO, BIG, C and SHRINK to 0.0 and the bound's
    constants."""
    env = {"K": tuple(consts), "ZERO": 0.0, "BIG": _BIG, "C": _C,
           "SHRINK": 1 - _C}
    exec(compile("\n".join(lines) + "\n", "<plqstab trial>", "exec"), env)
    return env["trial"]
