"""The sources of `probe.FloatKernel`'s compiled line search and Newton
step.

`search_source` writes one Python function that runs the backtracking
loop of `FloatKernel.line_search`, damp = 1, 1/2, ..., and performs in
each trial the float operations of a generic trial, in their order: the
trial point, `polymap._float_values` over the kernel's term lists with
each power multiplied out once, r1 and the running sum of its squares,
the prox argument, `StrictQpSolver.solve_float` unrolled over the active
sets reached so far, r2 and the rest of the running sum.  A trial whose
unrolled scan finds no passing set, or one with no cached Jacobian,
takes its prox value and Jacobian from `PlqPenalty.prox_float` instead,
as the generic trial does, so the function finishes every trial.  It
returns the first trial whose |R|^2 is below the current one; a rejected
trial builds no list.  Each sum is one statement per addition, as the
generic loops add them, so the function returns the generic path's bits
and a polynomial of any length compiles.  The source holds only template
names, integer literals and operators; every float and every Jacobian is
one of the constants k0, k1, ..., which the enclosing `make` unpacks
from a tuple once per build, so nothing of the problem file is written
into it.  The kernel imports this module when it first builds, so runs
without the probe never load it.

Two rules skip work without changing a bit, as in the generic trial.  A
trial point equal to the iterate ends the search.  And a trial is
rejected once the running sum of |R|^2 is not below the current one,
which the function checks after r1, before the prox scan: the float sum
of nonnegative terms never decreases, so the whole sum would not be
below it either.

`step_source` writes, once per kernel, one more function of the same
kind: the Newton step of `FloatKernel.step`, that is the Newton matrix
[[A, DPhi^T], [(I - J) DPhi, -J]] with A's Hessian terms from
`_value_lines`, its finiteness check, and LU with partial pivoting and
back substitution (`_lu_lines`) on local variables, each float
operation that of `FloatKernel.newton_matrix` and `probe._lu_solve`, in
their order.  Where a pivot is exactly zero it returns the minimum-norm
step of the untouched matrix (`probe._min_norm_step`).
"""

from __future__ import annotations

import math

from .probe import _TRIALS

__all__ = ["compile_search", "compile_step", "search_source", "step_source"]


def _sum_lines(target, products):
    """Source lines leaving in `target` 0.0 plus each of `products` in
    order, one statement per addition: the float sum of
    `polymap._float_values` and of `qp._fdot`."""
    if not products:
        return ["%s = ZERO" % target]
    return (["%s = ZERO + %s" % (target, products[0])]
            + ["%s += %s" % (target, p) for p in products[1:]])


def _names(prefix, count):
    return ", ".join("%s%d" % (prefix, i) for i in range(count))


def _const(consts, value):
    """The source name k{i} of `value`, appended to `consts`."""
    consts.append(value)
    return "k%d" % (len(consts) - 1)


def _dot_lines(target, row, names, consts):
    return _sum_lines(target, ["%s * %s" % (_const(consts, a), b)
                               for a, b in zip(row, names)])


def _value_lines(terms, consts):
    """`polymap._float_values(terms, x)` at the point x0, x1, ...: the
    powers of each coordinate multiplied out, w{j}_1 = x{j} and w{j}_{k} =
    w{j}_{k-1} * x{j} up to its largest exponent; then polynomial i as
    v{i}, its terms in order, each coefficient times its powers left to
    right."""
    top = {}
    for poly in terms:
        for _, ps in poly:
            for j, k in ps:
                top[j] = max(top.get(j, 0), k)
    lines = []
    for j in sorted(top):
        lines.append("w%d_1 = x%d" % (j, j))
        lines += ["w%d_%d = w%d_%d * x%d" % (j, k, j, k - 1, j)
                  for k in range(2, top[j] + 1)]
    for i, poly in enumerate(terms):
        lines += _sum_lines("v%d" % i, [
            " * ".join([_const(consts, c)] + ["w%d_%d" % p for p in ps])
            for c, ps in poly])
    return lines


def _r1_lines(n, m):
    """r1 as `FloatKernel.residual` forms it, e{i} = v{i} + DPhi_0i l0 +
    ... - q{i}, and the running sum sq of its squares from 0.0."""
    lines = []
    for i in range(n):
        lines.append("e%d = v%d" % (i, i))
        lines += ["e%d += v%d * l%d" % (i, n + m + j * n + i, j)
                  for j in range(m)]
        lines.append("e%d -= q%d" % (i, i))
    return lines + ["sq = ZERO"] + ["sq += e%d * e%d" % (i, i)
                                    for i in range(n)]


def _scan_lines(m, reached, jacs, consts):
    """`StrictQpSolver.solve_float` at c0, c1, ... over the sets of
    `reached`, in order, leaving the passing set's y in y0, y1, ... and
    its Jacobian in J; J is None when no set passes, and False when the
    passing set has no Jacobian in `jacs`."""
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
        body.append("J = %s" % (_const(consts, jacs[subset])
                                if subset in jacs else "False"))
        lines += ["while J is None:"] + ["    " + line for line in body]
    return lines


def search_source(n, m, terms, solver, jacs):
    """(source lines, constants) of `FloatKernel.line_search`'s function
    over the sets the prox QP `solver` has reached and the Jacobians
    `jacs`: `make(K)` unpacks the constants K and returns `search(x, lam,
    step, p1, p2, cur)`, which runs the trials damp = 1, 1/2, ... and
    returns (trials made, (x', lam', values, R, |R|^2, J)) for the first
    one whose |R|^2 is below `cur`, or (_TRIALS, None) when it rejects
    every one or reaches a trial point equal to the iterate.  A trial
    the unrolled scan does not finish calls PROX, `prox_float` as the
    kernel binds it.  The source holds only template names, integer
    literals, the constants' names k{i} (a float or a Jacobian) and
    operators."""
    consts = []
    loop = ["x%d = a%d + damp * h%d" % (j, j, j) for j in range(n)]
    loop += ["l%d = a%d + damp * h%d" % (j, n + j, n + j) for j in range(m)]
    loop += ["if %s:" % " and ".join(
        ["x%d == a%d" % (j, j) for j in range(n)]
        + ["l%d == a%d" % (j, n + j) for j in range(m)]),
             "    break"]
    loop += _value_lines(terms, consts)
    loop += _r1_lines(n, m)
    loop += ["if not sq < cur:", "    continue"]
    for j in range(m):
        loop += ["z%d = v%d + o%d" % (j, n + j, j),
                 "u%d = l%d + z%d" % (j, j, j), "c%d = -u%d" % (j, j)]
    loop += _scan_lines(m, solver._reached, jacs, consts)
    loop += ["if J:"] + ["    r%d = z%d - (u%d - y%d)" % (j, j, j, j)
                         for j in range(m)]
    loop += ["else:", "    P, J = PROX([%s])" % _names("u", m)]
    loop += ["    r%d = z%d - P[%d]" % (j, j, j) for j in range(m)]
    loop += ["sq += r%d * r%d" % (j, j) for j in range(m)]
    loop += ["if sq < cur:",
             "    return i, ([%s], [%s], [%s], [%s, %s], sq, J)" % (
                 _names("x", n), _names("l", m), _names("v", len(terms)),
                 _names("e", n), _names("r", m))]
    body = ["a%d = x[%d]" % (j, j) for j in range(n)]
    body += ["a%d = lam[%d]" % (n + j, j) for j in range(m)]
    body += ["h%d = step[%d]" % (j, j) for j in range(n + m)]
    body += ["q%d = p1[%d]" % (i, i) for i in range(n)]
    body += ["o%d = p2[%d]" % (j, j) for j in range(m)]
    body += ["for i, damp in enumerate(DAMPS, 1):"]
    body += ["    " + line for line in loop]
    body.append("return %d, None" % _TRIALS)
    return _make_lines("search(x, lam, step, p1, p2, cur)", body,
                       consts), consts


def _make_lines(signature, body, consts):
    """The source of `make(K)`, which unpacks the constants K into k0, k1,
    ... and returns the function `signature` with `body`."""
    head = ["%s, = K" % _names("k", len(consts))] if consts else []
    head += ["def %s:" % signature] + ["    " + line for line in body]
    head.append("return " + signature[:signature.index("(")])
    return ["def make(K):"] + ["    " + line for line in head]


def _lu_lines(grid, rhs):
    """`probe._lu_solve` of the matrix whose entries the source names of
    `grid` (a list of rows) hold, for the right-hand side b0, b1, ..., in
    its float operations and their order.  The entries are copied to
    a{i}_{j} first.  At column k the pivot row p is the first of largest
    |a_ik| by a strict `>` scan in row order, the row `max` picks, also
    where entries tie or are nan; rows k and p swap their entries k, k + 1,
    ... and b; each row i below takes q = a_ik / a_kk, then a_ij - q a_kj
    and b_i - q b_k.  Back substitution leaves y_i = (b_i - a_i,i+1 y_i+1
    - ...) / a_ii, subtracting left to right, and the function returns
    [y0, y1, ...].  Where a pivot is exactly zero it returns MIN_NORM
    (`probe._min_norm_step`) of the untouched matrix, as a list of row
    lists of `grid`'s names, and of the source `rhs` of the untouched
    right-hand side."""
    size = len(grid)
    lines = ["a%d_%d = %s" % (i, j, name)
             for i, row in enumerate(grid) for j, name in enumerate(row)]
    untouched = "    return MIN_NORM([%s], %s)" % (", ".join(
        "[%s]" % ", ".join(row) for row in grid), rhs)
    for k in range(size):
        lines.append("t = abs(a%d_%d)" % (k, k))
        lines += ["p = %d" % k] if k + 1 < size else []
        for i in range(k + 1, size):
            lines += ["u = abs(a%d_%d)" % (i, k),
                      "if u > t:", "    t = u", "    p = %d" % i]
        pivot = ["a%d_%d" % (k, j) for j in range(k, size)] + ["b%d" % k]
        for i in range(k + 1, size):
            other = ["a%d_%d" % (i, j) for j in range(k, size)] + ["b%d" % i]
            lines += ["%s p == %d:" % ("elif" if i > k + 1 else "if", i),
                      "    %s = %s" % (", ".join(pivot + other),
                                       ", ".join(other + pivot))]
        lines += ["if t == 0:", untouched]
        for i in range(k + 1, size):
            lines.append("q = a%d_%d / a%d_%d" % (i, k, k, k))
            lines += ["a%d_%d -= q * a%d_%d" % (i, j, k, j)
                      for j in range(k + 1, size)]
            lines.append("b%d -= q * b%d" % (i, k))
    for i in reversed(range(size)):
        lines += ["b%d -= a%d_%d * y%d" % (i, i, j, j)
                  for j in range(i + 1, size)]
        lines.append("y%d = b%d / a%d_%d" % (i, i, i, i))
    return lines + ["return [%s]" % _names("y", size)]


def step_source(n, m, a_terms):
    """(source lines, constants) of `FloatKernel.step`'s function:
    `make(K)` unpacks the constants K and returns `step(x, lam, values,
    pj, r)`, which does the float work of `FloatKernel.step`'s generic
    way, `newton_matrix`, its finiteness check and the LU, in their
    order.  It evaluates the kernel's `a_terms` at x with
    `_value_lines`; adds each Hessian block to A, a + lam_i h, for each
    lam_i that is not 0; reads DPhi off `values` and the blocks (I - J,
    -J) off `pj`; forms each entry of (I - J) DPhi as 0.0 plus its
    products in order; returns None when an entry of the Newton matrix
    is not finite (x - x is 0.0 exactly for a finite x, else nan); and
    solves for the right-hand side -r by `_lu_lines`, which takes the
    minimum-norm step where a pivot is exactly zero.  So it returns the
    step as a list, or None.  The source holds only template names,
    integer literals, the constants' names k{i} (floats) and
    operators."""
    consts = []
    nn = n * n
    body = ["%s, = x" % _names("x", n), "%s, = lam" % _names("l", m)]
    body += _value_lines(a_terms, consts)
    for i in range(m):
        body.append("if l%d != 0:" % i)
        body += ["    v%d += l%d * v%d" % (e, i, nn * (i + 1) + e)
                 for e in range(nn)]
    body += ["d%d_%d = values[%d]" % (j, i, n + m + j * n + i)
             for j in range(m) for i in range(n)]
    body.append("(%s,), (%s,) = pj" % tuple(
        ", ".join("(%s,)" % ", ".join("%s%d_%d" % (c, k, j)
                                      for j in range(m))
                  for k in range(m)) for c in "gn"))
    for k in range(m):
        for i in range(n):
            body += _sum_lines("s%d_%d" % (k, i), [
                "g%d_%d * d%d_%d" % (k, j, j, i) for j in range(m)])
    grid = [["v%d" % (i * n + j) for j in range(n)]
            + ["d%d_%d" % (j, i) for j in range(m)] for i in range(n)]
    grid += [["s%d_%d" % (k, i) for i in range(n)]
             + ["n%d_%d" % (k, j) for j in range(m)] for k in range(m)]
    for row in grid:
        body += ["if %s != 0:" % " + ".join("(%s - %s)" % (e, e)
                                             for e in row),
                 "    return None"]
    body.append("%s, = r" % _names("b", n + m))
    body += ["b%d = -b%d" % (i, i) for i in range(n + m)]
    body += _lu_lines(grid, "[-e for e in r]")
    return _make_lines("step(x, lam, values, pj, r)", body, consts), consts


def _compiled(lines, consts, env, filename):
    """The function that `make(consts)` returns, `make` defined by the
    source `lines` in the globals `env`."""
    exec(compile("\n".join(lines) + "\n", filename, "exec"), env)
    return env["make"](tuple(consts))


def compile_search(lines, consts, prox):
    """The function `search` that `make(consts)` returns, `make` defined
    by the source `lines` with ZERO bound to 0.0, DAMPS to the damping
    factors 2^-i and PROX to `prox`."""
    return _compiled(lines, consts, {
        "ZERO": 0.0, "PROX": prox,
        "DAMPS": tuple(math.ldexp(1.0, -i) for i in range(_TRIALS))},
        "<plqstab search>")


def compile_step(lines, consts, min_norm):
    """The function `step` that `make(consts)` returns, `make` defined by
    the source `lines` with ZERO bound to 0.0 and MIN_NORM to
    `min_norm`."""
    return _compiled(lines, consts, {"ZERO": 0.0, "MIN_NORM": min_norm},
                     "<plqstab step>")
