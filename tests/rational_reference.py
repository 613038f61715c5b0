"""Reference scalar kernels for differential tests: the dot product, the
primitive scaling, Gauss-Jordan elimination and polynomial evaluation in
`Rat` arithmetic, one normalized product or quotient per step and no
zero skipping.  The fraction-free kernels of `plqstab.rational`,
`plqstab.linalg` and `plqstab.polymap` must return the same values, and
`rref` the same pivots and row order.  `rref_reference` divides its
entries, so it expects `Rat` entries (an int pivot would give floats).
"""

from math import gcd

from plqstab.linalg import RatMatrix
from plqstab.rational import ONE, ZERO, Rat, rat


def vdot_reference(a, b):
    s = ZERO
    for x, y in zip(a, b):
        s += x * y
    return s


def primitive_reference(a):
    nums = [rat(x) for x in a]
    if all(x == 0 for x in nums):
        return tuple(ZERO for _ in nums)
    den_lcm = 1
    for x in nums:
        d = int(x.denominator)
        den_lcm = den_lcm // gcd(den_lcm, d) * d
    ints = [int(x * den_lcm) for x in nums]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(Rat(v // g) for v in ints)


def rref_reference(rows):
    """(rref row list, pivot column list)."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [v / piv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def eval_reference(poly, point):
    """`Polynomial.eval`: every monomial multiplied out in full."""
    point = tuple(rat(v) for v in point)
    total = ZERO
    for e, c in poly.terms.items():
        term = c
        for x, k in zip(point, e):
            for _ in range(k):
                term *= x
        total += term
    return total


# -- the linalg solvers of `plqstab.linalg`, on the reference elimination ----

def rank_reference(rows):
    return len(rref_reference(rows)[1]) if rows else 0


def kernel_basis_reference(rows):
    if not rows:
        return []
    nc = len(rows[0])
    red, pivots = rref_reference(rows)
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [ZERO] * nc
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def solve_general_reference(rows, b):
    b = tuple(rat(v) for v in b)
    if not rows:
        return ((), []) if all(v == 0 for v in b) else None
    nc = len(rows[0])
    red, pivots = rref_reference([list(r) + [bb] for r, bb in zip(rows, b)])
    for row in red:
        if all(v == 0 for v in row[:nc]) and row[nc] != 0:
            return None
    x = [ZERO] * nc
    for i, pc in enumerate(pivots):
        if pc == nc:
            return None
        x[pc] = red[i][nc]
    return tuple(x), kernel_basis_reference(rows)


def invert_reference(rows):
    n = len(rows)
    aug = [list(rows[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    red, pivots = rref_reference(aug)
    if pivots[:n] != list(range(n)):
        return None
    return RatMatrix(tuple(tuple(red[i][n:]) for i in range(n)))
