"""Exact rational matrices, linear solving, and the sign of a symmetric
form: one symmetrically pivoted LDL^T (`reduce_lineality`) decides PSD,
PD and the lineality reduction of copositivity."""

from __future__ import annotations

from .errors import InternalConsistencyError
from .rational import (ONE, ZERO, Rat, primitive_ints, rat, scaled_ints, vadd,
                       vdot, vscale)

__all__ = [
    "RatMatrix",
    "identity",
    "zeros",
    "rref",
    "rank",
    "kernel_basis",
    "column_space_basis",
    "solve_general",
    "invert",
    "reduce_lineality",
    "psd_check",
    "is_positive_definite",
    "pseudo_inverse_psd",
]


class RatMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(rat(v) for v in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged matrix rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]) if rows else 0)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("RatMatrix is immutable")

    # -- construction ---------------------------------------------------
    @staticmethod
    def from_cols(cols):
        cols = [tuple(rat(v) for v in c) for c in cols]
        if not cols:
            return RatMatrix(())
        return RatMatrix(tuple(zip(*cols)))

    # -- basic access ----------------------------------------------------
    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def T(self):
        return RatMatrix(tuple(zip(*self.rows))) if self.rows else RatMatrix(())

    def is_square(self):
        return self.nrows == self.ncols

    def is_symmetric(self):
        if not self.is_square():
            return False
        r = self.rows
        return all(r[i][j] == r[j][i] for i in range(self.nrows) for j in range(i))

    # -- arithmetic --------------------------------------------------------
    def matvec(self, v):
        return tuple(vdot(r, v) for r in self.rows)

    def rmatvec(self, v):
        """Transpose-vector product ``A^T v``."""
        return tuple(vdot(self.col(j), v) for j in range(self.ncols))

    def __matmul__(self, other):
        if isinstance(other, RatMatrix):
            cols = [other.col(j) for j in range(other.ncols)]
            return RatMatrix(tuple(tuple(vdot(r, c) for c in cols) for r in self.rows))
        return self.matvec(other)

    def __add__(self, other):
        return RatMatrix(tuple(tuple(a + b for a, b in zip(r, s))
                               for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return RatMatrix(tuple(tuple(a - b for a, b in zip(r, s))
                               for r, s in zip(self.rows, other.rows)))

    def __neg__(self):
        return RatMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, t):
        t = rat(t)
        return RatMatrix(tuple(tuple(t * a for a in r) for r in self.rows))

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "RatMatrix(%r)" % (self.rows,)

    def to_float(self):
        import numpy as np

        return np.array([[float(v) for v in r] for r in self.rows], dtype=float)


def identity(n):
    return RatMatrix(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                           for i in range(n)))


def zeros(nrows, ncols):
    return RatMatrix(tuple((ZERO,) * ncols for _ in range(nrows)))


def rref(rows):
    """Reduced row echelon form. Returns (rref row list, pivot column list).

    Fraction-free Gauss-Jordan elimination on integer rows, as in
    Bareiss (Math. Comp. 22, 1968), with gcd reduction in place of his
    exact divisions: each row is scaled to primitive integers, the pivot
    row is the first row at or below the current one that is nonzero in
    the column, every other row is updated as
    ``piv * row - row[c] * pivot_row`` and divided by its gcd, and each
    pivot row is divided by its pivot once at the end.  Every row stays
    a nonzero multiple of the row that elimination in ``Rat`` arithmetic
    holds, so the pivots and the row order are the same, and so is the
    RREF, which is unique.  Entries are read through ``numerator`` and
    ``denominator`` only, so either ``Rat`` backend (and int entries)
    works; every output entry is a ``Rat``, and a zero one builds none.
    """
    m = [primitive_ints(scaled_ints(r)[0]) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        piv = prow[c]
        for i in range(nr):
            f = m[i][c]
            if f and i != r:
                m[i] = primitive_ints([piv * a - f * b
                                       for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nr:
            break
    red = [[Rat(v, row[c]) if v else ZERO for v in row]
           for row, c in zip(m, pivots)]
    red.extend([ZERO] * nc for _ in range(nr - r))
    return red, pivots


def rank(mat) -> int:
    rows = mat.rows if isinstance(mat, RatMatrix) else mat
    if not rows:
        return 0
    return len(rref(rows)[1])


def kernel_basis(mat):
    """Basis of the null space {x : A x = 0} as a list of tuples."""
    rows = mat.rows if isinstance(mat, RatMatrix) else tuple(mat)
    if not rows:
        return []
    nc = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * nc
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def column_space_basis(mat):
    """Linearly independent columns spanning the range, as tuples."""
    m = mat if isinstance(mat, RatMatrix) else RatMatrix(mat)
    if m.nrows == 0 or m.ncols == 0:
        return []
    _, piv = rref(m.rows)
    return [m.col(c) for c in piv]


def solve_general(amat, b):
    """All solutions of A x = b: (particular, nullspace basis) or None."""
    rows = amat.rows if isinstance(amat, RatMatrix) else tuple(amat)
    b = tuple(rat(v) for v in b)
    if not rows:
        return ((), []) if all(v == 0 for v in b) else None
    nc = len(rows[0])
    aug = [list(r) + [bb] for r, bb in zip(rows, b)]
    red, pivots = rref(aug)
    for row in red:
        if all(v == 0 for v in row[:nc]) and row[nc] != 0:
            return None
    x = [ZERO] * nc
    for i, pc in enumerate(pivots):
        if pc == nc:
            return None  # pivot in augmented column: inconsistent
        x[pc] = red[i][nc]
    null = kernel_basis(rows)
    return tuple(x), null


def invert(mat):
    """Exact inverse of a nonsingular square matrix; None when singular."""
    m = mat if isinstance(mat, RatMatrix) else RatMatrix(mat)
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    aug = [list(m.rows[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return RatMatrix(tuple(tuple(red[i][n:]) for i in range(n)))


def _require_symmetric(mat):
    m = mat if isinstance(mat, RatMatrix) else RatMatrix(mat)
    if not m.is_square():
        raise ValueError("matrix is not square")
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    return m


def reduce_lineality(mhat, nlin, strict):
    """Eliminate the first `nlin` (lineality) coordinates of the form
    c^T Mhat c by congruence: one symmetrically pivoted LDL^T, pivoting
    on positive diagonal entries.  The remaining coordinates are rays.

    Returns (coefficients of a witness, None, None) when the lineality
    block is not positive definite (strict) or not PSD, or when a ray
    column leaves its range (non-strict); otherwise (None, S, lifts),
    with S the Schur complement on the ray coordinates and lifts[j] the
    coefficient vector of ray j with its lineality part minimizing the
    form, so that sum c_j lifts[j] attains c^T S c.  A witness c is
    nonzero with c^T Mhat c < 0 (<= 0 when strict).  The working matrix
    is W = T^T Mhat T with T unit triangular, kept as its pivot steps;
    `column(i)` is T e_i, so that W_ij is the form between T e_i and
    T e_j.  With nlin = size there are no rays, and the verdict is
    `is_positive_definite` (strict) or `psd_check` of Mhat.
    """
    size = mhat.nrows
    w = [list(r) for r in mhat.rows]
    steps = []  # (pivot, {i: W_pi / W_pp})
    free = list(range(nlin))
    rays = list(range(nlin, size))
    while True:
        piv = next((i for i in free if w[i][i] > 0), None)
        if piv is None:
            break
        free.remove(piv)
        d, prow = w[piv][piv], w[piv]
        f = {i: prow[i] / d for i in free + rays if prow[i]}
        for i, fi in f.items():
            wi = w[i]
            for j in f:
                wi[j] -= fi * prow[j]
        steps.append((piv, f))

    def column(i):
        v = [ZERO] * size
        v[i] = ONE
        for piv, f in reversed(steps):
            s = sum(fj * v[j] for j, fj in f.items() if v[j])
            if s:
                v[piv] -= s
        return v

    # the unpivoted lineality block has no positive diagonal entry left
    for i in free:
        if w[i][i] < 0:
            return column(i), None, None
    for a, i in enumerate(free):
        for j in free[a + 1:]:
            if w[i][j]:
                sign = ONE if w[i][j] < 0 else -ONE
                return vadd(column(i), vscale(sign, column(j))), None, None
    if free and strict:  # singular block: a kernel direction has value 0
        return column(free[0]), None, None
    for i in free:  # the column(i) span the kernel of the block
        for j in rays:
            if w[i][j]:  # ray column j leaves the range of the block
                t = -(abs(w[j][j]) + 1) / w[i][j]
                return vadd(vscale(t, column(i)), column(j)), None, None
    schur = RatMatrix(tuple(tuple(w[i][j] for j in rays) for i in rays))
    return None, schur, [column(j) for j in rays]


def psd_check(mat) -> bool:
    """Exact positive-semidefiniteness: `reduce_lineality`, no rays."""
    m = _require_symmetric(mat)
    return reduce_lineality(m, m.nrows, False)[0] is None


def is_positive_definite(mat) -> bool:
    """Exact positive-definiteness: `reduce_lineality`, no rays, strict."""
    m = _require_symmetric(mat)
    return reduce_lineality(m, m.nrows, True)[0] is None


def pseudo_inverse_psd(mat):
    """Moore-Penrose inverse of a symmetric PSD matrix, exactly.

    Uses M+ = V (V^T M V)^{-1} V^T with V a basis of range(M).
    """
    m = _require_symmetric(mat)
    cols = column_space_basis(m)
    if not cols:
        return zeros(m.nrows, m.nrows)
    v = RatMatrix.from_cols(cols)
    w = v.T @ m @ v
    winv = invert(w)
    if winv is None:  # cannot happen for PSD M with V spanning range(M)
        raise InternalConsistencyError("core block unexpectedly singular")
    return v @ winv @ v.T
