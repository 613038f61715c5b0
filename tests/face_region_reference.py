"""Reference SOSC face regions for differential tests: the Fourier-Motzkin
projection that `stability._face_region` replaced by a generator form.

The region of a face F of the critical cone K is the projection onto u
of {(u, y) : y in F, u - B y in polar(K) cap F-perp}, computed by
`polyhedra.fm_project` (LP redundancy pruning after every elimination).
"""

from plqstab.polyhedra import PolyCone, Polyhedron, fm_project
from plqstab.rational import ZERO
from plqstab.stability import _residual_rows


def face_region(ctx, face):
    """{u : exists y in F with u - B y in polar(K) cap F-perp}."""
    m, bmat = ctx.system.m, ctx.system.penalty.B
    rows, rhs = [], []
    # variables (u, y) in R^{2m}
    for b in face.piece.rows:
        rows.append((ZERO,) * m + tuple(b))
        rhs.append(ZERO)
    for h, kind in _residual_rows(ctx.kcone, face.piece):
        row = tuple(h) + tuple(-v for v in bmat.matvec(h))
        rows.append(row)
        rhs.append(ZERO)
        if kind == "eq":
            rows.append(tuple(-v for v in row))
            rhs.append(ZERO)
    lifted = Polyhedron(rows, rhs).with_dim(2 * m)
    return PolyCone(fm_project(lifted, range(m)).b, dim=m)
