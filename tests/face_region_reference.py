"""Reference SOSC face regions for differential tests: the Fourier-Motzkin
projection that `stability._face_region` replaced by a generator form.

The region of a face F of the critical cone K is the projection onto u
of {(u, y) : y in F, u - B y in polar(K) cap F-perp}, computed by
`polyhedra.fm_project` (LP redundancy pruning after every elimination).
"""

from plqstab.polyhedra import PolyCone, Polyhedron, difference_polar, fm_project
from plqstab.rational import ZERO


def face_region(ctx, face):
    """{u : exists y in F with u - B y in polar(K) cap F-perp}."""
    m, bmat = ctx.system.m, ctx.system.penalty.B
    rows, rhs = [], []
    # variables (u, y) in R^{2m}
    for b in face.piece.rows:
        rows.append((ZERO,) * m + tuple(b))
        rhs.append(ZERO)
    polar_eq, polar_le = difference_polar(ctx.kcone, face.piece)
    # u - B y in polar(K - F), its eq rows as opposite pairs
    for h in polar_le + polar_eq + [tuple(-v for v in h) for h in polar_eq]:
        rows.append(tuple(h) + tuple(-v for v in bmat.matvec(h)))
        rhs.append(ZERO)
    lifted = Polyhedron(rows, rhs, 2 * m)
    return PolyCone(fm_project(lifted, range(m)).b, dim=m)
