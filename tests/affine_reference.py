"""Reference affine dimension for differential tests: one LP per row, the
definition that `Polyhedron.affine_dimension` replaced by the generators
of a tangent cone.

Row i of a nonempty set is an implicit equality when it holds with
equality everywhere on the set, that is when max -<b_i, y> over the set
equals -alpha_i.  The affine hull is cut out by those rows, so its
dimension is dim minus their rank.
"""

from plqstab.lp import LpOptimal, lp_feasible_point, lp_max
from rational_reference import rank_reference


def affine_dimension_by_lp(p):
    """Dimension of the affine hull of the polyhedron p; -1 when it is empty."""
    if lp_feasible_point(p.b, p.alpha, n=p.dim) is None:
        return -1
    implicit = []
    for b, a in zip(p.b, p.alpha):
        o = lp_max(tuple(-v for v in b), p.b, p.alpha)
        if isinstance(o, LpOptimal) and -o.value == a:
            implicit.append(b)
    return p.dim - rank_reference(implicit)
