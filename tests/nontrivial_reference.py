"""Reference nontriviality decision for differential tests: the LP loop
that `stability.nontrivial_over` replaced by double description on the
kernel of each system's eq rows, and the LP that found the criticality
witness before generators did.

A system is nontrivial when the box-normalized LPs of `nontrivial_point`
(each tested coordinate maximized and minimized under |coord| <= 1, one
LP each) find a point with a tested coordinate nonzero.
"""

from plqstab.lp import LpOptimal, lp_max
from plqstab.rational import ONE, ZERO


def nontrivial_point(nvars, a_eq, a_ub, coords):
    """A point of the system (nvars, a_eq, a_ub) with some coordinate in
    `coords` nonzero, or None.

    Maximizes each tested coordinate under the box |coord| <= 1 (the
    solution set is a cone, so any nonzero value rescales to the box), one
    LP each, and stops at the first positive maximum.
    """
    box_ub = list(a_ub)
    for j in coords:
        for s in (ONE, -ONE):
            row = [ZERO] * nvars
            row[j] = s
            box_ub.append(tuple(row))
    box_rhs = [ZERO] * len(a_ub) + [ONE] * (len(box_ub) - len(a_ub))
    objectives = (tuple(sign if k == j else ZERO for k in range(nvars))
                  for j in coords for sign in (ONE, -ONE))
    b_eq = [ZERO] * len(a_eq)
    for c in objectives:
        out = lp_max(c, box_ub, box_rhs, a_eq, b_eq)
        if isinstance(out, LpOptimal) and out.value > 0:
            return tuple(out.point)
    return None


def nontrivial_over(systems, coords):
    """(index, LP point) of the first system with a point nonzero in
    `coords`, or None."""
    for index, (nvars, a_eq, a_ub) in enumerate(systems):
        point = nontrivial_point(nvars, a_eq, a_ub, coords)
        if point is not None:
            return index, point
    return None
