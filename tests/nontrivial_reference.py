"""Reference nontriviality decision for differential tests: the LP loop
that `stability.nontrivial_over` replaced by double description on the
kernel of each system's eq rows.

A system is nontrivial when the box-normalized LPs of
`stability._nontrivial_point` (each tested coordinate maximized and
minimized under |coord| <= 1, one phase 1 per system) find a point with
a tested coordinate nonzero.
"""

from plqstab.stability import _nontrivial_point


def nontrivial_over(systems, coords):
    """Index of the first system with a point nonzero in `coords`, or None."""
    for index, (nvars, a_eq, a_ub) in enumerate(systems):
        if _nontrivial_point(nvars, a_eq, a_ub, coords) is not None:
            return index
    return None
