"""Reference PSD test: the symmetrically pivoted LDL^T that `linalg.psd_check`
ran on its own before it became a verdict of `linalg.reduce_lineality`.

It swaps rows and columns to bring the first positive diagonal entry to
the pivot position, eliminates below it in `Rat` arithmetic, and, once no
positive diagonal entry is left, accepts only a zero remainder.
"""

from plqstab.rational import ZERO, rat


def psd_reference(rows) -> bool:
    """Is the symmetric matrix with these rows positive semidefinite?"""
    a = [[rat(v) for v in r] for r in rows]
    n = len(a)
    k = 0
    while k < n:
        p = next((i for i in range(k, n) if a[i][i] > 0), None)
        if p is None:
            # all remaining diagonal entries are <= 0
            for i in range(k, n):
                if a[i][i] < 0:
                    return False
                for j in range(k, n):
                    if a[i][j] != 0:
                        return False
            return True
        if p != k:
            a[k], a[p] = a[p], a[k]
            for row in a:
                row[k], row[p] = row[p], row[k]
        piv = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / piv
                ai, ak = a[i], a[k]
                for j in range(k, n):
                    ai[j] -= f * ak[j]
        for j in range(k, n):
            a[k][j] = ZERO
            a[j][k] = ZERO
        k += 1
    return True
