"""Reference face systems for differential tests: the dual-qualification
and coderivative systems that `stability._linearized_system` replaced.

`dqc_system` writes the system of one face F of the critical cone K over
eta alone: eta in F, -B eta in polar(K) cap F-perp, DPhi(x)^T eta = 0.
`face_pair_system` writes the system of one face pair over
(xi, eta, mu): H xi + G^T eta = 0, eta in D = F1 - F2 and
B eta - G xi = sum mu_r r over the rows r of D, with mu free on the eq
rows and mu >= 0 on the le rows, which says
B eta - G xi in polar(D) = span(eq) + cone(le).
"""

from plqstab.rational import ONE, ZERO


def dqc_system(ctx, face_piece):
    """(nvars, eq rows, le rows) of the dual qualification on one face."""
    bmat, gmat = ctx.system.penalty.B, ctx.gmat
    m, n = ctx.system.m, ctx.system.n
    lin, rays = ctx.kcone.generators()
    a_ub = [tuple(b) for b in face_piece.rows]  # eta in F
    a_ub += [tuple(-v for v in bmat.matvec(h)) for h in rays]
    a_eq = [tuple(-v for v in bmat.matvec(h))
            for h in list(lin) + list(face_piece.span_basis)]
    for j in range(n):  # eta in ker(DPhi^T)
        a_eq.append(tuple(gmat.rows[i][j] for i in range(m)))
    return m, a_eq, a_ub


def face_pair_system(ctx, eq, le):
    """(nvars, eq rows, le rows) of the coderivative test on the face pair
    whose difference D has the rows (eq, le)."""
    hess, gmat, bmat = ctx.amat, ctx.gmat, ctx.system.penalty.B
    n, m = hess.ncols, gmat.nrows
    gens = list(eq) + list(le)
    nvars = n + m + len(gens)
    mu0 = (ZERO,) * len(gens)
    a_eq = [tuple(hess.rows[i]) + tuple(gmat.rows[k][i] for k in range(m)) + mu0
            for i in range(n)]
    a_eq += [(ZERO,) * n + tuple(r) + mu0 for r in eq]
    a_ub = [(ZERO,) * n + tuple(r) + mu0 for r in le]
    for j in range(m):
        a_eq.append(tuple(-v for v in gmat.rows[j]) + tuple(bmat.rows[j])
                    + tuple(-r[j] for r in gens))
    for k in range(len(eq), len(gens)):
        row = [ZERO] * nvars
        row[n + m + k] = -ONE
        a_ub.append(tuple(row))
    return nvars, a_eq, a_ub
