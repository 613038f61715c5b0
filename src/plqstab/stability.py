"""Criticality classification and the exact stability verdicts.

The classifier decides, exactly, whether a multiplier admits a nonzero
primal direction in the linearized system

    A xi + G^T eta = 0,   eta in K,   G xi - B eta in polar(K),
    <G xi - B eta, eta> = 0,

with A the partial Jacobian of the residual, G the constraint Jacobian
and K the critical cone.  The solution set decomposes over the faces F
of K (complementarity is automatic when eta in F and the residual lies
in polar(K) with F orthogonal), leaving one linear-conic system per
face.  Every criterion asks whether such a system is nontrivial, and one
builder, `_linearized_system`, writes them all: eta in a cone C and the
residual G xi - B eta in (or, for the coderivative, its negative in) the
polar of a face difference F1 - F2, whose rows `polyhedra.difference_polar`
reads off F1's generators and F2's span.  Criticality and isolated
calmness take C = F with polar(K - F) = polar(K) cap F-perp, dual
qualification takes the same face systems at xi = 0, and, in `enlp`,
the coderivative test takes C = F1 - F2.  `_solutions` gives the
generators of a system's solution cone by double description on the
kernel of its equality rows (Fukuda and Prodon, 1996), with no LP, and
`nontrivial_over`, the one caller of `_solutions`, decides a family of
systems from them: criticality (coordinates xi), dual qualification
(eta, at xi = 0), BCQ and the coderivative test each go through it, and
no generator is kept.  Isolated calmness is no further computation: the
multiplier is noncritical and unique (Izmailov and Solodov, TOP 23,
2015), and uniqueness is dual qualification.  At a noncritical
multiplier no face system has a solution with xi != 0, so each face
system's solution cone is {0} times its dual-qualification system's.

Two exact certificates, one elimination each and kept on the point
context, settle many of these systems before any is built:

- (1) the symmetric part of A is positive definite
  (`linalg.is_positive_definite`);
- (2) ker B cap ker G^T = {0} (`linalg.rank` of B's rows stacked with
  G's columns is m).

In a face system, <G xi - B eta, eta> = 0 and A xi = -G^T eta give
xi^T A xi = -eta^T B eta <= 0, with B PSD; in a face-pair system,
<B eta - G xi, eta> <= 0 gives eta^T B eta + xi^T A xi <= 0.  Under (1)
both force xi = 0, and at xi = 0 both leave B eta = 0 and G^T eta = 0.
So (1) makes the multiplier noncritical (Izmailov and Solodov, TOP 23,
2015), (2) makes dual qualification hold, and (1) with (2) makes every
face and face-pair system trivial.  A point where a certificate fails
walks its systems as above.

Every criterion at (x, lam) reads the pair's `PointContext`, memoized by
`VarSystem.point`: one solution check, each per-point object built once.

Floating point enters here only in the error-bound residuals, exact
distances rounded once.  The float probes, the divergence probe along a
critical direction and the semismooth Newton probe of canonically
perturbed systems, live in `probe`, which exact analyses never import.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import InternalConsistencyError
from .linalg import (RatMatrix, is_positive_definite, kernel_basis,
                     pseudo_inverse_psd, rank, zeros)
from .polyhedra import (PolyCone, _all_generator_vectors, _cone_generators,
                        difference_polar)
from .rational import (ONE, ZERO, norm2, primitive, rats, sqrt_float, vadd,
                       vdot, vsub)
from .record import FrozenRecord
from .varsys import VarSystem

__all__ = [
    "PointContext",
    "CriticalityVerdict",
    "UniquenessReport",
    "classify_multiplier",
    "dqc_holds",
    "nontrivial_over",
    "uniqueness_report",
    "error_bound_residuals",
]


def __getattr__(name):
    # bench/spans.py resolves the Newton probe's two spans in this module.
    # The benchmark change that moves those span paths to `probe` deletes
    # this hook; until then it serves those two names alone, from `probe`.
    if name in ("solve_perturbed", "semi_isolated_probe"):
        from . import probe

        return getattr(probe, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class CriticalityVerdict(FrozenRecord):
    __slots__ = ("critical", "xi", "eta", "face_tight", "face_count")
    _defaults = {"xi": None, "eta": None, "face_tight": None, "face_count": 0}

    def __str__(self):
        return "Critical" if self.critical else "Noncritical"


class UniquenessReport(FrozenRecord):
    __slots__ = ("singleton", "dqc")

    @property
    def consistent(self) -> bool:
        return self.singleton == self.dqc


# -- the linearized system ------------------------------------------------------


def _linearized_system(ctx, eta_rows, polar_rows):
    """The homogeneous system (n + m, eq rows, le rows) over (xi, eta)

        A xi + G^T eta = 0,   eta in C,   <h, G xi - B eta> = 0 or <= 0,

    at a point context: A = d(Psi)/dx, G = DPhi(x), C the cone of the row
    pair `eta_rows` = (eq, le), and one condition on the residual
    G xi - B eta per row h of `polar_rows` = (eq, le), = 0 on the eq rows
    and <= 0 on the le rows."""
    amat, gmat = ctx.amat, ctx.gmat
    n, m = amat.ncols, gmat.nrows
    zero = (ZERO,) * n
    (eta_eq, eta_le), (polar_eq, polar_le) = eta_rows, polar_rows
    a_eq = [tuple(amat.rows[i]) + tuple(gmat.rows[k][i] for k in range(m))
            for i in range(n)]
    a_eq += [zero + tuple(r) for r in eta_eq]
    a_eq += [ctx.residual_row(h) for h in polar_eq]
    a_ub = [zero + tuple(r) for r in eta_le]
    a_ub += [ctx.residual_row(h) for h in polar_le]
    return n + m, a_eq, a_ub


def _solutions(nvars, a_eq, a_ub):
    """Generators of the cone {v : a_eq v = 0, a_ub v <= 0}: the set is
    their conic hull, and it is {0} when there are none.

    With N a basis of the kernel of the eq rows (the identity without eq
    rows), the set is N applied to the cone {z : (a_ub N) z <= 0}, whose
    lineality basis and extreme rays come from double description; each
    is lifted by N, and every lifted generator is checked against the
    unreduced rows.
    """
    if a_eq:
        basis = [primitive(g) for g in kernel_basis(a_eq)]
        if not basis:
            return []
    else:
        basis = [tuple(ONE if i == j else ZERO for j in range(nvars))
                 for i in range(nvars)]
    rows = PolyCone([tuple(vdot(a, g) for g in basis) for a in a_ub],
                    len(basis)).rows
    gens = _cone_generators(rows, len(basis))
    lifted = [tuple(sum(c * g[j] for c, g in zip(z, basis) if c)
                    for j in range(nvars))
              for z in _all_generator_vectors(gens)]
    for v in lifted:
        if any(vdot(a, v) != 0 for a in a_eq) or any(vdot(a, v) > 0 for a in a_ub):
            raise InternalConsistencyError(
                "lifted kernel generator leaves its system")
    return lifted


def _witness(gens, coords):
    """The point `nontrivial_over` describes, or None."""
    for j in coords:
        v = (next((v for v in gens if v[j] > 0), None)
             or next((v for v in gens if v[j] < 0), None))
        if v is not None:
            scale = max(abs(v[k]) for k in coords)
            return tuple(a / scale for a in v)
    return None


def nontrivial_over(systems, coords):
    """(index, point) of the first homogeneous system with a point that is
    nonzero in one of the coordinates `coords`, or None when every system
    vanishes there.

    Each system is (nvars, eq rows, le rows): {v : <a, v> = 0 for the eq
    rows, <a, v> <= 0 for the le rows}.  Systems are decided in order, each
    by double description on the kernel of its eq rows (`_solutions`), with
    no LP, and the iterable is read no further than the first hit, so a
    lazy iterable builds no system past it.  The point is one of the hit's
    generators (`_witness`): positive, else negative, in the first tested
    coordinate where a generator is nonzero, scaled to max |v_j| = 1 over
    the tested coordinates.
    """
    for index, system in enumerate(systems):
        point = _witness(_solutions(*system), coords)
        if point is not None:
            return index, point
    return None


# -- the per-point context ------------------------------------------------------


class PointContext:
    """The exact objects every criterion reads at one pair (x, lam).

    Made by `VarSystem.point`, which memoizes contexts on the system
    instance, so each member is computed at most once per parsed problem;
    every member is a pure function of (system, x, lam).  `solves` is the
    one exact solution check: Psi(x, lam) = 0 and lam a subgradient at
    Phi(x), through `subdiff_contains_at` and its Fenchel cross-check.
    The rows of Y tight at lam are read once (`tight`) and serve that
    check, `kcone` and `ncone`.  The members from `kcone` on exist at
    solutions only.  `definite` and `kernels_meet_at_zero` are the two
    certificates of the module docstring, one elimination each; the
    verdicts read them before they build any face system, and every
    system they build is decided by `nontrivial_over`, which keeps no
    generator.
    """

    def __init__(self, system, x, lam):
        self.system, self.x, self.lam = system, x, lam
        self._row_images = {}

    @cached_property
    def zbar(self):
        return self.system.phi.eval(self.x)

    @cached_property
    def gmat(self) -> RatMatrix:
        """DPhi(x)."""
        return self.system.phi.jacobian_at(self.x)

    @cached_property
    def fx(self):
        return self.system.f.eval(self.x)

    @cached_property
    def psi(self):
        return vadd(self.fx, self.gmat.rmatvec(self.lam))

    @cached_property
    def tight(self):
        """The rows of Y tight at lam, or None off Y: read once, for the
        subgradient test and both cones."""
        return self.system.penalty.Y.tight_rows(self.lam)

    @cached_property
    def in_subdiff(self) -> bool:
        return self.system.penalty.subdiff_contains_at(self.zbar, self.lam,
                                                       self.tight)

    @cached_property
    def solves(self) -> bool:
        return all(v == 0 for v in self.psi) and self.in_subdiff

    def require(self, message):
        """This context, or ValueError(message) when the pair is no solution."""
        if not self.solves:
            raise ValueError(message)
        return self

    @cached_property
    def amat(self) -> RatMatrix:
        """d(Psi)/dx, the Lagrangian Hessian of an ENLP."""
        return self.system.psi_jacobian_x(self.x, self.lam)

    @cached_property
    def blam(self):
        """B lam."""
        return self.system.penalty.B.matvec(self.lam)

    @cached_property
    def definite(self) -> bool:
        """Certificate (1): the symmetric part of A is positive definite,
        decided on A + A^T, twice that part."""
        return is_positive_definite(self.amat + self.amat.T)

    @cached_property
    def kernels_meet_at_zero(self) -> bool:
        """Certificate (2): ker B cap ker G^T = {0}, that is, the rows of
        B stacked with the columns of G have rank m."""
        gmat, m = self.gmat, self.system.m
        rows = list(self.system.penalty.B.rows)
        rows += [gmat.col(j) for j in range(gmat.ncols)]
        return rank(rows) == m

    @cached_property
    def systems_trivial(self) -> bool:
        """Both certificates hold, so every face system and every
        face-pair system has only the zero solution."""
        return self.definite and self.kernels_meet_at_zero

    @cached_property
    def kcone(self) -> PolyCone:
        """The critical cone K_Y(lam, zbar - B lam) of the verified pair."""
        self.require("the critical cone needs an exact solution")
        return self.system.penalty.Y.critical_cone_of(
            self.tight, vsub(self.zbar, self.blam))

    @cached_property
    def ncone(self) -> PolyCone:
        """The normal cone N_Y(lam)."""
        if self.tight is None:
            raise ValueError("normal cone requested at an exterior point")
        return self.system.penalty.Y.normal_cone_of(self.tight)

    @cached_property
    def faces(self):
        return self.kcone.faces()

    def residual_row(self, h):
        """The row (G^T h, -B h) of <h, G xi - B eta> over (xi, eta),
        memoized per h."""
        if h not in self._row_images:
            self._row_images[h] = (
                tuple(self.gmat.rmatvec(h))
                + tuple(-v for v in self.system.penalty.B.matvec(h)))
        return self._row_images[h]

    @cached_property
    def face_systems(self):
        """The linearized system of each face F of K: eta in F and the
        residual in polar(K - F) = polar(K) cap F-perp, which makes it
        complementary to eta."""
        return [_linearized_system(self, ((), f.piece.rows),
                                   difference_polar(self.kcone, f.piece))
                for f in self.faces]

    @cached_property
    def criticality(self) -> CriticalityVerdict:
        """Noncritical without a face walk under certificate (1): in a face
        system <G xi - B eta, eta> = 0 and A xi = -G^T eta give
        xi^T A xi = -eta^T B eta <= 0, so xi = 0.  Otherwise
        `nontrivial_over` decides the face systems over xi, and its hit is
        the checked witness.  `face_count` counts the faces either way."""
        n, faces = self.system.n, self.faces
        hit = None if self.definite else nontrivial_over(self.face_systems,
                                                         range(n))
        if hit is None:
            return CriticalityVerdict(critical=False, face_count=len(faces))
        index, point = hit
        xi, eta = point[:n], point[n:]
        _assert_witness(self, xi, eta)
        return CriticalityVerdict(critical=True, xi=xi, eta=eta,
                                  face_tight=faces[index].tight,
                                  face_count=len(faces))

    @cached_property
    def dqc(self) -> bool:
        """Holds under certificate (2): at xi = 0 a face system gives
        eta^T B eta = 0, so B eta = 0 (B is PSD), and G^T eta = 0, and
        only eta = 0 lies in both kernels.  Otherwise the face systems at
        xi = 0 are decided (`dqc_systems`)."""
        if self.kernels_meet_at_zero:
            return True
        return nontrivial_over(self.dqc_systems(), range(self.system.m)) is None

    def dqc_systems(self):
        """The face systems at xi = 0, over eta alone, built lazily."""
        n = self.system.n
        return ((nvars - n, [r[n:] for r in a_eq], [r[n:] for r in a_ub])
                for nvars, a_eq, a_ub in self.face_systems)

    @cached_property
    def regions(self):
        """(cone in direction space, quadratic form matrix) per face region
        of the second-order conditions."""
        bmat, m = self.system.penalty.B, self.system.m
        out = []
        for face in self.faces:
            span = face.piece.span_basis
            if span:
                gspan = RatMatrix.from_cols(list(span))
                core = gspan.T @ bmat @ gspan
                smat = gspan @ pseudo_inverse_psd(core) @ gspan.T
            else:
                smat = zeros(m, m)
            region = _face_region(self, face)
            wcone = PolyCone([tuple(self.gmat.rmatvec(r)) for r in region.rows],
                             dim=self.system.n)
            out.append((wcone, self.amat + self.gmat.T @ smat @ self.gmat))
        return out


def _face_region(ctx: PointContext, face) -> PolyCone:
    """{u : exists y in F with u - B y in polar(K) cap F-perp}, the
    Minkowski sum B F + (polar(K) cap F-perp), from generators.

    B applied to F's lineality basis and extreme rays generates B F.
    polar(K) is generated by the rows of K (Farkas), and the rows that
    vanish on F, K's rows tight on F, generate polar(K) cap F-perp.  Double
    description (`_cone_generators`, called directly, so no memo grows)
    on the sum's generators gives the generators of its polar, which are
    the sum's rows.  No projection and no LP.
    """
    bmat = ctx.system.penalty.B
    lin, rays = face.piece.generators()
    gens = [bmat.matvec(r) for r in rays]
    for l in lin:
        bl = bmat.matvec(l)
        gens += [bl, tuple(-v for v in bl)]
    gens += [ctx.kcone.rows[i] for i in sorted(face.tight)]
    polar = _cone_generators(PolyCone(gens, ctx.system.m).rows, ctx.system.m)
    return PolyCone(_all_generator_vectors(polar), dim=ctx.system.m)


# -- classification ---------------------------------------------------------------


def classify_multiplier(system: VarSystem, xbar, lam) -> CriticalityVerdict:
    """Exact Critical/Noncritical verdict with a rational witness."""
    return system.point(xbar, lam).require(
        "criticality is defined at exact solutions only").criticality


def _assert_witness(ctx: PointContext, xi, eta):
    lhs = vadd(ctx.amat.matvec(xi), ctx.gmat.rmatvec(eta))
    if any(v != 0 for v in lhs):
        raise InternalConsistencyError("witness breaks the linear equation")
    resid = vsub(ctx.gmat.matvec(xi), ctx.system.penalty.B.matvec(eta))
    if not ctx.kcone.contains(eta):
        raise InternalConsistencyError("witness eta escapes the critical cone")
    if not ctx.kcone.polar().contains(resid):
        raise InternalConsistencyError("witness residual escapes the polar")
    if vdot(resid, eta) != 0:
        raise InternalConsistencyError("witness breaks complementarity")
    if all(v == 0 for v in xi):
        raise InternalConsistencyError("trivial witness")


def dqc_holds(system: VarSystem, xbar, lam) -> bool:
    """Dual qualification: the graphical derivative of the subgradient
    map at zero meets the kernel of the adjoint Jacobian only at zero."""
    return system.point(xbar, lam).require(
        "dual qualification is defined at exact solutions only").dqc


def uniqueness_report(system: VarSystem, xbar, lam) -> UniquenessReport:
    """Multiplier uniqueness, directly and through dual qualification;
    InternalConsistencyError when the two disagree."""
    ctx = system.point(xbar, lam).require(
        "uniqueness report needs an exact solution")
    report = UniquenessReport(singleton=system.multiplier_set(ctx.x).singleton,
                              dqc=dqc_holds(system, ctx.x, ctx.lam))
    if not report.consistent:
        raise InternalConsistencyError(
            "multiplier uniqueness disagrees with the dual qualification")
    return report


# -- error bounds --------------------------------------------------------------------


def error_bound_residuals(system: VarSystem, xbar, lam_bar, x, lam):
    """(lhs, rhs_iii, rhs_iv) of the two error-bound estimates, as floats.

    lhs     = |x - xbar| + dist(lam, multiplier set at xbar)
    rhs_iii = |Psi(x, lam)| + dist(Phi(x), inverse subdifferential of lam)
    rhs_iv  = |Psi(x, lam)| + |Phi(x) - prox(lam + Phi(x))|

    The distance in rhs_iii is `PlqPenalty.inverse_subdiff_dist2`, a
    projection onto the normal cone N_Y(lam); it is inf off Y.  Every
    distance is exact and rounded once.  lam_bar lies in the multiplier
    set (`VarSystem.multiplier_set` checks it exactly once the anchor is
    certified), so its distance is 0, and when the set is the singleton
    {lam_bar} the distance of lam is |lam - lam_bar|: neither projects.
    A row with lam = lam_bar reads N_Y(lam_bar) and B lam_bar from the
    point context, and a row with x = xbar reads f(xbar), DPhi(xbar) and
    Phi(xbar) from it.
    """
    ctx = system.point(xbar, lam_bar).require(
        "error bounds are anchored at an exact solution")
    x = rats(x)
    lam = rats(lam)
    at_lam_bar = lam == ctx.lam
    mset = system.multiplier_set(ctx.x)
    if at_lam_bar:  # lam_bar solves, so it is in the multiplier set
        d2 = ZERO
    elif mset.singleton:  # the set is {lam_bar}
        diff = vsub(lam, ctx.lam)
        d2 = vdot(diff, diff)
    else:
        _, d2 = mset.poly.project_point(lam)
    lhs = norm2(vsub(x, ctx.x)) + sqrt_float(d2)

    if x == ctx.x:
        psi, phix = vadd(ctx.fx, ctx.gmat.rmatvec(lam)), ctx.zbar
    else:
        psi, phix = system.psi(x, lam), system.phi.eval(x)
    psi_norm = norm2(psi)
    if at_lam_bar:
        d2i = ctx.ncone.project_point(vsub(phix, ctx.blam))[1]
    else:
        d2i = system.penalty.inverse_subdiff_dist2(phix, lam)
    rhs_iii = math.inf if d2i is None else psi_norm + sqrt_float(d2i)
    prox_pt = system.penalty.prox(vadd(lam, phix))
    rhs_iv = psi_norm + norm2(vsub(phix, prox_pt))
    return lhs, rhs_iii, rhs_iv
