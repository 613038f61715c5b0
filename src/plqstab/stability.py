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
the coderivative test takes C = F1 - F2.  `nontrivial_over` decides a
family of such homogeneous systems, each by double description on the
kernel of its equality rows (Fukuda and Prodon, 1996), with no LP; the
basic qualification makes that decision too.  Only a critical verdict
solves LPs: its witness maximizes the tested coordinates of the first
nontrivial face system under a box normalization.

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
from .linalg import RatMatrix, kernel_basis, pseudo_inverse_psd, zeros
from .lp import LpOptimal, lp_max_each
from .polyhedra import (PolyCone, _all_generator_vectors, _cone_generators,
                        critical_cone, difference_polar, normal_cone)
from .rational import (ONE, ZERO, is_zero_vec, norm2, primitive, rat,
                       sqrt_float, vadd, vdot, vsub)
from .record import FrozenRecord, set_field
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

    def __init__(self, critical: bool, xi: tuple | None = None,
                 eta: tuple | None = None, face_tight: frozenset | None = None,
                 face_count: int = 0):
        set_field(self, "critical", critical)
        set_field(self, "xi", xi)
        set_field(self, "eta", eta)
        set_field(self, "face_tight", face_tight)
        set_field(self, "face_count", face_count)

    def __str__(self):
        return "Critical" if self.critical else "Noncritical"


class UniquenessReport(FrozenRecord):
    __slots__ = ("singleton", "dqc")

    def __init__(self, singleton: bool, dqc: bool):
        set_field(self, "singleton", singleton)
        set_field(self, "dqc", dqc)

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


def _nontrivial_point(nvars, a_eq, a_ub, coords):
    """A point of the system (nvars, a_eq, a_ub) with some coordinate in
    `coords` nonzero, or None.

    Maximizes each tested coordinate under the box |coord| <= 1 (the
    solution set is a cone, so any nonzero value rescales to the box), one
    phase 1 for all of them, and stops at the first positive maximum.
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
    for out in lp_max_each(objectives, box_ub, box_rhs, a_eq, b_eq):
        if isinstance(out, LpOptimal) and out.value > 0:
            return out.point
    return None


def _is_nontrivial(nvars, a_eq, a_ub, coords) -> bool:
    """Does {v : a_eq v = 0, a_ub v <= 0} hold a point nonzero in `coords`?

    With N a basis of the kernel of the eq rows (the identity without eq
    rows), the set is N applied to the cone {z : (a_ub N) z <= 0}, whose
    lineality basis and extreme rays come from double description.  The
    set is nonzero in a coordinate iff one of those generators, lifted by
    N, is.  Every lifted generator is checked against the unreduced rows.
    """
    if a_eq:
        basis = [primitive(g) for g in kernel_basis(a_eq)]
        if not basis:
            return False
    else:
        basis = [tuple(ONE if i == j else ZERO for j in range(nvars))
                 for i in range(nvars)]
    rows = dict.fromkeys(primitive(tuple(vdot(a, g) for g in basis))
                         for a in a_ub)
    gens = _cone_generators([r for r in rows if not is_zero_vec(r)], len(basis))
    lifted = [tuple(sum(c * g[j] for c, g in zip(z, basis) if c)
                    for j in range(nvars))
              for z in _all_generator_vectors(gens)]
    for v in lifted:
        if any(vdot(a, v) != 0 for a in a_eq) or any(vdot(a, v) > 0 for a in a_ub):
            raise InternalConsistencyError(
                "lifted kernel generator leaves its system")
    return any(v[j] != 0 for v in lifted for j in coords)


def nontrivial_over(systems, coords):
    """Index of the first homogeneous system with a point that is nonzero
    in one of the coordinates `coords`, or None when every system vanishes
    there.

    Each system is (nvars, eq rows, le rows): {v : <a, v> = 0 for the eq
    rows, <a, v> <= 0 for the le rows}.  Systems are decided in order, each
    by double description on the kernel of its eq rows (`_is_nontrivial`),
    with no LP, and the iterable is read no further than the first hit, so
    a lazy iterable builds no system past it.
    """
    for index, (nvars, a_eq, a_ub) in enumerate(systems):
        if _is_nontrivial(nvars, a_eq, a_ub, coords):
            return index
    return None


# -- the per-point context ------------------------------------------------------


class PointContext:
    """The exact objects every criterion reads at one pair (x, lam).

    Made by `VarSystem.point`, which memoizes contexts on the system
    instance, so each member is computed at most once per parsed problem;
    every member is a pure function of (system, x, lam).  `solves` is the
    one exact solution check: Psi(x, lam) = 0 and lam a subgradient at
    Phi(x), through `subdiff_contains` and its Fenchel cross-check.  The
    members from `kcone` on exist at solutions only.
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
    def in_subdiff(self) -> bool:
        return self.system.penalty.subdiff_contains(self.zbar, self.lam)

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
    def kcone(self) -> PolyCone:
        """The critical cone K_Y(lam, zbar - B lam) of the verified pair."""
        self.require("the critical cone needs an exact solution")
        return critical_cone(self.system.penalty.Y, self.lam,
                             vsub(self.zbar, self.blam))

    @cached_property
    def ncone(self) -> PolyCone:
        """The normal cone N_Y(lam)."""
        return normal_cone(self.system.penalty.Y, self.lam)

    @cached_property
    def multiplier_dist2(self):
        """Squared distance from lam to the multiplier set at x."""
        return self.system.multiplier_set(self.x).poly.project_point(self.lam)[1]

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
        n, faces = self.system.n, self.faces
        index = nontrivial_over(self.face_systems, range(n))
        if index is None:
            return CriticalityVerdict(critical=False, face_count=len(faces))
        point = _nontrivial_point(*self.face_systems[index], range(n))
        if point is None:
            raise InternalConsistencyError(
                "the witness LP finds no point on a nontrivial face system")
        xi, eta = tuple(point[:n]), tuple(point[n:])
        _assert_witness(self, xi, eta)
        return CriticalityVerdict(critical=True, xi=xi, eta=eta,
                                  face_tight=faces[index].tight,
                                  face_count=len(faces))

    @cached_property
    def dqc(self) -> bool:
        """The face systems at xi = 0: their eta columns."""
        n = self.system.n
        systems = ((nvars - n, [r[n:] for r in a_eq], [r[n:] for r in a_ub])
                   for nvars, a_eq, a_ub in self.face_systems)
        return nontrivial_over(systems, range(self.system.m)) is None

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
    rows = dict.fromkeys(primitive(g) for g in gens)
    polar = _cone_generators([r for r in rows if not is_zero_vec(r)],
                             ctx.system.m)
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
    """Multiplier uniqueness, directly and through dual qualification."""
    ctx = system.point(xbar, lam).require(
        "uniqueness report needs an exact solution")
    return UniquenessReport(singleton=system.multiplier_set(ctx.x).singleton,
                            dqc=dqc_holds(system, ctx.x, ctx.lam))


# -- error bounds --------------------------------------------------------------------


def error_bound_residuals(system: VarSystem, xbar, lam_bar, x, lam):
    """(lhs, rhs_iii, rhs_iv) of the two error-bound estimates, as floats.

    lhs     = |x - xbar| + dist(lam, multiplier set at xbar)
    rhs_iii = |Psi(x, lam)| + dist(Phi(x), inverse subdifferential of lam)
    rhs_iv  = |Psi(x, lam)| + |Phi(x) - prox(lam + Phi(x))|

    The distance in rhs_iii is `PlqPenalty.inverse_subdiff_dist2`, a
    projection onto the normal cone N_Y(lam); it is inf off Y.  Every
    distance is exact and rounded once.  A row with lam = lam_bar reads
    its distance to the multiplier set, N_Y(lam_bar) and B lam_bar from
    the point context, and a row with x = xbar reads f(xbar), DPhi(xbar)
    and Phi(xbar) from it.
    """
    ctx = system.point(xbar, lam_bar).require(
        "error bounds are anchored at an exact solution")
    x = tuple(rat(v) for v in x)
    lam = tuple(rat(v) for v in lam)
    at_lam_bar = lam == ctx.lam
    if at_lam_bar:
        d2 = ctx.multiplier_dist2
    else:
        _, d2 = system.multiplier_set(ctx.x).poly.project_point(lam)
    lhs = norm2(vsub(x, ctx.x)) + sqrt_float(d2)

    if x == ctx.x:
        psi, phix = vadd(ctx.fx, ctx.gmat.rmatvec(lam)), ctx.zbar
    else:
        psi, phix = system.psi(x, lam), system.phi.eval(x)
    psi_norm = norm2(psi)
    if at_lam_bar:
        cone = ctx.ncone.as_polyhedron
        d2i = cone.project_point(vsub(phix, ctx.blam))[1]
    else:
        d2i = system.penalty.inverse_subdiff_dist2(phix, lam)
    rhs_iii = math.inf if d2i is None else psi_norm + sqrt_float(d2i)
    prox_pt = system.penalty.prox(vadd(lam, phix))
    rhs_iv = psi_norm + norm2(vsub(phix, prox_pt))
    return lhs, rhs_iii, rhs_iv
