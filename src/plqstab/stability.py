"""Criticality classification and stability diagnostics.

The classifier decides, exactly, whether a multiplier admits a nonzero
primal direction in the linearized system

    A xi + G^T eta = 0,   eta in K,   G xi - B eta in polar(K),
    <G xi - B eta, eta> = 0,

with A the partial Jacobian of the residual, G the constraint Jacobian
and K the critical cone.  The solution set decomposes over the faces F
of K (complementarity is automatic when eta in F and the residual lies
in polar(K) with F orthogonal), leaving one linear-conic system per
face.  `nontrivial_over` decides a family of such homogeneous systems,
each by double description on the kernel of its equality rows (Fukuda
and Prodon, 1996), with no LP; criticality, dual qualification and, in
`enlp`, isolated calmness, Lipschitz-likeness and the basic
qualification all make that decision.  Only a critical verdict solves
LPs: its witness maximizes the tested coordinates of the first
nontrivial face system under a box normalization.

Every criterion at (x, lam) reads the pair's `PointContext`, memoized by
`VarSystem.point`: one solution check, each per-point object built once.

Floating point enters only in the probes: error-bound residuals, the
divergence probe along a critical direction, and a damped semismooth
Newton solver for canonically perturbed systems.  The Newton iteration
runs in float: the proximal map is affine on each active set of its QP,
so its value and generalized Jacobian are read off a cached exact piece
(Qi and Sun, Math. Prog. 58, 1993), and the polynomial data are
evaluated from cached float coefficients.  A piece enters the cache
through one exact, postcondition-checked prox.  The returned iterate
gets one exact residual evaluation, and only that value decides whether
the solve converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InternalConsistencyError
from .linalg import RatMatrix, kernel_basis, pseudo_inverse_psd, zeros
from .lp import LpOptimal, lp_max_each
from .polyhedra import (PolyCone, _all_generator_vectors, _cone_generators,
                        critical_cone)
from .rational import (ONE, ZERO, is_zero_vec, norm2, primitive, rat,
                       sqrt_float, to_float_vec, vadd, vdot, vscale, vsub)
from .varsys import VarSystem

__all__ = [
    "PointContext",
    "CriticalityVerdict",
    "UniquenessReport",
    "ProbeRecord",
    "ProbeTrace",
    "NewtonResult",
    "classify_multiplier",
    "dqc_holds",
    "nontrivial_over",
    "uniqueness_report",
    "error_bound_residuals",
    "critical_ray_probe",
    "solve_perturbed",
    "semi_isolated_probe",
    "trace_is_divergent",
]


@dataclass(frozen=True)
class CriticalityVerdict:
    critical: bool
    xi: tuple | None = None
    eta: tuple | None = None
    face_tight: frozenset | None = None
    face_count: int = 0
    face_certificates: tuple = ()

    def __str__(self):
        return "Critical" if self.critical else "Noncritical"


@dataclass(frozen=True)
class UniquenessReport:
    singleton: bool
    dqc: bool

    @property
    def consistent(self) -> bool:
        return self.singleton == self.dqc


@dataclass(frozen=True)
class ProbeRecord:
    t: float
    p1: tuple
    p2: tuple
    x: tuple
    lam: tuple
    lhs: float
    rhs: float
    ratio: float
    newton: str | None = None  # NewtonResult.reason of a perturbed solve


class ProbeTrace:
    """A table of probe records with CSV serialization."""

    CSV_HEADER = "t,p1,p2,x,lambda,lhs,rhs,ratio"

    def __init__(self, records):
        self.records = tuple(records)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def ratios(self):
        return [r.ratio for r in self.records]

    def to_csv(self) -> str:
        def cell(v):
            if isinstance(v, tuple):
                return ";".join(repr(float(x)) for x in v)
            return repr(float(v))

        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(",".join([cell(r.t), cell(r.p1), cell(r.p2), cell(r.x),
                                   cell(r.lam), cell(r.lhs), cell(r.rhs),
                                   cell(r.ratio)]))
        return "\n".join(lines) + "\n"


def trace_is_divergent(trace: ProbeTrace, tail=5, threshold=1e3) -> bool:
    """Ratios grow strictly over the last `tail` records and exceed the
    threshold; records whose perturbation vanished exactly carry an
    infinite ratio and count as grown."""
    rs = trace.ratios()
    if len(rs) < tail:
        return False
    tail_rs = rs[-tail:]
    for a, b in zip(tail_rs, tail_rs[1:]):
        if math.isinf(a) and math.isinf(b):
            continue
        if not b > a:
            return False
    return tail_rs[-1] > threshold


# -- shared face-system machinery ------------------------------------------------


def _residual_rows(kcone: PolyCone, face_piece: PolyCone):
    """Rows (h, kind) describing membership in polar(K) intersect F-perp.

    kind is 'le' for <h, v> <= 0 and 'eq' for <h, v> = 0.
    """
    lin, rays = kcone.generators()
    rows = [(r, "le") for r in rays]
    rows += [(l, "eq") for l in lin]
    rows += [(g, "eq") for g in face_piece.span_basis()]
    return rows


def _face_system(ctx, face_piece: PolyCone):
    """The homogeneous system (nvars, eq rows, le rows) over (xi, eta) of one
    face at a point context: A = d(Psi)/dx, G = DPhi(x), K its critical
    cone."""
    amat, gmat, bmat = ctx.amat, ctx.gmat, ctx.system.penalty.B
    n, m = amat.ncols, gmat.nrows
    a_eq, a_ub = [], []
    for i in range(n):  # A xi + G^T eta = 0
        a_eq.append(tuple(amat.rows[i]) + tuple(gmat.rows[k][i] for k in range(m)))
    for b in face_piece.rows:  # eta in F
        a_ub.append((ZERO,) * n + tuple(b))
    for h, kind in _residual_rows(ctx.kcone, face_piece):
        # <h, G xi - B eta> = (G^T h) . xi - (B h) . eta
        row = tuple(gmat.rmatvec(h)) + tuple(-v for v in bmat.matvec(h))
        (a_eq if kind == "eq" else a_ub).append(row)
    return n + m, a_eq, a_ub


def _dqc_system(ctx, face_piece: PolyCone):
    """The homogeneous system over eta of one face: eta in F, -B eta in
    polar(K) cap F-perp, DPhi(x)^T eta = 0."""
    bmat, gmat = ctx.system.penalty.B, ctx.gmat
    m, n = ctx.system.m, ctx.system.n
    a_ub = [tuple(b) for b in face_piece.rows]  # eta in F
    a_eq = []
    for h, kind in _residual_rows(ctx.kcone, face_piece):
        (a_eq if kind == "eq" else a_ub).append(tuple(-v for v in bmat.matvec(h)))
    for j in range(n):  # eta in ker(DPhi^T)
        a_eq.append(tuple(gmat.rows[i][j] for i in range(m)))
    return m, a_eq, a_ub


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

    @cached_property
    def zbar(self):
        return self.system.phi.eval(self.x)

    @cached_property
    def gmat(self) -> RatMatrix:
        """DPhi(x)."""
        return self.system.phi.jacobian_at(self.x)

    @cached_property
    def psi(self):
        return vadd(self.system.f.eval(self.x), self.gmat.rmatvec(self.lam))

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
    def kcone(self) -> PolyCone:
        """The critical cone K_Y(lam, zbar - B lam) of the verified pair."""
        self.require("the critical cone needs an exact solution")
        pen = self.system.penalty
        return critical_cone(pen.Y, self.lam,
                             vsub(self.zbar, pen.B.matvec(self.lam)))

    @cached_property
    def faces(self):
        return self.kcone.faces()

    @cached_property
    def criticality(self) -> CriticalityVerdict:
        n, faces = self.system.n, self.faces
        index = nontrivial_over((_face_system(self, f.piece) for f in faces),
                                range(n))
        examined = faces if index is None else faces[:index]
        certificates = tuple((f.tight, "only xi = 0") for f in examined)
        if index is None:
            return CriticalityVerdict(critical=False, face_count=len(faces),
                                      face_certificates=certificates)
        point = _nontrivial_point(*_face_system(self, faces[index].piece),
                                  range(n))
        if point is None:
            raise InternalConsistencyError(
                "the witness LP finds no point on a nontrivial face system")
        xi, eta = tuple(point[:n]), tuple(point[n:])
        _assert_witness(self, xi, eta)
        return CriticalityVerdict(critical=True, xi=xi, eta=eta,
                                  face_tight=faces[index].tight,
                                  face_count=len(faces),
                                  face_certificates=certificates)

    @cached_property
    def dqc(self) -> bool:
        return nontrivial_over((_dqc_system(self, f.piece) for f in self.faces),
                               range(self.system.m)) is None

    @cached_property
    def regions(self):
        """(cone in direction space, quadratic form matrix) per face region
        of the second-order conditions."""
        bmat, m = self.system.penalty.B, self.system.m
        out = []
        for face in self.faces:
            span = face.piece.span_basis()
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
    distance is exact and rounded once.
    """
    ctx = system.point(xbar, lam_bar).require(
        "error bounds are anchored at an exact solution")
    x = tuple(rat(v) for v in x)
    lam = tuple(rat(v) for v in lam)
    _, d2 = system.multiplier_set(ctx.x).poly.project_point(lam)
    lhs = norm2(vsub(x, ctx.x)) + sqrt_float(d2)

    psi_norm = norm2(system.psi(x, lam))
    phix = system.phi.eval(x)
    d2i = system.penalty.inverse_subdiff_dist2(phix, lam)
    rhs_iii = math.inf if d2i is None else psi_norm + sqrt_float(d2i)
    prox_pt = system.penalty.prox(vadd(lam, phix))
    rhs_iv = psi_norm + norm2(vsub(phix, prox_pt))
    return lhs, rhs_iii, rhs_iv


# -- probes -------------------------------------------------------------------------


def critical_ray_probe(system: VarSystem, xbar, lam_bar,
                       verdict: CriticalityVerdict, t_grid=None) -> ProbeTrace:
    """Walk (xbar + t xi, lam_bar + t eta) along a critical witness.

    Each step is verified exactly to solve the canonically perturbed
    system with perturbations p1 = Psi(x_t, lam_t) and
    p2 = z_t - Phi(x_t), z_t the linearization of Phi; the recorded
    ratio |x_t - xbar| / (|p1| + |p2|) blows up when the multiplier is
    critical.  A perturbation that vanishes exactly yields an infinite
    ratio (the ray consists of unperturbed solutions)."""
    if not verdict.critical:
        raise ValueError("ray probe requires a critical verdict with a witness")
    if t_grid is None:
        t_grid = [rat(1, 2 ** k) for k in range(1, 11)]
    ctx = system.point(xbar, lam_bar)
    xbar, lam_bar, gmat, zbar = ctx.x, ctx.lam, ctx.gmat, ctx.zbar
    xi = verdict.xi
    eta = verdict.eta
    records = []
    for t in t_grid:
        t = rat(t)
        xt = vadd(xbar, vscale(t, xi))
        lt = vadd(lam_bar, vscale(t, eta))
        zt = vadd(zbar, vscale(t, gmat.matvec(xi)))
        p1 = system.psi(xt, lt)
        p2 = vsub(zt, system.phi.eval(xt))
        # exact membership in the perturbed solution set
        if not system.penalty.subdiff_contains(vadd(system.phi.eval(xt), p2), lt):
            raise InternalConsistencyError(
                "ray point left the perturbed solution set; shrink the grid")
        move = norm2(vsub(xt, xbar))
        pert = norm2(p1) + norm2(p2)
        ratio = move / pert if pert > 0 else math.inf
        records.append(ProbeRecord(t=float(t), p1=to_float_vec(p1),
                                   p2=to_float_vec(p2), x=to_float_vec(xt),
                                   lam=to_float_vec(lt), lhs=move, rhs=pert,
                                   ratio=ratio))
    return ProbeTrace(records)


@dataclass(frozen=True)
class NewtonResult:
    """Outcome of one perturbed solve.  `residual_norm` is the exact
    residual at the returned float iterate, rounded to float, and
    `converged` means it is <= tol.  `reason` is "converged",
    "no_descent" (the line search found no decrease), "max_iter",
    "exact_check" (the float residual reached tol and the exact one did
    not), or "overflow" (a float residual or Newton matrix left float
    range; the iterate returned is the last one whose residual did not).
    `evaluations` counts the float residual evaluations: the start and
    every line-search trial."""

    converged: bool
    x: tuple
    lam: tuple
    residual_norm: float
    iterations: int
    reason: str
    evaluations: int = 0


def _exact_residual_norm(system: VarSystem, p1, p2, x, lam):
    """|R(x, lam)| from the exact residual at the exact values of the
    float data (exact prox included), rounded to float."""
    xr = tuple(rat(float(v)) for v in x)
    lr = tuple(rat(float(v)) for v in lam)
    zr = vadd(system.phi.eval(xr), tuple(rat(float(v)) for v in p2))
    prox_pt = system.penalty.prox(vadd(lr, zr))
    r1 = vsub(system.psi(xr, lr), tuple(rat(float(v)) for v in p1))
    r2 = vsub(zr, prox_pt)
    return norm2(r1 + r2)


def _float_residual(system: VarSystem, p1, p2, x, lam):
    """(R(x, lam), |R|, DPhi(x), J) in float, with J the prox Jacobian on
    the active piece at lam + Phi(x) + p2; x, lam, p1 and p2 are lists of
    floats, R, DPhi(x) and J numpy arrays.  |R| is inf or nan when a value
    overflows.

    Entrywise sums and differences run on Python floats, which round as
    numpy's do.  DPhi(x)^T lam and the inner product under |R| stay in
    numpy: a sequential Python sum can round differently from numpy's
    (BLAS, fused multiply-add)."""
    import numpy as np

    g = system.phi.jacobian_at_float(x)
    z = [a + b for a, b in zip(system.phi.eval_float(x), p2)]
    prox_pt, pj = system.penalty.prox_float([a + b for a, b in zip(lam, z)])
    gl = (g.T @ np.array(lam)).tolist()
    r = np.array([a + b - c for a, b, c in zip(system.f.eval_float(x), gl, p1)]
                 + [a - b for a, b in zip(z, prox_pt)])
    return r, math.sqrt(r.dot(r)), g, pj


def _psi_jacobian_x_float(system: VarSystem, x, lam):
    """d(Psi)/dx = Df(x) + sum_i lam_i Hess(Phi_i)(x), in float."""
    a = system.f.jacobian_at_float(x)
    for i, li in enumerate(lam):
        if li != 0:
            a = a + li * system.phi.hessian_at_float(i, x)
    return a


def solve_perturbed(system: VarSystem, p1, p2, start, tol=1e-10, max_iter=200):
    """Damped semismooth Newton for the canonically perturbed system.

    Residual R(x, lam) = (Psi(x, lam) - p1,
                          Phi(x) + p2 - prox(lam + Phi(x) + p2));
    generalized Jacobian elements come from the active piece of the
    proximal map.  The iteration runs in float: the prox value and its
    Jacobian come from cached exact affine pieces (`PlqPenalty.prox_float`).
    Iterates, trial points and entrywise residual arithmetic are Python
    floats; DPhi(x)^T lam, the norm's inner product and the Newton system
    are numpy (see `_float_residual`).  A residual or Newton matrix past
    float range stops the solve ("overflow"), with numpy's floating-point
    warnings off.  The returned iterate gets one exact residual
    evaluation, which decides `converged`.  Reports NewtonResult; never
    raises on stagnation.
    """
    import numpy as np

    n, m = system.n, system.m
    p1f = [float(v) for v in p1]
    p2f = [float(v) for v in p2]
    x = [float(v) for v in start[0]]
    lam = [float(v) for v in start[1]]
    with np.errstate(over="ignore", invalid="ignore"):
        r, rnorm, g, pj = _float_residual(system, p1f, p2f, x, lam)
        evaluations = 1
        iterations, reason = max_iter, "max_iter"
        for it in range(max_iter):
            if rnorm <= tol:
                iterations = it
                break
            if not math.isfinite(rnorm):  # at the start; later steps check below
                iterations, reason = it, "overflow"
                break
            a = _psi_jacobian_x_float(system, x, lam)
            top = np.hstack([a, g.T])
            bottom = np.hstack([(np.eye(m) - pj) @ g, -pj])
            jmat = np.vstack([top, bottom])
            if not np.isfinite(jmat).all():
                iterations, reason = it + 1, "overflow"
                break
            try:
                step = np.linalg.solve(jmat, -r)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jmat, -r, rcond=None)
            step = step.tolist()
            damp = 1.0
            best = None
            for _ in range(30):
                xn = [a + damp * b for a, b in zip(x, step)]
                ln = [a + damp * b for a, b in zip(lam, step[n:])]
                rn, rn_norm, gn, pjn = _float_residual(system, p1f, p2f, xn, ln)
                evaluations += 1
                if rn_norm < rnorm or not math.isfinite(rn_norm):
                    best = (xn, ln, rn, rn_norm, gn, pjn)
                    break
                damp /= 2
            if best is None:
                iterations, reason = it + 1, "no_descent"
                break
            if not math.isfinite(best[3]):
                iterations, reason = it + 1, "overflow"
                break
            x, lam, r, rnorm, g, pj = best
    exact_norm = _exact_residual_norm(system, p1, p2, x, lam)
    if exact_norm <= tol:
        reason = "converged"
    elif rnorm <= tol:
        reason = "exact_check"
    return NewtonResult(exact_norm <= tol, tuple(x), tuple(lam), exact_norm,
                        iterations, reason, evaluations)


def semi_isolated_probe(system: VarSystem, xbar, lam_bar, grid=8, scale=1e-3,
                        tol=1e-10, seed=0):
    """Solve a deterministic family of perturbed systems and record the
    ratio (|x - xbar| + dist(lam, multipliers)) / (|p1| + |p2|).

    Returns (ProbeTrace, estimated modulus).  Non-converged solves are
    recorded with NaN lhs and excluded from the modulus.
    """
    import random as _random

    import numpy as np

    ctx = system.point(xbar, lam_bar).require(
        "probe is anchored at an exact solution")
    xbar, lam_bar = ctx.x, ctx.lam
    n, m = system.n, system.m
    mset = system.multiplier_set(xbar)
    rng = _random.Random(seed)
    dirs = []
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        dirs.append((tuple(e), (0.0,) * m))
        dirs.append((tuple(-v for v in e), (0.0,) * m))
    for i in range(m):
        e = [0.0] * m
        e[i] = 1.0
        dirs.append(((0.0,) * n, tuple(e)))
        dirs.append(((0.0,) * n, tuple(-v for v in e)))
    for _ in range(4):
        d1 = [rng.uniform(-1, 1) for _ in range(n)]
        d2 = [rng.uniform(-1, 1) for _ in range(m)]
        nd = math.hypot(*(d1 + d2)) or 1.0
        dirs.append((tuple(v / nd for v in d1), tuple(v / nd for v in d2)))

    records = []
    modulus = 0.0
    for k in range(1, grid + 1):
        t = math.ldexp(scale, 1 - k)  # scale / 2^(k-1), 0.0 past underflow
        d1, d2 = dirs[(k - 1) % len(dirs)]
        p1 = tuple(t * v for v in d1)
        p2 = tuple(t * v for v in d2)
        res = solve_perturbed(system, p1, p2, (xbar, lam_bar), tol=tol)
        pert = math.hypot(*p1) + math.hypot(*p2)
        if not res.converged:
            records.append(ProbeRecord(t=t, p1=p1, p2=p2, x=res.x, lam=res.lam,
                                       lhs=math.nan, rhs=pert, ratio=math.nan,
                                       newton=res.reason))
            continue
        lam_exact = tuple(rat(float(v)) for v in res.lam)
        _, d2dist = mset.poly.project_point(lam_exact)
        lhs = norm2(vsub(tuple(rat(float(v)) for v in res.x), xbar)) \
            + sqrt_float(d2dist)
        ratio = lhs / pert if pert > 0 else 0.0
        modulus = max(modulus, ratio)
        records.append(ProbeRecord(t=t, p1=p1, p2=p2, x=res.x, lam=res.lam,
                                   lhs=lhs, rhs=pert, ratio=ratio,
                                   newton=res.reason))
    return ProbeTrace(records), modulus
