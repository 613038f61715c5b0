"""Criticality classification and stability diagnostics.

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
from operator import mul

from .errors import InternalConsistencyError
from .linalg import RatMatrix, kernel_basis, pseudo_inverse_psd, zeros
from .lp import LpOptimal, lp_max_each
from .polyhedra import (PolyCone, _all_generator_vectors, _cone_generators,
                        critical_cone, difference_polar, normal_cone)
from .polymap import _float_values
from .rational import (ONE, ZERO, is_zero_vec, norm2, primitive, rat,
                       sqrt_float, to_float_vec, vadd, vdot, vscale, vsub)
from .varsys import VarSystem

__all__ = [
    "FloatKernel",
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
        examined = faces if index is None else faces[:index]
        certificates = tuple((f.tight, "only xi = 0") for f in examined)
        if index is None:
            return CriticalityVerdict(critical=False, face_count=len(faces),
                                      face_certificates=certificates)
        point = _nontrivial_point(*self.face_systems[index], range(n))
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
        cone = ctx.ncone.as_polyhedron()
        d2i = cone.project_point(vsub(phix, ctx.blam))[1]
    else:
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
    every line-search trial of `FloatKernel.line_search`, whether the
    compiled search or the generic `FloatKernel.trial` made it, and
    whether numpy finished it or a rounding bound rejected it first; the
    trials left after one at the iterate count too, unevaluated."""

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


# The line search's rejection bound (`FloatKernel.rejects`).  _C exceeds
# 2 gamma_(n+m+2) = 2 (n+m+2) u / (1 - (n+m+2) u), u = 2^-53, whenever
# n + m <= _BOUNDED_DIM (two problem-file dimensions); _BIG and _TINY keep
# every square and sum of the bound, and of numpy's norm, in normal range.
_C = 1e-12
_BOUNDED_DIM = 2000
_BIG = math.ldexp(1.0, 400)
_TINY = math.ldexp(1.0, -400)

# The compiled line search (`FloatKernel.line_search`).  A kernel compiles
# after _WARMUP generic trials: a build of a corpus system takes about as
# long as 100 generic trials, and most probe analyses make fewer than 256
# trials in all.  A search function of more than _MAX_LINES lines (5,000
# take about 35 ms and 15 MB to compile) is not built, and its system
# keeps the generic path.  A line search makes at most _TRIALS trials.
_WARMUP = 256
_MAX_LINES = 5000
_TRIALS = 30


class FloatKernel:
    """The float residual, line search and Newton step of one `VarSystem`,
    built once per system (`VarSystem.float_kernel`).

    `parts` evaluates f, Phi and DPhi at a float point in one
    `polymap._float_values` pass over their concatenated term lists, reads
    the prox piece through `PlqPenalty.prox_float` (the float active-set
    scan) and forms the prox block r2 = z - prox(lam + z) of R,
    z = Phi(x) + p2, all in Python floats.  `residual` finishes R in
    numpy: DPhi(x)^T lam is `g.T @ lam` on the C-ordered m x n array g,
    and |R| is `math.sqrt(r.dot(r))`; their BLAS sums can round
    differently from a sequential Python sum, so they stay numpy.
    `rejects` proves, in Python floats, that some trials' |R| would be no
    smaller than the current one.

    `line_search` backtracks, damp = 1, 1/2, ..., for at most _TRIALS
    trials.  A trial is `parts` and then `rejects` (the generic `trial`),
    and numpy's |R| only for a trial the bound does not reject.  Once the
    kernel has served _WARMUP trials the generic way, it compiles the
    whole backtracking loop, with the same float operations in the same
    order, into one Python function (`trialsource.search_source`), with
    the prox scan unrolled over the active sets reached so far and the
    Jacobians cached so far; the function returns the first trial its
    bound does not reject, and a rejected trial builds no list.  A trial
    the function cannot finish (a power overflows, no unrolled set
    passes, or the passing set has no cached Jacobian) goes to the
    generic `trial`, which rebuilds the function when the reached sets or
    the Jacobians have grown, and the search resumes at the next damp on
    the current function.  So every bit is as without it.  Two rules end
    work early: a trial point equal to the iterate ends the search, and
    the compiled function rejects a trial by the bound's first block alone,
    before its prox scan, where that proves `rejects` would (see
    `trialsource`).  The function lives on the kernel.  It is not built
    when it would have more than _MAX_LINES lines, or where `sum` of
    floats is not the sequential sum (Python 3.12 compensates), whose
    scan the unrolled one would not match.

    `newton_matrix` forms A = Df(x) + sum_i lam_i Hess(Phi_i)(x) in Python
    floats, entry by entry as numpy's `a + lam_i * H` rounds it, and
    `newton_step` solves the Newton system with LAPACK's solve, called
    directly.
    """

    def __init__(self, system: VarSystem):
        import numpy as np

        try:
            from numpy.linalg._umath_linalg import solve1 as solve
        except ImportError:
            solve = np.linalg.solve
        self.np, self.solve = np, solve
        self.n, self.m = system.n, system.m
        self.penalty = system.penalty
        self.prox_float = system.penalty.prox_float
        self.terms = (system.f._component_terms + system.phi._component_terms
                      + system.phi._jacobian_terms)
        # Df(x), then the Hessian of each Phi_i, each n x n row by row
        self.a_terms = system.f._jacobian_terms + system.phi._hessian_terms
        self.bounded = self.n + self.m <= _BOUNDED_DIM
        # the compiled search, the sizes of the prox solver's reached sets
        # and of the cached Jacobians it was built from, and the number of
        # trials served the generic way; no build where the polynomials and
        # the bound's 3 n m lines alone pass _MAX_LINES
        self.compiled, self.built_from, self.generic = None, None, 0
        sequential = sum((1.0, 1e100, 1.0, -1e100)) == 0.0
        small = sum(map(len, self.terms)) + 3 * self.n * self.m <= _MAX_LINES
        self.warmup = _WARMUP if sequential and small else math.inf

    def parts(self, x, lam, p2):
        """(values, r2, J) at the float point (x, lam): `values` lists f(x),
        Phi(x) and the rows of DPhi(x), r2 is the prox block of R and J the
        prox Jacobian triple (J, I - J, -J) of m x m numpy arrays of the
        piece at lam + z."""
        n, m = self.n, self.m
        values = _float_values(self.terms, x)
        z = [a + b for a, b in zip(values[n:n + m], p2)]
        v = [a + b for a, b in zip(lam, z)]
        prox, pj = self.prox_float(v)
        return values, [a - b for a, b in zip(z, prox)], pj

    def trial(self, x, lam, step, damp, p1, p2, floor):
        """The generic line-search trial at (x, lam) + damp * step: (x',
        lam', values, r2, J, rejected), with (values, r2, J) what `parts`
        gives at (x', lam') and `rejected` what `rejects` then decides
        against `floor`.  Past the warm-up it (re)builds the compiled
        search."""
        xn = [a + damp * b for a, b in zip(x, step)]
        ln = [a + damp * b for a, b in zip(lam, step[self.n:])]
        values, r2, pj = self.parts(xn, ln, p2)
        rejected = self.rejects(values, r2, ln, p1, floor)
        self.generic += 1
        if self.generic >= self.warmup:
            self._build()
        return xn, ln, values, r2, pj, rejected

    def line_search(self, x, lam, step, p1, p2, rnorm):
        """The backtracking search from (x, lam) along `step`: (trials
        made, best), best = (x', lam', values, R, |R|, DPhi, J) at the first
        trial, damp = 2^-i for i < _TRIALS, whose numpy |R| is below
        `rnorm` or not finite, or None when no trial is.  A trial point
        equal to the iterate ends the search with (_TRIALS, None): numpy
        would reject it and every later trial, which count as made."""
        floor = self.floor(rnorm)
        i = 0
        while i < _TRIALS:
            trial = None
            if self.compiled is not None:
                i, trial = self.compiled(x, lam, step, i, p1, p2, floor)
                if i == _TRIALS:  # it rejected every trial left
                    break
            if trial is None:
                damp = math.ldexp(1.0, -i)
                # at the iterate numpy's |R| is the current one (== leaves
                # only a zero's sign free, which reaches only the signs of
                # zero results, and |R| squares every entry), and rounding
                # is monotone, so every smaller damp lands there too
                if all(a + damp * b == a for a, b in zip(x + lam, step)):
                    break
                *trial, rejected = self.trial(x, lam, step, damp, p1, p2,
                                              floor)
                if rejected:
                    i += 1
                    continue
            xn, ln, values, r2, pj = trial
            r, rn, g = self.residual(values, r2, ln, p1)
            if rn < rnorm or not math.isfinite(rn):
                return i + 1, (xn, ln, values, r, rn, g, pj)
            i += 1
        return _TRIALS, None

    def _build(self):
        """Compile the search function, unless the prox solver's reached
        sets and the cached Jacobians are those it was last built from."""
        solver = self.penalty._prox_solver()
        jacs = self.penalty._float_jacs
        sizes = len(solver._reached), len(jacs)
        if sizes == self.built_from:
            return
        self.built_from = sizes
        from .trialsource import compile_search, search_source

        lines, consts = search_source(self.n, self.m, self.terms, solver,
                                      jacs)
        if len(lines) > _MAX_LINES:
            self.warmup = math.inf  # it only grows: keep the last function
            return
        self.compiled = compile_search(lines, consts)

    def residual(self, values, r2, lam, p1):
        """(R, |R|, DPhi(x)) from `parts`, R and DPhi(x) numpy arrays.  The
        entries of R are f_i + (DPhi^T lam)_i - p1_i, then r2; |R| is inf or
        nan when a value overflows."""
        np, n, m = self.np, self.n, self.m
        g = np.array(values[n + m:], dtype=float).reshape(m, n)
        gl = (g.T @ np.array(lam)).tolist()
        r = np.array([a + b - c for a, b, c in zip(values, gl, p1)] + r2)
        return r, math.sqrt(r.dot(r)), g

    def floor(self, rnorm):
        """|R|^2 (1 + _C), the square that `rejects` must prove a trial
        beats; inf, so that no trial is rejected without numpy, when |R| is
        below _TINY or the system has more than _BOUNDED_DIM coordinates."""
        if self.bounded and rnorm >= _TINY:
            return rnorm * rnorm * (1 + _C)
        return math.inf

    def rejects(self, values, r2, lam, p1, floor) -> bool:
        """Whether the trial's |R|, as `residual` would compute it, is
        provably finite and no smaller than the |R| of `floor`.

        With e_i = f_i + sum_j DPhi_ji lam_j - p1_i and A_i = |f_i| +
        sum_j |DPhi_ji lam_j| + |p1_i| in Python floats, numpy's r1_i and
        e_i both lie within gamma_(m+2) A_i of the exact value, so
        |r1_i| >= |e_i| - _C A_i.  True only when every |r2_i| and A_i is
        below _BIG and L (1 - _C) >= floor, L = sum r2_i^2 +
        sum max(|e_i| - _C A_i, 0)^2: numpy's dot of nonnegative terms is
        then at least (1 - gamma_(n+m)) times their exact sum in any order,
        with or without fused multiply-add, so it is at least |R|^2, and
        its square root rounds to at least |R|.
        """
        total = 0.0
        for v in r2:
            if not abs(v) < _BIG:  # nan fails too
                return False
            total += v * v
        n = self.n
        g = values[n + self.m:]
        for i in range(n):
            e = values[i] - p1[i]
            bound = abs(values[i]) + abs(p1[i])
            for t in map(mul, g[i::n], lam):
                e += t
                bound += abs(t)
            if not bound < _BIG:
                return False
            d = abs(e) - _C * bound
            if d > 0:
                total += d * d
        return total * (1 - _C) >= floor

    def newton_matrix(self, x, lam, values, g, pj):
        """The generalized Jacobian [[A, g^T], [(I - J) g, -J]] of R at
        (x, lam) in one array, A = Df(x) + sum_i lam_i Hess(Phi_i)(x), from
        `values` and g (DPhi(x) as `parts` and `residual` give it) and the
        Jacobian triple pj.  A is added up entry by entry in Python floats
        from one `_float_values` pass, each entry a + lam_i * h as numpy's
        `a + lam_i * H` rounds it; (I - J) g stays numpy."""
        np, n, m = self.np, self.n, self.m
        nn = n * n
        blocks = _float_values(self.a_terms, x)
        a = blocks[:nn]
        for i, li in enumerate(lam):
            if li != 0:
                a = [u + li * h
                     for u, h in zip(a, blocks[nn * (i + 1):nn * (i + 2)])]
        dphi = values[n + m:]
        jmat = np.empty((n + m, n + m))
        jmat[:n] = [a[i * n:(i + 1) * n] + dphi[i::n] for i in range(n)]
        jmat[n:, :n] = pj[1] @ g
        jmat[n:, n:] = pj[2]
        return jmat

    def newton_step(self, jmat, r):
        """The Newton step s with jmat s = -r, as a list, bit for bit what
        `np.linalg.solve` gives, or for a singular jmat least squares
        (`np.linalg.lstsq`).  LAPACK's solve is called directly; its step
        is nan for a singular jmat, and a step that is not finite is
        recomputed through `np.linalg.solve`."""
        np = self.np
        try:
            step = self.solve(jmat, -r).tolist()
            if all(map(math.isfinite, step)):
                return step
            step = np.linalg.solve(jmat, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jmat, -r, rcond=None)
        return step.tolist()


def solve_perturbed(system: VarSystem, p1, p2, start, tol=1e-10, max_iter=200):
    """Damped semismooth Newton for the canonically perturbed system.

    Residual R(x, lam) = (Psi(x, lam) - p1,
                          Phi(x) + p2 - prox(lam + Phi(x) + p2));
    generalized Jacobian elements come from the active piece of the
    proximal map.  The iteration runs in float on the system's
    `FloatKernel`: the prox value and its Jacobian come from cached exact
    affine pieces, iterates, trial points, entrywise residual arithmetic
    and the Newton matrix's A block are Python floats, and
    DPhi(x)^T lam, the norm's inner product, (I - J) DPhi(x) and the
    Newton system (LAPACK's solve, least squares when it is singular) are
    numpy.  Each step's line search is one `FloatKernel.line_search`: its
    trials run in one compiled function once the kernel has warmed up, and
    numpy's |R| is computed only for a trial that the rounding bound does
    not reject.  The bound rejects a trial only when it proves that
    numpy's |R| would be finite and no smaller than the current one, so
    the iterates are those of the all-numpy residual to the last bit.  A
    residual or Newton matrix past float range stops the solve
    ("overflow"), with numpy's floating-point warnings off.  The
    returned iterate gets one exact residual evaluation, which decides
    `converged`.  Reports NewtonResult; never raises on stagnation.
    """
    import numpy as np

    kernel = system.float_kernel
    p1f = [float(v) for v in p1]
    p2f = [float(v) for v in p2]
    x = [float(v) for v in start[0]]
    lam = [float(v) for v in start[1]]
    with np.errstate(over="ignore", invalid="ignore"):
        values, r2, pj = kernel.parts(x, lam, p2f)
        r, rnorm, g = kernel.residual(values, r2, lam, p1f)
        evaluations = 1
        iterations, reason = max_iter, "max_iter"
        for it in range(max_iter):
            if rnorm <= tol:
                iterations = it
                break
            if not math.isfinite(rnorm):  # at the start; later steps check below
                iterations, reason = it, "overflow"
                break
            jmat = kernel.newton_matrix(x, lam, values, g, pj)
            if not np.isfinite(jmat).all():
                iterations, reason = it + 1, "overflow"
                break
            step = kernel.newton_step(jmat, r)
            trials, best = kernel.line_search(x, lam, step, p1f, p2f, rnorm)
            evaluations += trials
            if best is None:
                iterations, reason = it + 1, "no_descent"
                break
            if not math.isfinite(best[4]):
                iterations, reason = it + 1, "overflow"
                break
            x, lam, values, r, rnorm, g, pj = best
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
