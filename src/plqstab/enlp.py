"""Composite optimization layer: KKT systems, second-order conditions,
and stability of the KKT solution map.

An ENLP minimizes phi0(x) + theta(Phi(x)) with a piecewise
linear-quadratic penalty theta; its Lagrangian is

    L(x, lam) = phi0(x) + <Phi(x), lam> - 1/2 <lam, B lam>,

so the problem is the variational system with f = grad(phi0)
(`EnlpProblem` is a `VarSystem`), and the residual Jacobian equals the
Lagrangian Hessian.  The second-order engine decomposes the domain of
the restricted penalty by the faces of the critical cone; the region
attached to a face is a Minkowski sum built from generators
(`stability._face_region`), on it the penalty is an explicit quadratic
form (solved on the span of the face with a rational pseudo-inverse),
and strict or non-strict copositivity of each pulled back form is
decided exactly: definiteness on the lineality space of the pulled back
cone (`linalg.reduce_lineality`, the symmetric elimination behind every
PSD and PD test), then stationary families of the Schur complement over
the simplex of its extreme rays (`copositive_on_cone`).  A region's
generators, pulled-back form and families are kept on its own cone, so
SOSC and SONC at one multiplier prepare each region once.

The criteria at (x, lam) share the problem's own memoized point context
(`stability.PointContext`): one solution check, and the Hessian,
critical cone, faces and face regions built once.

The coderivative (Lipschitz-like) criterion reads the limiting normals
of the subdifferential graph from pairs of faces F2 <= F1 of the
critical cone K (Dontchev and Rockafellar, SIAM J. Optim. 6, 1996; see
`plq`): with D = F1 - F2, only the zero pair (xi, eta) may satisfy

    H xi + G^T eta = 0,   eta in D,   B eta - G xi in polar(D),

one homogeneous system per face pair over (xi, eta) alone, written by
`stability._linearized_system` with the rows of
polar(D) = polar(F1) cap span(F2)-perp (`polyhedra.difference_polar`),
and decided by `stability.nontrivial_over`.  No graph decomposition or
hyperplane arrangement is built; `PlqPenalty.graph_pieces` and
`polyhedra.limiting_normal_cone_union` remain as the reference the tests
compare against.
"""

from __future__ import annotations

import threading
from functools import cached_property

from .errors import InternalConsistencyError
from .linalg import RatMatrix, reduce_lineality, solve_general
from .lp import lp_feasible_point
from .plq import PlqPenalty
from .polyhedra import PolyCone, Polyhedron, _cone_generators, face_differences
from .polymap import Polynomial, PolyMap
from .qp import _subsets
from .rational import ONE, ZERO, is_zero_vec, norm2, rats, vadd, vdot, vsub
from .record import FrozenRecord
from .stability import (_linearized_system, classify_multiplier,
                        nontrivial_over, uniqueness_report)
from .varsys import VarSystem

__all__ = [
    "EnlpProblem",
    "StabilityReport",
    "InternalConsistencyError",
    "copositive_on_cone",
]


class StabilityReport(FrozenRecord):
    # sonc is True, False or "inconclusive"; robust_ic is True, False or
    # "not-certified"; the other verdicts are bools
    __slots__ = ("bcq", "sosc", "sonc", "unique", "noncritical",
                 "isolated_calm_skkt", "lipschitz_like_skkt", "robust_ic",
                 "consistency_notes")

    def to_doc(self):
        """Each field by its name: a tuple as a list, a bool or str as
        itself, any other value as its str."""
        return {name: list(v) if isinstance(v, tuple) else
                v if isinstance(v, (bool, str)) else str(v)
                for name, v in zip(self.__slots__, self._values())}


class EnlpProblem(VarSystem):
    """Cost polynomial, constraint map, and penalty: the variational
    system with f = grad(phi0), the same Phi and the same penalty."""

    def __init__(self, phi0: Polynomial, phi: PolyMap, penalty: PlqPenalty):
        if phi0.n != phi.n:
            raise ValueError("cost and constraint map disagree on dimension")
        super().__init__(PolyMap([phi0]).gradient_map(), phi, penalty)
        self.phi0 = phi0
        self._bcq: dict = {}

    # -- Lagrangian -----------------------------------------------------------
    def lagrangian(self, x, lam):
        x = rats(x)
        lam = rats(lam)
        blam = self.penalty.B.matvec(lam)
        return self.phi0.eval(x) + vdot(self.phi.eval(x), lam) - vdot(lam, blam) / 2

    def objective(self, x):
        """phi0(x) + theta(Phi(x)) as an extended real."""
        return self.penalty.theta(self.phi.eval(x)) + self.phi0.eval(x)

    # -- first-order tests -------------------------------------------------------
    def kkt_check(self, x, lam):
        """(exact KKT truth, float residual)."""
        ctx = self.point(x, lam)
        resid = norm2(ctx.psi)
        if not ctx.in_subdiff:
            resid += norm2(vsub(ctx.zbar, self.penalty.prox(vadd(ctx.lam, ctx.zbar))))
        return ctx.solves, resid

    def _require_kkt(self, x, lam):
        return self.point(x, lam).require(
            "the pair does not solve the KKT system exactly")

    def bcq_holds(self, x) -> bool:
        """Normals of dom(theta) at Phi(x) meet ker(DPhi^T) only at zero.

        Decided once per exact x and kept on the instance."""
        x = rats(x)
        if x not in self._bcq:
            phix = self.phi.eval(x)
            dom = self.penalty.domain_cone
            tight = dom.tight_rows(phix)
            if tight is None:
                raise ValueError("base point is infeasible for the penalty domain")
            gmat = self.phi.jacobian_at(x)
            a_eq = [tuple(gmat.rows[i][j] for i in range(self.m))
                    for j in range(self.n)]  # DPhi^T v = 0
            # v in the normal cone of the domain
            a_ub = list(dom.normal_cone_of(tight).rows)
            self._bcq[x] = nontrivial_over([(self.m, a_eq, a_ub)],
                                           range(self.m)) is None
        return self._bcq[x]

    # -- second-order conditions -----------------------------------------------------
    def sosc_holds(self, x, lam) -> bool:
        """Strict copositivity of the Lagrangian-plus-penalty form on the
        directions whose image lies in the restricted penalty domain."""
        return all(copositive_on_cone(qform, wcone, strict=True)[0]
                   for wcone, qform in self._require_kkt(x, lam).regions)

    def sonc_holds(self, x):
        """Non-strict second-order necessary condition.

        Exact (True/False) when the multiplier set is a singleton;
        otherwise True when some vertex multiplier certifies the
        condition over its own region decomposition, else
        "inconclusive" (the regions induced by different multipliers
        need not agree)."""
        x = rats(x)
        if not self.bcq_holds(x):
            raise ValueError("the basic constraint qualification fails")
        mset = self.multiplier_set(x)
        if mset.empty:
            raise ValueError("no multipliers at the base point")

        def check(lam) -> bool:
            return all(copositive_on_cone(qform, wcone, strict=False)[0]
                       for wcone, qform in self.point(x, lam).regions)

        if mset.singleton:
            return check(mset.representative)
        verts, rays, lin = _vertices_and_rays(mset.poly)
        if rays or lin or not verts:
            return "inconclusive"
        for v in verts:
            if check(v):
                return True
        return "inconclusive"

    # -- stability of the KKT solution map ----------------------------------------------
    def isolated_calmness_skkt(self, x, lam) -> bool:
        """Graphical-derivative criterion: the linearized KKT system
        admits only the zero direction pair: the verdict is noncritical,
        and none of the face systems it solved has a generator."""
        ctx = self._require_kkt(x, lam)
        return not ctx.criticality.critical and not any(ctx.face_solutions)

    def lipschitz_like_skkt(self, x, lam) -> bool:
        """Coderivative criterion: only the zero pair satisfies the
        linearized inclusion through the limiting normals of the
        subdifferential graph, read from the face pairs of the critical
        cone."""
        ctx = self._require_kkt(x, lam)
        # B eta - G xi in polar(D): <-h, G xi - B eta> <= 0 on its le rows h
        systems = (_linearized_system(ctx, diff,
                                      (peq, [tuple(-v for v in h) for h in ple]))
                   for diff, (peq, ple) in face_differences(ctx.kcone))
        return nontrivial_over(systems, range(self.n + self.m)) is None

    def robust_ic_report(self, x, lam) -> StabilityReport:
        """Full stability report with exact theorem-level cross-checks."""
        ctx = self._require_kkt(x, lam)
        x, lam = ctx.x, ctx.lam
        verdict = classify_multiplier(self, x, lam)
        noncritical = not verdict.critical
        uniq = uniqueness_report(self, x, lam)
        bcq = self.bcq_holds(x)
        sosc = self.sosc_holds(x, lam)
        # sonc_holds raises ValueError without BCQ, guarded here, or without
        # multipliers, and lam is one; a ValueError is an internal fault
        try:
            sonc = self.sonc_holds(x) if bcq else "inconclusive"
        except ValueError as err:
            raise InternalConsistencyError(
                "the necessary condition failed at a solution: %s" % err
            ) from err
        icalm = self.isolated_calmness_skkt(x, lam)
        liplike = self.lipschitz_like_skkt(x, lam)

        notes = []
        if not uniq.consistent:
            raise InternalConsistencyError(
                "multiplier uniqueness disagrees with the dual qualification")
        if sosc and not noncritical:
            raise InternalConsistencyError(
                "second-order sufficiency with a critical multiplier")
        if liplike and not icalm:
            raise InternalConsistencyError(
                "Lipschitz-like map that is not isolatedly calm")
        if icalm != (noncritical and uniq.singleton):
            raise InternalConsistencyError(
                "isolated calmness disagrees with noncriticality + uniqueness")
        if sonc is False and sosc:
            raise InternalConsistencyError(
                "sufficient condition holds while the necessary one fails")

        if sosc and uniq.singleton:
            robust = True
            notes.append("robust isolated calmness certified through the "
                         "second-order sufficient condition")
        elif not uniq.singleton or not noncritical:
            robust = False
            notes.append("robust isolated calmness fails: multiplier is "
                         "critical or not unique")
        else:
            robust = "not-certified"
            notes.append("local optimality could not be certified (the "
                         "second-order sufficient condition fails)")
        return StabilityReport(bcq=bcq, sosc=sosc, sonc=sonc,
                               unique=uniq.singleton, noncritical=noncritical,
                               isolated_calm_skkt=icalm,
                               lipschitz_like_skkt=liplike, robust_ic=robust,
                               consistency_notes=tuple(notes))


# -- exact copositivity ---------------------------------------------------------------


def copositive_on_cone(qform: RatMatrix, cone: PolyCone, strict: bool):
    """Is w^T Q w > 0 (>= 0 when strict=False) for all nonzero w in the cone?

    Exact decision over the generators K = span(L) + cone(R), from double
    description (`_cone_generators`, called directly, so no memo grows;
    every generator is checked against the cone's rows).  With
    M = [L R]^T Q [L R], blocks Q_LL, Q_LR, Q_RR, the lineality block is
    eliminated by one symmetrically pivoted LDL^T (`linalg.reduce_lineality`,
    the elimination behind `psd_check` and `is_positive_definite` too):
    on a subspace, copositivity is definiteness (Martin and Jacobson,
    Linear Algebra Appl. 35, 1981), and the rays see the Schur complement
    S = Q_RR - Q_LR^T Q_LL^+ Q_LR (Hiriart-Urruty and Seeger, SIAM
    Review 52, 2010).

    - strict: Q_LL is positive definite and S is strictly copositive on
      the orthant;
    - non-strict: Q_LL is PSD, the columns of Q_LR lie in range(Q_LL)
      and S is copositive on the orthant.

    S is decided by the subset loop over the unit generators of the
    orthant (`_orthant_copositive`): at most 2^|R| - 1 subsets, none for
    a subspace.  A nonzero ray coefficient vector gives a nonzero
    direction, since the cone is pointed modulo its lineality space.

    The checked generators, M and the stationary families of S do not
    depend on `strict`, so they are kept on the cone for its form Q
    (`_CopositivityForm`): the strict and the non-strict test of one
    second-order region, SOSC's and SONC's, share them, and no module memo
    grows.

    Returns (verdict, witness direction or None).  A False verdict's
    witness w is checked exactly: nonzero, in the cone, and w^T Q w < 0
    (<= 0 when strict); a failure raises InternalConsistencyError.
    """
    form = _CopositivityForm.of(qform, cone)
    if form.gcols is None:
        return True, None
    coeffs, schur, lifts = reduce_lineality(form.mhat, form.nlin, strict)
    if coeffs is None:
        c = _orthant_copositive(form.families(schur), strict)
        if c is None:
            return True, None
        coeffs = [vdot(c, row) for row in zip(*lifts)]  # sum of c_j lifts_j
    witness = form.gcols.matvec(coeffs)
    _check_witness(qform, cone, witness, strict)
    return False, witness


class _CopositivityForm:
    """A form Q on a cone, prepared once for both tests and kept on the
    cone (its `_copositivity`) while Q is the form asked about: the
    checked generators as the columns of [L R] (None for the zero cone),
    the number of lineality columns, M = [L R]^T Q [L R], and the
    stationary families of the Schur complement that scans have solved."""

    def __init__(self, qform, cone):
        lin, rays = _cone_generators(cone.rows, cone.dim)
        gens = list(lin) + list(rays)
        if not all(cone.contains(g) for g in gens):
            raise InternalConsistencyError("generator violates H-representation")
        self.qform, self.nlin = qform, len(lin)
        self.gcols = RatMatrix.from_cols(gens) if gens else None
        self.mhat = self.gcols.T @ qform @ self.gcols if gens else None
        self._families = []
        self._unreached = None
        self._lock = threading.Lock()

    @staticmethod
    def of(qform, cone):
        form = cone.__dict__.get("_copositivity")
        if form is None or form.qform is not qform:
            form = cone._copositivity = _CopositivityForm(qform, cone)
        return form

    def families(self, schur):
        """The consistent stationary families of c^T S c over the faces of
        the simplex, in `_subsets` order.  S is the same whichever test
        forms it, so the first S serves.  A family is solved when a scan
        first reaches it and kept: scans read the list by position and
        append to it under one lock, as `qp.StrictQpSolver` does."""
        records, i = self._families, 0
        while True:
            if i == len(records):
                with self._lock:
                    if self._unreached is None:
                        self._unreached = filter(None, (
                            _family(schur, subset) for subset in
                            _subsets(tuple(range(schur.nrows))) if subset))
                    if i == len(records):
                        family = next(self._unreached, None)
                        if family is None:
                            return
                        records.append(family)
            yield records[i]
            i += 1


def _orthant_copositive(families, strict):
    """A nonzero c >= 0 with c^T S c < 0 (<= 0 when strict), or None, from
    the consistent stationary families of S in order.

    The minimum of the form over the simplex is attained at a stationary
    family of some simplex face: 2 (S c)_i = nu on the face's support,
    sum c = 1, c zero elsewhere.  Families are solved by rational
    elimination, their (constant) value is thresholded, and a
    nonnegative family point is found by an LP.  On the simplex c is
    never zero, so a zero value under the strict test is a witness too.
    """
    for family in families:
        if family.value > 0 or (family.value == 0 and not strict):
            continue
        if family.point is not None:
            return family.point
    return None


def _family(smat: RatMatrix, subset):
    """The stationary family of the simplex face `subset`, or None when
    its system is inconsistent."""
    size = len(subset)
    a = [tuple([2 * smat.rows[i][j] for j in subset] + [-ONE])
         for i in subset]
    a.append(tuple([ONE] * size + [ZERO]))
    b = [ZERO] * size + [ONE]
    fam = solve_general(a, b)
    if fam is None:
        return None
    return _Family(smat.nrows, subset, a, b,
                   _form_value(smat, subset, fam[0][:size]))


class _Family:
    """One consistent stationary family: its face (`subset`) of the simplex
    in R^k, its system (a, b) over (c on the face, nu) and its value."""

    def __init__(self, k, subset, a, b, value):
        self.k, self.subset, self.a, self.b = k, subset, a, b
        self.value = value

    @cached_property
    def point(self):
        """A family point c >= 0 on the simplex face, by an LP, or None."""
        feasible = _family_point(self.a, self.b, len(self.subset))
        if feasible is None:
            return None
        c = [ZERO] * self.k
        for i, v in zip(self.subset, feasible):
            c[i] = v
        return tuple(c)


def _form_value(mhat: RatMatrix, subset, coeffs):
    total = ZERO
    for ii, i in enumerate(subset):
        for jj, j in enumerate(subset):
            total += coeffs[ii] * mhat.rows[i][j] * coeffs[jj]
    return total


def _family_point(a_eq, b_eq, k):
    """A stationary-family point on the simplex face (c >= 0), or None."""
    a_ub = []
    b_ub = []
    for i in range(k):
        row = [ZERO] * (k + 1)
        row[i] = -ONE
        a_ub.append(tuple(row))
        b_ub.append(ZERO)
    return lp_feasible_point(tuple(a_ub), tuple(b_ub), tuple(a_eq),
                             tuple(b_eq), n=k + 1)


def _check_witness(qform: RatMatrix, cone: PolyCone, w, strict):
    """Raise InternalConsistencyError unless w is a nonzero direction of
    the cone with w^T Q w < 0 (<= 0 when strict)."""
    if is_zero_vec(w):
        raise InternalConsistencyError("zero copositivity witness")
    if not cone.contains(w):
        raise InternalConsistencyError("copositivity witness leaves its cone")
    value = vdot(qform.matvec(w), w)
    if value > 0 or (value == 0 and not strict):
        raise InternalConsistencyError(
            "copositivity witness does not decrease the form")


def _vertices_and_rays(poly: Polyhedron):
    """(vertices, extreme rays, lineality) via homogenization."""
    d = poly.dim
    rows = [tuple(b) + (-a,) for b, a in zip(poly.b, poly.alpha)]
    rows.append((ZERO,) * d + (-ONE,))
    cone = PolyCone(rows, dim=d + 1)
    lin, rays = cone.generators()
    verts, recession = [], []
    for r in rays:
        if r[d] > 0:
            verts.append(tuple(v / r[d] for v in r[:d]))
        else:
            recession.append(tuple(r[:d]))
    lineality = [tuple(l[:d]) for l in lin]
    return verts, recession, lineality
