"""plqstab: exact criticality and stability analysis of variational and
KKT systems with piecewise linear-quadratic penalties.

The kernel (rationals, LP, QP, polyhedral geometry, penalty calculus)
is exact; floating point appears only in the opt-in numeric probes and
in the error-bound table, whose exact distances are rounded once.
"""

from .enlp import EnlpProblem, StabilityReport
from .errors import InternalConsistencyError
from .exprparse import ParseError, parse_expression
from .linalg import RatMatrix, identity, psd_check
from .lp import (LpInfeasible, LpOptimal, LpProblem, LpUnbounded, lp_max,
                 lp_solve)
from .plq import ExtReal, PLUS_INF, PlqPenalty, coderivative_contains
from .polyhedra import (Face, PolyCone, Polyhedron, PolyUnion, fm_project,
                        horizon_cone, limiting_normal_cone_union, tangent_cone)
from .polymap import Polynomial, PolyMap
from .problemfile import ProblemFile, ProblemFileError, parse_problem_file
from .qp import QpInfeasible, QpOptimal, QpUnbounded, qp_solve
from .rational import Rat, parse_rat, rat
from .report import analyze_problem, render_json, render_text
from .stability import (CriticalityVerdict, UniquenessReport,
                        classify_multiplier, dqc_holds, error_bound_residuals,
                        uniqueness_report)
from .varsys import MultiplierSet, VarSystem

# The float probe's names, served from `probe` on first use (PEP 562), so
# that importing the package neither compiles nor loads the probe.
_PROBE_NAMES = frozenset(("NewtonResult", "ProbeTrace", "critical_ray_probe",
                          "semi_isolated_probe", "solve_perturbed",
                          "trace_is_divergent"))


def __getattr__(name):
    if name in _PROBE_NAMES:
        from . import probe

        return getattr(probe, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def corpus_path(name: str) -> str:
    """Filesystem path of a shipped corpus problem file."""
    import os

    base = os.path.join(os.path.dirname(__file__), "corpus")
    fname = name if name.endswith(".json") else name + ".json"
    path = os.path.join(base, fname)
    if not os.path.exists(path):
        raise FileNotFoundError("no corpus problem named %r" % name)
    return path


def corpus_names():
    """Names of the shipped corpus problems."""
    import os

    base = os.path.join(os.path.dirname(__file__), "corpus")
    return sorted(os.path.splitext(f)[0] for f in os.listdir(base)
                  if f.endswith(".json"))
