"""Outside-in span tracing of plqstab's public entry points.

`install` replaces each entry point listed in SPANS with a wrapper that
records a span (name, parent, duration) in a `Tracer`.  A module-level
function is rebound in every `plqstab` module namespace that holds it by
name, so `from .stability import classify_multiplier` in `enlp` and
`report` is traced too; a method is replaced on its class.  Nothing in
the program itself is edited.

A span's self time is its duration minus the time covered by its child
spans.  Inclusive time counts only the outermost activation of a
recursive entry, so it never exceeds wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# name -> (module, attribute path).  The name is "<module>.<entry>".
SPANS = {
    "report.analyze_problem": ("report", "analyze_problem"),
    "report.render_json": ("report", "render_json"),
    "problemfile.parse_problem_doc": ("problemfile", "parse_problem_doc"),
    "lp.lp_solve": ("lp", "lp_solve"),
    "qp.StrictQpSolver.solve": ("qp", "StrictQpSolver.solve"),
    "qp.qp_solve": ("qp", "qp_solve"),
    "linalg.invert": ("linalg", "invert"),
    "plq.PlqPenalty.prox": ("plq", "PlqPenalty.prox"),
    "plq.PlqPenalty.prox_linearization": ("plq", "PlqPenalty.prox_linearization"),
    "plq.PlqPenalty.graph_pieces": ("plq", "PlqPenalty.graph_pieces"),
    "polyhedra.fm_project": ("polyhedra", "fm_project"),
    "polyhedra.limiting_normal_cone_union": ("polyhedra", "limiting_normal_cone_union"),
    "polyhedra.PolyCone.faces": ("polyhedra", "PolyCone.faces"),
    "polyhedra.PolyCone.generators": ("polyhedra", "PolyCone.generators"),
    "polyhedra.Polyhedron.irredundant": ("polyhedra", "Polyhedron.irredundant"),
    "polyhedra.Polyhedron.project_point": ("polyhedra", "Polyhedron.project_point"),
    "varsys.VarSystem.multiplier_set": ("varsys", "VarSystem.multiplier_set"),
    "stability.classify_multiplier": ("stability", "classify_multiplier"),
    "stability.dqc_holds": ("stability", "dqc_holds"),
    "stability.error_bound_residuals": ("stability", "error_bound_residuals"),
    "stability.solve_perturbed": ("stability", "solve_perturbed"),
    "stability.semi_isolated_probe": ("stability", "semi_isolated_probe"),
    "enlp.EnlpProblem.robust_ic_report": ("enlp", "EnlpProblem.robust_ic_report"),
    "enlp.EnlpProblem.lipschitz_like_skkt": ("enlp", "EnlpProblem.lipschitz_like_skkt"),
    "enlp.EnlpProblem.isolated_calmness_skkt": ("enlp", "EnlpProblem.isolated_calmness_skkt"),
    "enlp.EnlpProblem.sosc_holds": ("enlp", "EnlpProblem.sosc_holds"),
    "enlp.EnlpProblem.sonc_holds": ("enlp", "EnlpProblem.sonc_holds"),
    "enlp.EnlpProblem.bcq_holds": ("enlp", "EnlpProblem.bcq_holds"),
    "enlp.copositive_on_cone": ("enlp", "copositive_on_cone"),
}

_LP_OUTCOMES = {"LpOptimal": "optimal", "LpInfeasible": "infeasible",
                "LpUnbounded": "unbounded"}


def _lp_outcome(counts, out):
    key = "lp.lp_solve." + _LP_OUTCOMES[type(out).__name__]
    counts[key] = counts.get(key, 0) + 1


def _newton_outcome(counts, out):
    counts["stability.solve_perturbed.iterations"] = \
        counts.get("stability.solve_perturbed.iterations", 0) + out.iterations
    counts["stability.solve_perturbed.converged"] = \
        counts.get("stability.solve_perturbed.converged", 0) + int(out.converged)


# Result hooks: count outcomes where the work happens.
_ON_RESULT = {"lp.lp_solve": _lp_outcome,
              "stability.solve_perturbed": _newton_outcome}


class Tracer:
    """In-memory span statistics: calls, inclusive and self time per name,
    outcome counts, and the (caller, callee) call-edge counts."""

    def __init__(self):
        self.calls = {name: 0 for name in SPANS}
        self.incl = {name: 0.0 for name in SPANS}
        self.self_time = {name: 0.0 for name in SPANS}
        self.counts = {}
        self.edges = {}
        self._stack = []        # [name, start, child time]
        self._depth = {name: 0 for name in SPANS}

    def wrap(self, name, fn):
        on_result = _ON_RESULT.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0, 0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            frame[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                self._stack.pop()
                self._depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += dur - frame[2]
                if self._depth[name] == 0:
                    self.incl[name] += dur
                if self._stack:
                    self._stack[-1][2] += dur
                edge = (parent, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
            if on_result is not None:
                on_result(self.counts, out)
            return out

        return traced

    def metrics(self):
        """Flat {metric name: value} of every span and outcome count."""
        out = {}
        for name in SPANS:
            out[name + ".calls"] = self.calls[name]
            out[name + ".incl_s"] = self.incl[name]
            out[name + ".self_s"] = self.self_time[name]
        for key in ("lp.lp_solve.optimal", "lp.lp_solve.infeasible",
                    "lp.lp_solve.unbounded",
                    "stability.solve_perturbed.iterations",
                    "stability.solve_perturbed.converged"):
            out[key] = self.counts.get(key, 0)
        return out


def _plqstab_modules():
    return [mod for mname, mod in sorted(sys.modules.items())
            if mod is not None and
            (mname == "plqstab" or mname.startswith("plqstab."))]


def install(tracer: Tracer):
    """Wrap every entry in SPANS; returns the bindings replaced, as
    "<module>.<attribute>" strings, for the result file."""
    importlib.import_module("plqstab")
    bound = []
    for name, (mod_name, path) in SPANS.items():
        module = importlib.import_module("plqstab." + mod_name)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, original))
            bound.append("%s.%s" % (module.__name__, path))
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(name, original)
        for mod in _plqstab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    bound.append("%s.%s" % (mod.__name__, attr))
    return bound


# Spans that must fire at least once on each workload, by the layer the
# workload is meant to exercise; the self-test checks them and a traced
# run lists any that stay silent.
_REPORT = ("report.analyze_problem", "report.render_json",
           "problemfile.parse_problem_doc")
_CRITERIA = ("stability.classify_multiplier", "stability.dqc_holds",
             "stability.error_bound_residuals",
             "varsys.VarSystem.multiplier_set",
             "enlp.EnlpProblem.robust_ic_report",
             "enlp.EnlpProblem.lipschitz_like_skkt",
             "enlp.EnlpProblem.isolated_calmness_skkt",
             "enlp.EnlpProblem.sosc_holds", "enlp.EnlpProblem.sonc_holds",
             "enlp.EnlpProblem.bcq_holds", "enlp.copositive_on_cone")
_POLYHEDRA = ("polyhedra.fm_project", "polyhedra.limiting_normal_cone_union",
              "polyhedra.PolyCone.faces", "polyhedra.PolyCone.generators",
              "polyhedra.Polyhedron.irredundant",
              "polyhedra.Polyhedron.project_point",
              "plq.PlqPenalty.graph_pieces")
_PROBE = ("qp.StrictQpSolver.solve", "qp.qp_solve", "plq.PlqPenalty.prox",
          "plq.PlqPenalty.prox_linearization", "linalg.invert",
          "stability.solve_perturbed", "stability.semi_isolated_probe")
EXPECTED = {
    "corpus-exact": _REPORT + ("lp.lp_solve",) + _CRITERIA,
    "corpus-probe": _REPORT + _PROBE,
    "random-enlp": _REPORT + ("lp.lp_solve",) + _POLYHEDRA + _CRITERIA,
}
