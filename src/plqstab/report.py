"""Analysis driver and report rendering.

`analyze_problem` runs, per declared point and on one point context
(`stability.PointContext`): the exact solution / KKT check, the
multiplier-set description, the criticality verdict with its
witness, the uniqueness report, a deterministic error-bound residual
table, the (ENLP-only) stability report, and the opt-in floating-point
probes.  The resulting document is pure data; `render_json` and
`render_text` are two renderings of the same facts and are
byte-deterministic for identical input and flags.  The float probes
(`probe`) are imported by an analysis with `probe` set, and by no other.

The theorem-level checks live with the verdicts they check, not here:
`stability.uniqueness_report` (a singleton multiplier set iff dual
qualification), the criticality witness check of
`stability.PointContext.criticality`, and `EnlpProblem.robust_ic_report`
(SOSC against criticality and against SONC, Lipschitz-likeness against
isolated calmness).  A violation raises InternalConsistencyError, which
the CLI maps to exit code 2.
"""

from __future__ import annotations

import math
from collections import Counter
from json.encoder import encode_basestring_ascii as _json_str

from .errors import InternalConsistencyError
from .problemfile import ProblemFile
from .rational import format_rat, rat
from .stability import (classify_multiplier, error_bound_residuals,
                        uniqueness_report)

__all__ = ["analyze_problem", "render_json", "render_text",
           "InternalConsistencyError"]


def _fmt_vec(v):
    return [format_rat(x) for x in v]


def _fmt_float(x):
    if math.isinf(x):
        return "inf"
    if math.isnan(x):
        return "nan"
    return float(x)


def _residual_table(system, xbar, lam_bar, n, m):
    """The error-bound rows at the exact anchor (xbar, lam_bar), tuples of
    Rat: each offsets one coordinate by 1/10, then each by 1/100."""
    rows = []
    for scale in (rat(1, 10), rat(1, 100)):
        offset = format_rat(scale)
        for j in range(n + m):
            x, lam = xbar, lam_bar
            if j < n:
                x = xbar[:j] + (xbar[j] + scale,) + xbar[j + 1:]
            else:
                k = j - n
                lam = lam_bar[:k] + (lam_bar[k] + scale,) + lam_bar[k + 1:]
            lhs, r3, r4 = error_bound_residuals(system, xbar, lam_bar, x, lam)
            delta = ["0"] * (n + m)
            delta[j] = offset
            rows.append({
                "dx": delta[:n],
                "dlambda": delta[n:],
                "lhs": _fmt_float(lhs),
                "rhs_inverse_subdiff": _fmt_float(r3),
                "rhs_prox": _fmt_float(r4),
            })
    return rows


def _trace_doc(trace):
    docs = []
    for r in trace:
        doc = {
            "t": r.t,
            "p1": list(r.p1), "p2": list(r.p2),
            "x": list(r.x), "lambda": list(r.lam),
            "lhs": _fmt_float(r.lhs), "rhs": _fmt_float(r.rhs),
            "ratio": _fmt_float(r.ratio),
        }
        if r.newton is not None:
            doc["newton"] = r.newton
        docs.append(doc)
    return docs


def _analyze_point(pf: ProblemFile, x, lam, probe, probe_grid, tol):
    is_enlp = pf.kind == "enlp"
    system = pf.problem

    doc = {"x": _fmt_vec(x), "lambda": _fmt_vec(lam)}
    ctx = system.point(x, lam)
    x, lam, solves = ctx.x, ctx.lam, ctx.solves
    doc["is_solution"] = solves
    if is_enlp:
        kkt_ok, kkt_res = system.kkt_check(x, lam)
        doc["kkt"] = {"holds": kkt_ok, "residual": _fmt_float(kkt_res)}

    mset = system.multiplier_set(x)
    doc["multipliers"] = {
        "empty": mset.empty,
        "singleton": mset.singleton,
        "dimension": mset.dimension,
        "representative": None if mset.representative is None
        else _fmt_vec(mset.representative),
        "h_rep": mset.poly.to_doc(),
    }
    doc["is_stationary"] = not mset.empty

    if not solves:
        doc["note"] = ("point is not an exact solution; criticality and "
                       "stability sections are omitted")
        return doc, None

    verdict = classify_multiplier(system, x, lam)
    doc["criticality"] = {
        "verdict": "critical" if verdict.critical else "noncritical",
        "witness": None if not verdict.critical else {
            "xi": _fmt_vec(verdict.xi),
            "eta": _fmt_vec(verdict.eta),
            "face_tight_rows": sorted(verdict.face_tight),
        },
        "faces_examined": verdict.face_count,
    }

    uniq = uniqueness_report(system, x, lam)
    doc["uniqueness"] = {"singleton": uniq.singleton, "dqc": uniq.dqc,
                         "consistent": uniq.consistent}

    doc["error_bound_samples"] = _residual_table(system, x, lam, pf.n, pf.m)

    if is_enlp:
        report = system.robust_ic_report(x, lam)
        doc["stability"] = report.to_doc()

    if probe:
        from .probe import (critical_ray_probe, semi_isolated_probe,
                            trace_is_divergent)

        probes = {}
        trace, modulus = semi_isolated_probe(system, x, lam, grid=probe_grid,
                                             tol=tol)
        probes["semi_isolated"] = {
            "records": _trace_doc(trace),
            "modulus": _fmt_float(modulus),
        }
        ray_csv = None
        if verdict.critical:
            ray = critical_ray_probe(system, x, lam, verdict)
            probes["critical_ray"] = {
                "records": _trace_doc(ray),
                "divergent": trace_is_divergent(ray),
            }
            ray_csv = ray.to_csv()
        doc["probes"] = probes
        return doc, ray_csv
    return doc, None


def analyze_problem(pf: ProblemFile, probe=False, probe_grid=None, tol=None):
    """Analysis document for a parsed problem file.

    Returns (document, list of (point index, ray-probe CSV text)).  With
    `probe`, data the float probes cannot evaluate raises
    ProblemFileError before any point is analyzed.
    """
    if probe:
        pf.require_float_data()
    grid = probe_grid if probe_grid is not None else pf.probe_grid
    tolerance = tol if tol is not None else pf.probe_tol
    doc = {
        "problem": {"name": pf.name, "kind": pf.kind, "n": pf.n, "m": pf.m},
        "flags": {"probe": bool(probe), "probe_grid": int(grid),
                  "tol": float(tolerance)},
        "points": [],
        "verdicts": [],
        "witnesses": [],
    }
    csvs = []
    for idx, (x, lam) in enumerate(pf.points):
        pdoc, ray_csv = _analyze_point(pf, x, lam, probe, grid, tolerance)
        pdoc["index"] = idx
        doc["points"].append(pdoc)
        crit = pdoc.get("criticality")
        doc["verdicts"].append(crit["verdict"] if crit else "not-a-solution")
        doc["witnesses"].append(crit["witness"] if crit else None)
        if ray_csv is not None:
            csvs.append((idx, ray_csv))
    return doc, csvs


def render_json(doc) -> str:
    """`doc` as JSON text: the bytes of json.dumps(doc, sort_keys=True,
    indent=2, allow_nan=False) plus a newline, from a direct writer.

    json.dumps with an indent runs the pure-Python encoder; this writer
    covers the value types a report holds and writes each as that encoder
    does: strings through `json.encoder.encode_basestring_ascii`, ints and
    floats by `int.__repr__` and `float.__repr__`, null, true and false,
    lists and tuples as arrays, dicts as objects with sorted keys, two
    spaces of indent per level, and "[]" and "{}" when empty.  A nan or
    infinite float raises ValueError, as json.dumps does here.  A key that
    is not a str, or a value of another type (a subclass of these types
    included), raises TypeError: a report holds none.
    """
    return _json(doc, "\n") + "\n"


def _json(value, newline):
    """The JSON text of `value` at the nesting whose line break and indent
    is `newline`."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON "
                             "compliant: %r" % value)
        return float.__repr__(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join([_json(v, inner)
                                                  for v in value])
                + newline + "]")
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError("keys must be str, not %s"
                                % type(key).__name__)
            items.append(_json_str(key) + ": " + _json(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    raise TypeError("Object of type %s is not JSON serializable"
                    % kind.__name__)


def _vec_str(values):
    return "(" + ", ".join(values) + ")"


def render_text(doc) -> str:
    out = []
    p = doc["problem"]
    out.append("problem %s  [%s, n=%d, m=%d]" % (p["name"], p["kind"],
                                                 p["n"], p["m"]))
    for pt in doc["points"]:
        out.append("")
        out.append("point #%d  x=%s  lambda=%s" % (
            pt["index"], _vec_str(pt["x"]), _vec_str(pt["lambda"])))
        out.append("  solves system exactly: %s" % pt["is_solution"])
        if "kkt" in pt:
            out.append("  KKT: holds=%s residual=%s" % (
                pt["kkt"]["holds"], pt["kkt"]["residual"]))
        ms = pt["multipliers"]
        out.append("  multiplier set: empty=%s singleton=%s dim=%d rep=%s" % (
            ms["empty"], ms["singleton"], ms["dimension"],
            "-" if ms["representative"] is None else _vec_str(ms["representative"])))
        if "criticality" in pt:
            c = pt["criticality"]
            line = "  criticality: %s" % c["verdict"]
            if c["witness"]:
                line += "  witness xi=%s eta=%s" % (
                    _vec_str(c["witness"]["xi"]), _vec_str(c["witness"]["eta"]))
            out.append(line)
            u = pt["uniqueness"]
            out.append("  uniqueness: singleton=%s dqc=%s consistent=%s" % (
                u["singleton"], u["dqc"], u["consistent"]))
            out.append("  error-bound samples (offset |lhs| rhs_inv rhs_prox):")
            for row in pt["error_bound_samples"]:
                out.append("    dx=%s dl=%s  lhs=%s rhs_iii=%s rhs_iv=%s" % (
                    _vec_str(row["dx"]), _vec_str(row["dlambda"]), row["lhs"],
                    row["rhs_inverse_subdiff"], row["rhs_prox"]))
        if "stability" in pt:
            s = pt["stability"]
            out.append("  stability: bcq=%s sosc=%s sonc=%s unique=%s "
                       "noncritical=%s" % (s["bcq"], s["sosc"], s["sonc"],
                                           s["unique"], s["noncritical"]))
            out.append("             isolated_calm=%s lipschitz_like=%s "
                       "robust_ic=%s" % (s["isolated_calm_skkt"],
                                         s["lipschitz_like_skkt"],
                                         s["robust_ic"]))
            for note in s["consistency_notes"]:
                out.append("             note: %s" % note)
        if "probes" in pt:
            pr = pt["probes"]
            si = pr["semi_isolated"]
            ended = Counter(r["newton"] for r in si["records"])
            out.append("  probe (semi-isolated): modulus=%s over %d solves (%s)"
                       % (si["modulus"], len(si["records"]),
                          ", ".join("%s %d" % kv
                                    for kv in sorted(ended.items()))))
            if "critical_ray" in pr:
                cr = pr["critical_ray"]
                ratios = ", ".join(str(r["ratio"]) for r in cr["records"][-5:])
                out.append("  probe (critical ray): divergent=%s last ratios [%s]"
                           % (cr["divergent"], ratios))
        if "note" in pt:
            out.append("  note: %s" % pt["note"])
    out.append("")
    return "\n".join(out)
