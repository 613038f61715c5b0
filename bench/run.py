#!/usr/bin/env python3
"""plqstab benchmark: end-to-end analysis metrics and a per-layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus-exact --seed 1 --seconds 20 --trace 0

One process and one closed-loop client: problem files are analyzed one
after another, each as parse_problem_doc -> analyze_problem -> render_json,
which is what `plqstab analyze --report json` does.  A run makes a fixed
number of passes, each over every problem document; the first goes in
generator order and the others in an order shuffled by `--seed`.  Every
pass re-parses its documents, so per-object caches start cold while the
module-level memo tables of `polyhedra` stay warm after the first pass,
as for a library user working through a batch.
A run makes one pass per 10 seconds of `--seconds` (at least two), and
within a pass analyzes each problem a fixed number of times (REPEATS), so
every run of a workload makes the same analyses and a faster program is
measured on the same work, not on more of it.  Every analysis is scaled
to the reference host's speed by the kernel in bench/hostspeed.py, timed
around and inside it, and each problem's time is the median of its
analyses; each set-up interpreter times the kernel itself, right after
its set-up, and is scaled by it.  A traced run makes the same analyses,
and times the kernel only between them.

`--trace 0` prints the end-to-end metrics; `--trace 1` first makes the
same run untraced in a child process, then repeats it with every entry
point in bench/spans.py wrapped, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a fuller record goes to
bench/results/<workload>-seed<seed>-trace<t>.json.

Exit status: 0 when every known-answer check passed, 1 when one failed,
2 when the benchmark could not run (for instance, no program sources).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

sys.path.insert(0, BENCH_DIR)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

# The random-enlp population: the first POOL_SIZE problems of the
# generator's stream for POOL_SEED.  It is fixed so that every run measures
# the same work; --pool-seed analyzes another population.
POOL_SEED, POOL_SIZE = 1, 5

# name -> whether the analyses run the floating-point probes
WORKLOADS = {"corpus-exact": False, "corpus-probe": True, "random-enlp": False}
# One pass per 10 s of --seconds, at least MIN_PASSES.
MIN_PASSES = 2
# Analyses of each problem per pass, back to back: 0.5 to 2 s of analysis
# per problem and pass at the reference commit, so that short analyses get
# several samples, most of all the problems nearest the median.  The counts
# are fixed, not timed, so that a faster program gets the same samples,
# cold and warm, as a slower one.  A problem not listed (another
# --pool-seed) is analyzed once per pass.
REPEATS = {
    "corpus-exact": {"example_3_2a": 8, "example_3_2b": 4, "example_3_3": 3,
                     "example_4_4": 5, "example_6_2": 1},
    "corpus-probe": {"example_3_2a": 5, "example_3_2b": 2, "example_3_3": 1,
                     "example_4_4": 3, "example_6_2": 1},
    "random-enlp": {"enlp_1_000": 2, "enlp_1_001": 2, "enlp_1_002": 1,
                    "enlp_1_003": 5, "enlp_1_004": 1},
}
SETUP_REPEATS = 11
TAIL_PERCENTILE = 90
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_program():
    """Import plqstab from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "plqstab", "__init__.py")):
        raise BenchError("no program sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import plqstab

    if not os.path.abspath(plqstab.__file__).startswith(SRC + os.sep):
        raise BenchError("plqstab was imported from %s" % plqstab.__file__)
    return plqstab


def problem_docs(workload, pool_seed):
    """(name, document) pairs of the workload, in generator order."""
    if workload == "random-enlp":
        return workloads.random_enlp_docs(pool_seed, POOL_SIZE)
    return workloads.corpus_docs(ROOT)


def setup(workload, pool_seed):
    """Import the program, generate the inputs and parse each one."""
    load_program()
    from plqstab.problemfile import parse_problem_doc

    docs = problem_docs(workload, pool_seed)
    for name, doc in docs:
        parse_problem_doc(doc, name_hint=name)
    return docs


def child_command(args, **override):
    opts = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "pool-seed": args.pool_seed}
    opts.update(override)
    cmd = [sys.executable, os.path.abspath(__file__)]
    for key, value in opts.items():
        if value is True:
            cmd.append("--" + key)
        elif value is not False:
            cmd += ["--" + key, str(value)]
    return cmd


def time_setups(args):
    """Intervals (see hostspeed.Interval) of SETUP_REPEATS fresh
    interpreters that each start, import the program, generate the inputs
    and parse them.  Each child then times the kernel itself, and the
    parent takes that time out of the child's; a kernel timed in the
    parent right after a child exits reads the child's wake, not the
    host's speed.  The parent waits with no timeout: a wait with one polls,
    and rounds each time up to the next 50 ms."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(child_command(args, **{"setup-only": True}),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT)
        stdout, err = proc.communicate()
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("set-up child failed: %s" % err.strip())
        kernel = float(stdout)
        out.append(hostspeed.Interval(elapsed - kernel, [kernel]))
    return out


def analyze(name, doc, probe, pass_no, sampler):
    """One analysis as `plqstab analyze --report json` makes it, timed by
    `sampler`, with its known-answer failures."""
    from plqstab.problemfile import parse_problem_doc
    from plqstab.report import analyze_problem, render_json

    def once():
        try:
            pf = parse_problem_doc(doc, name_hint=name)
            report, _ = analyze_problem(pf, probe=probe)
            render_json(report)
            return report, None
        except Exception:  # every failure is counted, none stops the run
            return None, traceback.format_exc(limit=4)

    (report, error), interval = sampler.time(once)
    rec = {"name": name, "pass": pass_no, "seconds": interval.seconds,
           "scaled_seconds": interval.scaled,
           "kernel_seconds": interval.kernel_mean,
           "kernel_samples": len(interval.kernels)}
    if error is not None:
        rec["failures"] = [error]
        return rec
    rec["failures"] = workloads.check_report(name, report, probe)
    rec["verdicts"] = workloads.verdict_vector(report)
    if probe:
        rec["probe_solves"] = workloads.probe_solves(report)
    return rec


def analyze_passes(docs, probe, passes, seed, workload, sampler):
    """`passes` passes over the documents, each problem analyzed
    REPEATS times per pass.  The first pass, which fills the memo tables,
    goes in generator order so that each problem bears the same share of
    that cost whatever the seed; the later passes go in a seeded order."""
    rng = random.Random("%s/%d" % (workload, seed))
    repeats = REPEATS[workload]
    records = []
    for pass_no in range(passes):
        order = list(docs)
        if pass_no:
            rng.shuffle(order)
        for name, doc in order:
            for _ in range(repeats.get(name, 1)):
                records.append(analyze(name, doc, probe, pass_no, sampler))
    return records


def nearest_rank(values, percentile):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def summarize(records, key="scaled_seconds"):
    """End-to-end figures of the analyses (setup and memory aside).  Each
    problem's time is the median of its analyses."""
    by_name = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r[key])
    times = sorted(statistics.median(v) for v in by_name.values())
    completed = sum(1 for r in records if "verdicts" in r)
    verdicts = {}
    for r in records:
        if "verdicts" in r:
            verdicts.setdefault(r["name"], r["verdicts"])
    digest = hashlib.sha256(json.dumps(
        sorted(verdicts.items())).encode()).hexdigest()
    tail = nearest_rank(times, TAIL_PERCENTILE)
    out = {
        "analyses_per_s": completed / len(records) * len(times) / sum(times),
        "analysis_p50_s": statistics.median(times),
        "analysis_tail_s": tail,
        "tail_percentile": TAIL_PERCENTILE,
        "samples": len(records),
        "problems_beyond_tail": sum(1 for t in times if t > tail),
        "verdict_digest": digest,
    }
    solves = [r["probe_solves"] for r in records if "probe_solves" in r]
    if solves:
        conv, att = map(sum, zip(*solves))
        out["probe_solves_converged"] = conv
        out["probe_solves_attempted"] = att
        out["probe_converged_ratio"] = conv / att
    return out


def git_revision():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(args):
    from plqstab.rational import Rat

    return {
        "rat_backend": "%s.%s" % (Rat.__module__, Rat.__name__),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "pool_seed": args.pool_seed if args.workload == "random-enlp" else None,
        "git_revision": git_revision(),
    }


def untraced_baseline(args):
    """The same run without tracing, in a fresh interpreter."""
    proc = subprocess.run(child_command(args, trace=0), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("untraced child failed: %s" % proc.stderr.strip())
    return json.loads(lines[-1])


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def run(args):
    load_program()
    probe = WORKLOADS[args.workload]
    passes = max(MIN_PASSES, args.seconds // 10)
    result = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "passes": passes}
    if args.trace:
        baseline = untraced_baseline(args)
    else:
        setups = time_setups(args)
        result["setup_samples_s"] = [iv.scaled for iv in setups]
        result["setup_unscaled_s"] = [iv.seconds for iv in setups]

    docs = setup(args.workload, args.pool_seed)
    result["environment"] = environment(args)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        result["bindings"] = spans.install(tracer)
    # A traced run times the kernel only between analyses, so that no
    # handler runs inside a span.
    sampler = hostspeed.Sampler(inside=not args.trace)
    records = analyze_passes(docs, probe, passes, args.seed, args.workload,
                             sampler)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = summarize(records)
    result.update(summary)
    result["unscaled"] = {k: v for k, v in summarize(records, "seconds").items()
                          if k.startswith("analys")}
    result["analyses"] = records
    result["attempted"] = len(records)
    result["failed"] = sum(1 for r in records if r["failures"])
    result["failed_ratio"] = result["failed"] / result["attempted"]

    if tracer is None:
        metrics = {
            "analyses_per_s": (summary["analyses_per_s"], "1/s"),
            "analysis_p50_s": (summary["analysis_p50_s"], "s"),
            "analysis_tail_s": (summary["analysis_tail_s"], "s"),
            "setup_s": (statistics.median(result["setup_samples_s"]), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    else:
        layer = tracer.metrics()
        result["per_layer_all"] = layer
        result["call_edges"] = sorted(
            [p or "-", c, n] for (p, c), n in tracer.edges.items())
        result["unfired_spans"] = [
            name for name in spans.EXPECTED[args.workload]
            if layer[name + ".calls"] == 0]
        if probe:
            result["newton_counts_agree"] = (
                layer["stability.solve_perturbed.converged"],
                layer["stability.solve_perturbed.calls"]) == (
                summary["probe_solves_converged"],
                summary["probe_solves_attempted"])
        result["untraced_analyses_per_s"] = \
            baseline["metrics"]["analyses_per_s"]["value"]
        result["tracing_overhead_analyses_per_s"] = (
            result["untraced_analyses_per_s"] - summary["analyses_per_s"])
        metrics = {name: (layer[name], "count" if not name.endswith("_s")
                          else "s") for name in per_layer_names()}
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    return result


def write_result(result):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (
        result["workload"], result["environment"]["seed"], result["trace"]))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool-seed", type=int, default=POOL_SEED,
                    help="generator seed of the random-enlp population")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    try:
        if args.setup_only:
            setup(args.workload, args.pool_seed)
            print(hostspeed.kernel_seconds())
            return 0
        result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError,
            ImportError) as e:
        print("benchmark cannot run: %s" % e, file=sys.stderr)
        return 2
    path = write_result(result)

    for rec in result["analyses"]:
        for msg in rec["failures"]:
            print("KNOWN-ANSWER FAILURE [%s pass %s]: %s"
                  % (rec["name"], rec["pass"], msg), file=sys.stderr)
    print("workload %s seed %d: %d passes, %d analyses, %d failed"
          % (args.workload, args.seed, result["passes"], result["attempted"],
             result["failed"]))
    print("verdict digest: %s" % result["verdict_digest"])
    if "probe_converged_ratio" in result:
        print("probe_converged_ratio: %d/%d" % (
            result["probe_solves_converged"], result["probe_solves_attempted"]))
    if args.trace:
        print("tracing overhead: %.4f analyses/s (untraced %.4f, traced %.4f)"
              % (result["tracing_overhead_analyses_per_s"],
                 result["untraced_analyses_per_s"],
                 result["analyses_per_s"]))
        if result["unfired_spans"]:
            print("spans that never fired: %s"
                  % ", ".join(result["unfired_spans"]), file=sys.stderr)
    for name, m in result["metrics"].items():
        print("%s: %r %s" % (name, m["value"], m["unit"]))
    print("result file: %s" % os.path.relpath(path, ROOT))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
