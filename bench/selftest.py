#!/usr/bin/env python3
"""Self-test of the benchmark itself, run from the root of a checkout:

    python3 bench/selftest.py [--workload corpus-exact] [--seed 3]

Checks that
  * two generator calls with the same seed give identical problem
    documents, and every generated document parses;
  * every wrapped entry point is rebound in every plqstab module that
    held it by name, and every per-layer metric in BENCHMARK.json is
    produced by the tracer;
  * two traced runs with the same seed give identical call counts and
    LP outcome counts, every span expected on the workload fired, and on
    corpus-probe the probe records agree with the NewtonResult counts.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check_generator():
    run.load_program()
    from plqstab.problemfile import parse_problem_doc

    bad = []
    for seed in (1, 7):
        first = json.dumps(workloads.random_enlp_docs(seed, 12))
        if first != json.dumps(workloads.random_enlp_docs(seed, 12)):
            bad.append("seed %d: two calls gave different documents" % seed)
        for name, doc in workloads.random_enlp_docs(seed, 12):
            parse_problem_doc(doc, name_hint=name)
    return bad


def check_bindings():
    """Rebinding leaves no plqstab namespace holding an unwrapped entry."""
    run.load_program()
    tracer = spans.Tracer()
    spans.install(tracer)
    wrapped = {}
    for mod in spans._plqstab_modules():
        for value in vars(mod).values():
            inner = getattr(value, "__wrapped__", None)
            if inner is not None:
                wrapped[id(inner)] = value
    bad = []
    for mod in spans._plqstab_modules():
        for attr, value in vars(mod).items():
            if callable(value) and id(value) in wrapped:
                bad.append("%s.%s still holds the unwrapped entry"
                           % (mod.__name__, attr))
    produced = tracer.metrics()
    for name in run.per_layer_names():
        if name not in produced:
            bad.append("per-layer metric %s is not produced" % name)
    return bad


def traced_run(workload, seed):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=run.CHILD_TIMEOUT_S * 2)
    if proc.returncode != 0:
        raise RuntimeError("traced run failed: %s" % proc.stderr.strip())
    path = os.path.join(run.RESULTS_DIR, "%s-seed%d-trace1.json"
                        % (workload, seed))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_trace_repeats(workload, seed):
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    bad = []
    counts = [k for k in first["per_layer_all"]
              if not k.endswith(("incl_s", "self_s"))]
    for key in counts:
        if first["per_layer_all"][key] != second["per_layer_all"][key]:
            bad.append("%s: %r then %r" % (key, first["per_layer_all"][key],
                                           second["per_layer_all"][key]))
    for name in first["unfired_spans"]:
        bad.append("span %s never fired on %s" % (name, workload))
    if first.get("newton_counts_agree") is False:
        bad.append("probe records disagree with the NewtonResult counts")
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="corpus-exact",
                    choices=sorted(run.WORKLOADS))
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)
    checks = [
        ("generator is deterministic", check_generator),
        ("entry points rebound everywhere", check_bindings),
        ("traced counts repeat on %s" % args.workload,
         lambda: check_trace_repeats(args.workload, args.seed)),
    ]
    ok = True
    for title, fn in checks:
        bad = fn()
        print("%s %s" % ("PASS" if not bad else "FAIL", title))
        for line in bad:
            print("    " + line)
        ok = ok and not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
