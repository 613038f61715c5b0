#!/usr/bin/env python3
"""Scale check: fresh-process analysis times and report digests at m >= 7.

Rebuilds the scale set from the benchmark's ENLP generator
(`bench/workloads.random_enlp_doc`): for each m it draws from
`random.Random("scale/%d/%d" % (m, m))` with N_MAX = M_MAX = P_MAX = m
and keeps the first `--count` documents that have that m, n >= m - 1
and at least m - 1 rows in Y, named `m<m>_<index>`.  Each document is
analyzed by `plqstab analyze --report json` in a fresh interpreter that
imports plqstab from `--root` (tools/analysis_child.py), under a wall cap;
the script prints the analysis time (the `main` call, imports excluded)
and the sha256 of the report bytes.  With `--probe`, each child runs
`plqstab analyze --probe`, so the digests and times cover the float probes
too.  Run from the root of a checkout:

    python3 tools/scale_check.py --m 7 8 --cap 60
    python3 tools/scale_check.py --m 7 --probe
    python3 tools/scale_check.py --root /path/to/other/checkout

Comparing two checkouts' digests shows whether their reports are
byte-identical.  Exit status 0 when every analysis finished under the
cap with exit 0, else 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile

from analysis_child import command

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

def _workloads():
    path = os.path.join(REPO, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scale_docs(m, count):
    """(name, document) for the first `count` scale documents at m."""
    workloads = _workloads()
    workloads.N_MAX = workloads.M_MAX = workloads.P_MAX = m
    rng = random.Random("scale/%d/%d" % (m, m))
    out = []
    while len(out) < count:
        doc = workloads.random_enlp_doc(rng, "draw")
        if doc["m"] == m and doc["n"] >= m - 1 and len(doc["Y"]["b"]) >= m - 1:
            doc["name"] = "m%d_%d" % (m, len(out))
            out.append((doc["name"], doc))
    return out


def analyze_fresh(root, path, cap, flags=()):
    """{"exit", "seconds", "sha256"} of one fresh analysis with the extra
    analyze `flags`, or None past the cap."""
    argv, env = command(root)
    request = json.dumps(["analyze", "--report", "json", path, *flags])
    try:
        done = subprocess.run(argv, input=request + "\n", env=env,
                              capture_output=True, text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        return {"exit": "crash", "seconds": None, "sha256": None}
    return json.loads(done.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=REPO,
                    help="checkout whose src/ is analyzed (default: this one)")
    ap.add_argument("--m", type=int, nargs="+", default=[7, 8])
    ap.add_argument("--count", type=int, default=4)
    ap.add_argument("--cap", type=float, default=60.0,
                    help="wall cap per analysis, in seconds")
    ap.add_argument("--probe", action="store_true",
                    help="run each analysis with --probe")
    args = ap.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for m in args.m:
            for name, doc in scale_docs(m, args.count):
                path = os.path.join(tmp, name + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                res = analyze_fresh(os.path.abspath(args.root), path, args.cap,
                                    ["--probe"] if args.probe else [])
                shape = "n=%d m=%d rows=%d" % (doc["n"], doc["m"],
                                                len(doc["Y"]["b"]))
                if res is None:
                    print("%-6s %-18s over the %g s cap" % (name, shape, args.cap))
                    ok = False
                    continue
                ok = ok and res["exit"] == 0
                seconds = ("%.2f s" % res["seconds"]
                           if res["seconds"] is not None else "-")
                print("%-6s %-18s exit %s %9s  %s" % (name, shape, res["exit"],
                                                      seconds, res["sha256"]),
                      flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
