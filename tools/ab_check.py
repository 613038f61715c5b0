#!/usr/bin/env python3
"""A/B timing of two checkouts on the same problem files, interleaved.

    python3 tools/ab_check.py PARENT CHANGE [--probe] [--rounds N] FILE...
    python3 tools/ab_check.py PARENT CHANGE --startup [--probe] FILE...

Starts one long-lived interpreter per checkout, each importing plqstab
from that checkout's src/, and alternates between them one analysis at a
time: in each round every file is analyzed once by each checkout, the
parent first in even rounds and the change first in odd ones.  An
analysis is `plqstab analyze FILE --report json` (with `--probe` when
asked), called in-process by tools/analysis_child.py; only that call is
timed.  Right before and right after it the child times the reference
kernel of bench/hostspeed.py, and the analysis is scaled to the reference
host by NOMINAL_S over the mean of the two, as the benchmark scales its
analyses.  The first WARMUP_ROUNDS rounds fill each child's caches and are
not counted.

With `--startup`, every analysis runs in a fresh interpreter instead,
started from that checkout and timed from its start to its exit, so the
time is what a user waits for one `plqstab analyze`: start-up, imports
and the compile of every source, and the analysis.  The child times the
reference kernel after its analysis (tools/analysis_child.py `--once`),
and the parent takes that time out of the child's and scales the rest by
NOMINAL_S over it, as bench/run.py scales `setup_s`.  Checkouts without
`__pycache__` directories compare as the benchmark's fresh checkouts do.

On a shared host run-to-run spread can hide a gain of a fifth, while two
analyses made a moment apart see nearly the same host.  Per file the
script prints each checkout's median scaled time with its quartiles, the
rounds in which the change was faster ("won"), and whether the two
checkouts printed the same report bytes in every round.  Exit status 0
when every report matched and every analysis exited 0, else 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

from analysis_child import command

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "bench")

# Rounds run first to fill each child's caches, not counted.
WARMUP_ROUNDS = 1


def _hostspeed():
    path = os.path.join(BENCH, "hostspeed.py")
    spec = importlib.util.spec_from_file_location("bench_hostspeed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Child:
    """One interpreter analyzing files with plqstab from `root`.  Each
    result carries "scaled": the analysis in reference-host seconds."""

    def __init__(self, root, nominal):
        argv, env = command(root, BENCH)
        self.nominal = nominal
        self.proc = subprocess.Popen(argv, env=env, cwd=root,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def analyze(self, argv):
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child exited with status %s" % self.proc.wait())
        res = json.loads(line)
        mean = sum(res["kernels"]) / len(res["kernels"])
        res["scaled"] = res["seconds"] * self.nominal / mean
        return res

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


class FreshChild:
    """A fresh interpreter per analysis, with plqstab from `root`; "scaled"
    is the whole process in reference-host seconds."""

    def __init__(self, root, nominal):
        self.root, self.nominal = root, nominal

    def analyze(self, argv):
        cmd, env = command(self.root, BENCH, once=argv)
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=self.root, check=True,
                              stdout=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        res = json.loads(proc.stdout)
        res["scaled"] = (elapsed - res["kernel"]) * self.nominal / res["kernel"]
        return res

    def close(self):
        pass


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout timed first in even rounds")
    ap.add_argument("change", help="checkout timed first in odd rounds")
    ap.add_argument("files", nargs="+", metavar="FILE")
    ap.add_argument("--probe", action="store_true",
                    help="analyze with --probe")
    ap.add_argument("--rounds", type=int, default=10,
                    help="counted rounds (default 10)")
    ap.add_argument("--startup", action="store_true",
                    help="time a fresh interpreter per analysis, start-up "
                         "included")
    args = ap.parse_args(argv)
    nominal = _hostspeed().NOMINAL_S
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    kind = FreshChild if args.startup else Child
    children = [kind(root, nominal) for root in roots]
    times = {f: ([], []) for f in args.files}
    digests = {f: (set(), set()) for f in args.files}
    ok = True
    try:
        for rnd in range(WARMUP_ROUNDS + args.rounds):
            order = (0, 1) if rnd % 2 == 0 else (1, 0)
            for path in args.files:
                cmd = ["analyze", os.path.abspath(path), "--report", "json"]
                cmd += ["--probe"] if args.probe else []
                for side in order:
                    res = children[side].analyze(cmd)
                    ok = ok and res["exit"] == 0
                    digests[path][side].add(res["sha256"])
                    if rnd >= WARMUP_ROUNDS:
                        times[path][side].append(res["scaled"])
    finally:
        for child in children:
            child.close()
    print("%-28s %-28s %-28s %7s  %s" % ("file", "parent median (q1-q3) s",
                                         "change median (q1-q3) s", "won",
                                         "reports"))
    for path in args.files:
        parent, change = times[path]
        same = (len(digests[path][0]) == 1
                and digests[path][0] == digests[path][1])
        ok = ok and same
        won = sum(c < p for p, c in zip(parent, change))
        cells = ["%.4f (%.4f-%.4f)" % (q2, q1, q3)
                 for q1, q2, q3 in (quartiles(parent), quartiles(change))]
        print("%-28s %-28s %-28s %4d/%-2d  %s" % (
            os.path.basename(path), cells[0], cells[1], won, len(parent),
            "same" if same else "DIFFER"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
