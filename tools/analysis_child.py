#!/usr/bin/env python3
"""A child interpreter that times and digests plqstab analyses.

    python3 tools/analysis_child.py ROOT [BENCH]
    python3 tools/analysis_child.py --once ROOT BENCH ARG...

Imports plqstab from ROOT/src, and exits if it came from anywhere else.
Then, for each line of stdin, a JSON list of `plqstab` arguments, it calls
`plqstab.cli.main` in-process with stdout and stderr captured and prints
one JSON line: "exit", the status; "seconds", the time of the `main` call
alone; "sha256", the digest of the report bytes it printed.  With BENCH,
the directory of the benchmark's hostspeed.py, each line also has
"kernels": the seconds of that reference kernel timed right before and
right after the call.

With `--once`, the child makes the one analysis of its arguments ARG...
and exits, so that whoever started it can time the whole process, start-up
included.  It prints one JSON line with "exit", "sha256" and "kernel":
the seconds of the reference kernel, timed after the analysis, as each
set-up child of bench/run.py times it after its set-up.

`tools/scale_check.py` starts one per analysis, `tools/ab_check.py` one per
checkout for a whole run, or one per analysis with `--startup`; both take
the command from `command`.
"""

from __future__ import annotations

import os
import sys


def command(root, bench=None, once=None):
    """(argv, environment) of a child analyzing with plqstab from the
    checkout `root`, with bytecode writes off as in the benchmark.  With
    `once`, a list of `plqstab` arguments, the child makes that one
    analysis and exits; it needs `bench`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, os.path.abspath(__file__)]
    if once is not None:
        return argv + ["--once", root, bench] + list(once), env
    return argv + [root] + ([bench] if bench else []), env


def _main_from(root):
    """`plqstab.cli.main`, imported from the checkout `root`."""
    import plqstab
    from plqstab.cli import main

    if not os.path.abspath(plqstab.__file__).startswith(
            os.path.join(root, "src") + os.sep):
        sys.exit("plqstab was imported from %s" % plqstab.__file__)
    return main


def _analyze(main, argv):
    """(exit status, seconds of the call, sha256 of the printed report) of
    `main(argv)`, with stdout and stderr captured."""
    import contextlib
    import hashlib
    import io
    import time

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _kernel(bench):
    sys.path.insert(0, bench)
    import hostspeed

    return hostspeed.kernel_seconds


def serve(root, bench=None):
    import json

    kernel = _kernel(bench) if bench else None
    main = _main_from(root)
    for line in sys.stdin:
        argv = json.loads(line)
        before = kernel() if kernel else None
        code, seconds, digest = _analyze(main, argv)
        res = {"exit": code, "seconds": seconds, "sha256": digest}
        if kernel:
            res["kernels"] = [before, kernel()]
        print(json.dumps(res), flush=True)


def once(root, bench, argv):
    import json

    code, _, digest = _analyze(_main_from(root), argv)
    print(json.dumps({"exit": code, "sha256": digest,
                      "kernel": _kernel(bench)()}), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "--once":
        once(os.path.abspath(sys.argv[2]), os.path.abspath(sys.argv[3]),
             sys.argv[4:])
    else:
        serve(*[os.path.abspath(a) for a in sys.argv[1:3]])
