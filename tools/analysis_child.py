#!/usr/bin/env python3
"""A child interpreter that times and digests one analysis per input line.

    python3 tools/analysis_child.py ROOT [BENCH]

Imports plqstab from ROOT/src, and exits if it came from anywhere else.
Then, for each line of stdin, a JSON list of `plqstab` arguments, it calls
`plqstab.cli.main` in-process with stdout and stderr captured and prints
one JSON line: "exit", the status; "seconds", the time of the `main` call
alone; "sha256", the digest of the report bytes it printed.  With BENCH,
the directory of the benchmark's hostspeed.py, each line also has
"kernels": the seconds of that reference kernel timed right before and
right after the call.

`tools/scale_check.py` starts one per analysis, `tools/ab_check.py` one per
checkout for a whole run; both take the command from `command`.
"""

from __future__ import annotations

import os
import sys


def command(root, bench=None):
    """(argv, environment) of a child analyzing with plqstab from the
    checkout `root`, with bytecode writes off as in the benchmark."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, os.path.abspath(__file__), root]
    return argv + ([bench] if bench else []), env


def serve(root, bench=None):
    import contextlib
    import hashlib
    import io
    import json
    import time

    kernel = None
    if bench:
        sys.path.insert(0, bench)
        import hostspeed
        kernel = hostspeed.kernel_seconds
    import plqstab
    from plqstab.cli import main

    if not os.path.abspath(plqstab.__file__).startswith(
            os.path.join(root, "src") + os.sep):
        sys.exit("plqstab was imported from %s" % plqstab.__file__)
    for line in sys.stdin:
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        before = kernel() if kernel else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        res = {"exit": code, "seconds": time.perf_counter() - start,
               "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
        if kernel:
            res["kernels"] = [before, kernel()]
        print(json.dumps(res), flush=True)


if __name__ == "__main__":
    serve(*[os.path.abspath(a) for a in sys.argv[1:3]])
