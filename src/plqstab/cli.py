"""Command-line driver.

    plqstab analyze <file> [--report json|text] [--probe]
                    [--probe-grid K] [--tol T] [--probe-csv PATH]

Exit codes: 0 analyzed, 1 input error, 2 internal consistency assertion
failed (a theorem-level equivalence was violated; always a bug).
"""

from __future__ import annotations

import argparse
import math
import sys

from .exprparse import ParseError
from .problemfile import ProblemFileError, parse_problem_file
from .report import InternalConsistencyError, analyze_problem, render_json, \
    render_text

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="plqstab",
        description="Exact criticality and stability analysis of variational "
                    "and KKT systems with piecewise linear-quadratic penalties.")
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="analyze a problem file")
    an.add_argument("file", help="problem JSON file")
    an.add_argument("--report", choices=("text", "json"), default="text",
                    help="output rendering (default: text)")
    an.add_argument("--probe", action="store_true",
                    help="run the floating-point probes (opt-in)")
    an.add_argument("--probe-grid", type=int, default=None, metavar="K",
                    help="number of perturbed solves per point")
    an.add_argument("--tol", type=float, default=None, metavar="T",
                    help="Newton stopping tolerance for probes")
    an.add_argument("--probe-csv", default=None, metavar="PATH",
                    help="write critical-ray probe traces as CSV files "
                         "PATH.point<i>.csv (needs --probe)")
    return parser


def _flag_error(args):
    """Why an analysis flag is out of range, or None."""
    if args.probe_grid is not None and args.probe_grid < 1:
        return "--probe-grid must be a positive integer"
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        return "--tol must be a positive finite number"
    if args.probe_csv is not None and not args.probe:
        return "--probe-csv needs --probe"
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    bad_flag = _flag_error(args)
    if bad_flag:
        print("input error: %s" % bad_flag, file=sys.stderr)
        return 1
    try:
        pf = parse_problem_file(args.file)
        doc, csvs = analyze_problem(pf, probe=args.probe,
                                    probe_grid=args.probe_grid, tol=args.tol)
    except (ProblemFileError, ParseError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return 1
    except InternalConsistencyError as e:
        print("internal consistency failure: %s" % e, file=sys.stderr)
        return 2
    if args.probe_csv:
        for idx, text in csvs:
            path = "%s.point%d.csv" % (args.probe_csv, idx)
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as e:
                print("input error: cannot write %s (%s)"
                      % (path, e.strerror or e), file=sys.stderr)
                return 1
    if args.report == "json":
        sys.stdout.write(render_json(doc))
    else:
        sys.stdout.write(render_text(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
