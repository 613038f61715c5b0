"""Problem-file schema: parsing and validation.

A problem file is a UTF-8 JSON document:

    {
      "name": "...",
      "kind": "enlp" | "varsys",
      "n": 2, "m": 2,
      "phi0": "x1^2 + x2^2",            # enlp only
      "f": ["x1", "x2"],                # varsys only, n expressions
      "Phi": ["x1", "0"],               # m expressions
      "Y": {"b": [["-1","0"],["0","-1"]], "alpha": ["0","0"]},
      "B": [["1","0"],["0","1"]],
      "points": [{"x": ["0","0"], "lambda": ["0","0"]}],
      "probe": {"grid": 8, "tol": 1e-10}   # optional defaults for --probe
    }

All numerals are exact rationals: JSON integers, or strings holding an
optional sign and ASCII digits as an integer, "p/q" or a plain decimal.
Validation failures raise ProblemFileError with the offending path.
"""

from __future__ import annotations

import json
import math
import sys

from .enlp import EnlpProblem
from .exprparse import ParseError, parse_expression
from .linalg import RatMatrix
from .plq import NotPsdError, PlqPenalty
from .polyhedra import Polyhedron
from .polymap import PolyMap
from .rational import parse_rat, to_float
from .record import Record
from .varsys import VarSystem

__all__ = ["MAX_DIMENSION", "MAX_PROBE_GRID", "ProblemFile",
           "ProblemFileError", "parse_problem_file", "parse_problem_doc"]

# The largest n and m a file may declare, refused before anything is built.
MAX_DIMENSION = 1000

# The largest probe grid.  Solve k of the semi-isolated probe perturbs by
# t = 10^-3 / 2^(k-1), which is 0.0 from k = 1067 on, so a larger grid
# only repeats unperturbed solves (and a grid of 10^7 runs for hours).
MAX_PROBE_GRID = 1066


class ProblemFileError(ValueError):
    def __init__(self, path, message):
        super().__init__("%s: %s" % (path, message))
        self.path = path


class ProblemFile(Record):
    """A parsed problem file.  `problem` is a VarSystem (an EnlpProblem
    for an enlp file), `points` the list of (x tuple, lambda tuple), and
    `y_input` the (rows, alpha) of Y as written, kept because Polyhedron
    scales rows to integers and drops duplicates."""

    __slots__ = ("name", "kind", "n", "m", "problem", "points", "probe_grid",
                 "probe_tol", "y_input")

    def require_float_data(self):
        """Raise ProblemFileError naming the first datum the float probes
        cannot evaluate: an entry of Y, B or a point past float range, or
        a polynomial whose coefficients, or those of the derivatives they
        read, lie past it."""
        rows, alpha = self.y_input
        data = [("$.Y.b", rows), ("$.Y.alpha", alpha),
                ("$.B", self.problem.penalty.B.rows)]
        for k, (x, lam) in enumerate(self.points):
            data += [("$.points[%d].x" % k, x), ("$.points[%d].lambda" % k, lam)]
        for path, values in data:
            for name, value in _entries(path, values):
                if not math.isfinite(to_float(value)):
                    raise ProblemFileError(
                        name, "beyond float range; --probe evaluates it in float")
        problem = self.problem
        f_names = (["$.phi0"] * self.n if self.kind == "enlp" else
                   ["$.f[%d]" % i for i in range(self.n)])
        named = [(name, problem.f, i, 1) for i, name in enumerate(f_names)]
        named += [("$.Phi[%d]" % i, problem.phi, i, 2) for i in range(self.m)]
        for name, pmap, i, order in named:
            if not pmap.fits_float(i, order):
                raise ProblemFileError(
                    name, "coefficients beyond float range (in it or its "
                          "derivatives); --probe evaluates them in float")


def _entries(path, values):
    """(path, entry) for each entry of a nested sequence of rationals."""
    for i, v in enumerate(values):
        if isinstance(v, (list, tuple)):
            yield from _entries("%s[%d]" % (path, i), v)
        else:
            yield "%s[%d]" % (path, i), v


# The JSON type that each Python type `_expect` is asked for reads as.
_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string",
                    int: "an integer"}


def _expect(doc, key, type_, path):
    if key not in doc:
        raise ProblemFileError("%s.%s" % (path, key), "missing field")
    v = doc[key]
    # JSON true/false are Python bools, and bool is a subclass of int
    if not isinstance(v, type_) or isinstance(v, bool):
        raise ProblemFileError("%s.%s" % (path, key),
                               "expected %s" % _JSON_TYPE_NAMES[type_])
    return v


# The longest text of a bad value, or of the reason it is bad, that an
# error message quotes; longer text is cut and ends in "...".
_QUOTE_CHARS = 60


def _clip(text):
    if len(text) <= _QUOTE_CHARS:
        return text
    return text[:_QUOTE_CHARS - 3] + "..."


def _rat_at(value, path):
    # an array or object is refused unread: its str() and repr() grow with
    # its size and recurse with its depth; JSON true/false are Python bools,
    # which `parse_rat` would read as the integers 1 and 0
    if isinstance(value, (list, dict, bool)):
        kind = ("array" if isinstance(value, list) else
                "object" if isinstance(value, dict) else "boolean")
        raise ProblemFileError(path, "bad rational: expected an integer or a "
                               "string, not a JSON %s" % kind)
    try:
        return parse_rat(value)
    except (ValueError, TypeError) as e:
        raise ProblemFileError(path, "bad rational %s (%s)"
                               % (_clip(repr(value)), _clip(str(e))))


def _rat_vector(values, length, path):
    if not isinstance(values, list) or len(values) != length:
        raise ProblemFileError(path, "expected a list of %d rationals" % length)
    return tuple(_rat_at(v, "%s[%d]" % (path, i)) for i, v in enumerate(values))


def _rat_matrix(values, nrows, ncols, path):
    if not isinstance(values, list) or len(values) != nrows:
        raise ProblemFileError(path, "expected %d rows" % nrows)
    return RatMatrix([_rat_vector(r, ncols, "%s[%d]" % (path, i))
                      for i, r in enumerate(values)])


def _expression(text, n, path):
    if not isinstance(text, str):
        raise ProblemFileError(path, "expected an expression string")
    try:
        return parse_expression(text, n)
    except ParseError as e:
        raise ProblemFileError(path, str(e))


def parse_problem_doc(doc, name_hint="problem") -> ProblemFile:
    if not isinstance(doc, dict):
        raise ProblemFileError("$", "top level must be an object")
    name = _expect(doc, "name", str, "$") if "name" in doc else name_hint
    kind = _expect(doc, "kind", str, "$")
    if kind not in ("enlp", "varsys"):
        raise ProblemFileError("$.kind", "must be 'enlp' or 'varsys'")
    n = _expect(doc, "n", int, "$")
    m = _expect(doc, "m", int, "$")
    for key, value in (("n", n), ("m", m)):
        if not 1 <= value <= MAX_DIMENSION:
            raise ProblemFileError("$." + key,
                                   "dimensions must be in 1..%d" % MAX_DIMENSION)

    ydoc = _expect(doc, "Y", dict, "$")
    brows = _expect(ydoc, "b", list, "$.Y")
    alpha = _expect(ydoc, "alpha", list, "$.Y")
    if len(brows) != len(alpha):
        raise ProblemFileError("$.Y", "b and alpha lengths differ")
    yrows = [_rat_vector(r, m, "$.Y.b[%d]" % i) for i, r in enumerate(brows)]
    yalpha = [_rat_at(a, "$.Y.alpha[%d]" % i) for i, a in enumerate(alpha)]
    ypoly = Polyhedron(yrows, yalpha, m)

    bmat = _rat_matrix(_expect(doc, "B", list, "$"), m, m, "$.B")
    if not bmat.is_symmetric():
        raise ProblemFileError("$.B", "matrix is not symmetric")
    try:
        penalty = PlqPenalty(ypoly, bmat)  # checks B first, then Y
    except NotPsdError:
        raise ProblemFileError("$.B", "matrix is not positive semidefinite")
    except ValueError as e:
        raise ProblemFileError("$.Y", str(e))

    phi_list = _expect(doc, "Phi", list, "$")
    if len(phi_list) != m:
        raise ProblemFileError("$.Phi", "expected %d expressions" % m)
    phi = PolyMap([_expression(t, n, "$.Phi[%d]" % i)
                   for i, t in enumerate(phi_list)], n=n)

    if kind == "enlp":
        if "f" in doc:
            raise ProblemFileError("$.f", "an enlp file declares phi0, not f")
        phi0 = _expression(_expect(doc, "phi0", str, "$"), n, "$.phi0")
        problem = EnlpProblem(phi0, phi, penalty)
    else:
        if "phi0" in doc:
            raise ProblemFileError("$.phi0", "a varsys file declares f, not phi0")
        f_list = _expect(doc, "f", list, "$")
        if len(f_list) != n:
            raise ProblemFileError("$.f", "expected %d expressions" % n)
        fmap = PolyMap([_expression(t, n, "$.f[%d]" % i)
                        for i, t in enumerate(f_list)], n=n)
        problem = VarSystem(fmap, phi, penalty)

    pts_doc = _expect(doc, "points", list, "$")
    if not pts_doc:
        raise ProblemFileError("$.points", "at least one point is required")
    points = []
    for i, p in enumerate(pts_doc):
        if not isinstance(p, dict):
            raise ProblemFileError("$.points[%d]" % i, "expected an object")
        x = _rat_vector(_expect(p, "x", list, "$.points[%d]" % i), n,
                        "$.points[%d].x" % i)
        lam = _rat_vector(_expect(p, "lambda", list, "$.points[%d]" % i), m,
                          "$.points[%d].lambda" % i)
        points.append((x, lam))

    probe = doc.get("probe", {})
    if not isinstance(probe, dict):
        raise ProblemFileError("$.probe", "expected an object")
    grid = probe.get("grid", 8)
    tol = probe.get("tol", 1e-10)
    if (not isinstance(grid, int) or isinstance(grid, bool)
            or not 1 <= grid <= MAX_PROBE_GRID):
        raise ProblemFileError("$.probe.grid",
                               "expected an integer in 1..%d" % MAX_PROBE_GRID)
    # the upper bound rejects inf, and ints too large for a float; NaN
    # fails every comparison
    if (not isinstance(tol, (int, float)) or isinstance(tol, bool)
            or not 0 < tol <= sys.float_info.max):
        raise ProblemFileError("$.probe.tol", "expected a positive finite number")

    return ProblemFile(name=name, kind=kind, n=n, m=m, problem=problem,
                       points=points, probe_grid=grid, probe_tol=float(tol),
                       y_input=(yrows, yalpha))


def parse_problem_file(path) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ProblemFileError(str(path), "cannot read file (%s)" % e)
    except json.JSONDecodeError as e:
        raise ProblemFileError(str(path), "invalid JSON (%s)" % e)
    except ValueError as e:  # not UTF-8, or an integer past the digit limit
        raise ProblemFileError(str(path), "cannot read JSON (%s)" % e)
    except RecursionError:
        raise ProblemFileError(str(path), "invalid JSON (nested deeper than "
                               "the interpreter's recursion limit of %d)"
                               % sys.getrecursionlimit()) from None
    import os

    hint = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_problem_doc(doc, name_hint=hint)
