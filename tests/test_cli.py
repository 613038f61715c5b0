"""Problem files, analysis driver, CLI determinism and exit codes."""

import ast
import builtins
import collections
import dis
import hashlib
import importlib
import json
import math
import pathlib
import subprocess
import sys
import types
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plqstab
import plqstab.linalg as linalg
from plqstab import (ProblemFileError, analyze_problem, corpus_names,
                     corpus_path, parse_problem_file, render_json, render_text)
from plqstab.cli import main as cli_main
from plqstab.errors import InternalConsistencyError
from plqstab.exprparse import MAX_NESTING, ParseError
from plqstab.problemfile import (MAX_DIMENSION, MAX_PROBE_GRID,
                                 parse_problem_doc)
from support import random_enlp_docs, scale_docs


def _doc(**overrides):
    base = {
        "name": "tiny",
        "kind": "varsys",
        "n": 1, "m": 2,
        "f": ["-x1"],
        "Phi": ["0", "x1^2"],
        "Y": {"b": [["-1", "0"], ["0", "-1"]], "alpha": ["0", "0"]},
        "B": [["1", "0"], ["0", "0"]],
        "points": [{"x": ["0"], "lambda": ["0", "1/2"]}],
    }
    base.update(overrides)
    return base


def test_parse_problem_doc_roundtrip():
    pf = parse_problem_doc(_doc())
    assert pf.kind == "varsys" and pf.n == 1 and pf.m == 2
    assert pf.points[0][1][1] == type(pf.points[0][1][1])(1) / 2


def test_parse_corpus_files():
    names = corpus_names()
    assert names == ["example_3_2a", "example_3_2b", "example_3_3",
                     "example_4_4", "example_6_2"]
    for name in names:
        pf = parse_problem_file(corpus_path(name))
        assert pf.points


@pytest.mark.parametrize("mutate, path_hint", [
    (lambda d: d.pop("B"), "$.B"),
    (lambda d: d.update(B=[["0", "1"], ["1", "0"]]), "$.B"),
    (lambda d: d.update(B=[["1", "0"]]), "$.B"),
    (lambda d: d.update(kind="nope"), "$.kind"),
    (lambda d: d.update(points=[]), "$.points"),
    (lambda d: d.update(Phi=["0"]), "$.Phi"),
    (lambda d: d.update(f=["x2"]), "$.f[0]"),
    (lambda d: d.update(points=[{"x": ["0"], "lambda": ["0"]}]),
     "$.points[0].lambda"),
    (lambda d: d["points"][0].update(x=[True]), "$.points[0].x[0]"),
    (lambda d: d.update(Y={"b": [["-1", "0"]], "alpha": ["0", "0"]}), "$.Y"),
    (lambda d: d.update(phi0="x1"), "$.phi0"),
    (lambda d: d["Y"]["b"][0].__setitem__(0, "1/0"), "$.Y.b[0][0]"),
    (lambda d: d.update(probe={"tol": float("nan")}), "$.probe.tol"),
    (lambda d: d.update(probe={"tol": 10 ** 400}), "$.probe.tol"),
    (lambda d: d.update(probe={"tol": "1e-8"}), "$.probe.tol"),
    (lambda d: d.update(n=True), "$.n"),
    (lambda d: d.update(m=True), "$.m"),
    (lambda d: d.update(probe={"grid": True}), "$.probe.grid"),
    (lambda d: d.update(probe={"grid": MAX_PROBE_GRID + 1}),
     "$.probe.grid: expected an integer in 1..1066"),
    (lambda d: d.update(n=MAX_DIMENSION + 1),
     "dimensions must be in 1..%d" % MAX_DIMENSION),
    (lambda d: d.update(m=10 ** 9), "$.m: dimensions must be in 1..%d"
     % MAX_DIMENSION),
    pytest.param(lambda d: d.update(m=0), "$.m: dimensions must be in 1..%d"
                 % MAX_DIMENSION, id="m=0"),
])
def test_schema_violations_carry_paths(mutate, path_hint):
    doc = _doc()
    mutate(doc)
    with pytest.raises(ProblemFileError) as err:
        parse_problem_doc(doc)
    assert path_hint in str(err.value)


def _as_enlp_with_phi0(value):
    def mutate(d):
        del d["f"]
        d.update(kind="enlp", phi0=value)
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(name=7), "$.name: expected a string"),
    (lambda d: d.update(kind=["varsys"]), "$.kind: expected a string"),
    (lambda d: d.update(n="1"), "$.n: expected an integer"),
    (lambda d: d.update(m=2.0), "$.m: expected an integer"),
    (lambda d: d.update(n=False), "$.n: expected an integer"),
    (lambda d: d.update(Y=[]), "$.Y: expected an object"),
    (lambda d: d["Y"].update(b={}), "$.Y.b: expected an array"),
    (lambda d: d["Y"].update(alpha="0"), "$.Y.alpha: expected an array"),
    (lambda d: d.update(B=None), "$.B: expected an array"),
    (lambda d: d.update(Phi="0"), "$.Phi: expected an array"),
    (lambda d: d.update(f={"0": "-x1"}), "$.f: expected an array"),
    (_as_enlp_with_phi0(1), "$.phi0: expected a string"),
    (lambda d: d.update(points={}), "$.points: expected an array"),
    (lambda d: d["points"][0].update(x="0"),
     "$.points[0].x: expected an array"),
    (lambda d: d["points"][0].update({"lambda": 0}),
     "$.points[0].lambda: expected an array"),
])
def test_wrongly_typed_fields_name_their_json_type(mutate, message):
    # each field kind names the JSON type it expects, as the other input
    # errors do, not a Python class
    doc = _doc()
    mutate(doc)
    with pytest.raises(ProblemFileError) as err:
        parse_problem_doc(doc)
    assert str(err.value) == message


def test_cli_names_the_json_type_of_a_wrongly_typed_field(tmp_path):
    out = _run_cli(_doc(Y=[]), tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == (
        1, "", "input error: $.Y: expected an object\n")


def test_analysis_document_shape():
    pf = parse_problem_file(corpus_path("example_3_3"))
    doc, csvs = analyze_problem(pf)
    assert doc["verdicts"] == ["noncritical", "noncritical", "critical",
                               "noncritical", "noncritical"]
    crit = doc["points"][2]["criticality"]
    assert crit["witness"]["xi"] == ["1"]
    assert doc["witnesses"][2] is not None and doc["witnesses"][0] is None
    assert not csvs  # no probes requested


def test_analysis_flags_propagate_and_probe_traces_emitted():
    pf = parse_problem_file(corpus_path("example_3_3"))
    doc, csvs = analyze_problem(pf, probe=True, probe_grid=4)
    assert doc["flags"]["probe"] and doc["flags"]["probe_grid"] == 4
    assert len(csvs) == 1 and csvs[0][0] == 2       # the critical point
    assert csvs[0][1].splitlines()[0] == "t,p1,p2,x,lambda,lhs,rhs,ratio"
    probes = doc["points"][2]["probes"]
    assert probes["critical_ray"]["divergent"] is True


def test_text_report_says_how_the_probe_solves_ended():
    # each point's semi-isolated line counts its solves by `newton`
    # reason, in name order, and the JSON records carry the same reasons
    pf = parse_problem_file(corpus_path("example_3_3"))
    doc, _ = analyze_problem(pf, probe=True)
    lines = [line for line in render_text(doc).splitlines()
             if line.startswith("  probe (semi-isolated):")]
    assert lines[1] == ("  probe (semi-isolated): modulus=1.0 over 8 solves "
                        "(converged 2, no_descent 2, stalled 4)")
    ended = {}
    for line, point in zip(lines, doc["points"]):
        reasons = [r["newton"] for r in point["probes"]["semi_isolated"][
            "records"]]
        counts = line[line.rindex("(") + 1:-1].split(", ")
        assert counts == ["%s %d" % (reason, reasons.count(reason))
                          for reason in sorted(set(reasons))]
        for reason in reasons:
            ended[reason] = ended.get(reason, 0) + 1
    assert len(lines) == len(doc["points"]) == 5
    assert ended == {"converged": 13, "no_descent": 17, "stalled": 10}


def test_renderings_expose_the_same_facts():
    pf = parse_problem_file(corpus_path("example_6_2"))
    doc, _ = analyze_problem(pf)
    as_json = render_json(doc)
    as_text = render_text(doc)
    parsed = json.loads(as_json)
    stab = parsed["points"][0]["stability"]
    assert stab["robust_ic"] is True
    assert "robust_ic=True" in as_text
    assert "criticality: noncritical" in as_text
    assert parsed["verdicts"] == ["noncritical"]


def test_byte_determinism_across_runs():
    for name in corpus_names():
        pf1 = parse_problem_file(corpus_path(name))
        pf2 = parse_problem_file(corpus_path(name))
        doc1, _ = analyze_problem(pf1, probe=True, probe_grid=3)
        doc2, _ = analyze_problem(pf2, probe=True, probe_grid=3)
        assert render_json(doc1) == render_json(doc2)
        assert render_text(doc1) == render_text(doc2)


def _json_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _keys(doc):
    """Every dict key in a JSON-like document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _keys(value)
    elif isinstance(doc, (list, tuple)):
        for value in doc:
            yield from _keys(value)


def test_render_json_writes_the_bytes_of_json_dumps():
    # The direct writer against json.dumps on every corpus report, exact
    # and with --probe, on random-enlp pools 1-3, and on a crafted
    # document with every value type and edge the writer covers.
    docs = []
    for pf in ([parse_problem_file(corpus_path(name)) for name in corpus_names()]
               + [parse_problem_doc(doc) for seed in (1, 2, 3)
                  for _, doc in random_enlp_docs(seed, 5)]):
        for probe in (False, True):
            docs.append(analyze_problem(pf, probe=probe)[0])
    for doc in docs:
        assert all(type(key) is str for key in _keys(doc))
        assert render_json(doc) == _json_dumps(doc)
    crafted = {
        "ascii": "plain", "non-ascii": "\u00e9\u65e5\U0001f600",
        "control": "\x00\x01\x1f\t\n\r\b\f\x7f", "quotes": "\"'\\/",
        "\u00e9 key \"\n": [{}, [], [[]], {"a": {}}, [{}, []]],
        "": "", "tuple": (1, (2.5, "x"), ()), "floats": [
            -0.0, 0.0, 5e-324, 1e308, -1e308, 1.0, 0.1, 1e16, 1e-7, 123.456],
        "ints": [0, -1, 2 ** 100, -(2 ** 70)], "bools": [True, False],
        "none": None, "nested": {"b": {"c": [None, True, {"d": -0.0}]}},
        "B": 1, "a": 2, "_": 3,
    }
    assert render_json(crafted) == _json_dumps(crafted)
    for doc in ([], {}, "s", 1, 1.5, None, True, [[[]]], ()):
        assert render_json(doc) == _json_dumps(doc)
    for bad in (math.nan, math.inf, -math.inf):
        for doc in (bad, [1.0, bad], {"a": {"b": bad}}):
            with pytest.raises(ValueError):
                _json_dumps(doc)
            with pytest.raises(ValueError):
                render_json(doc)
    # stricter than json.dumps: no key but a str, no subclass of a value type
    for doc in ({1: "a"}, {"a": {None: 1}}, [{(1, 2): 3}], {1.5: 0},
                type("F", (float,), {})(2.5), [type("S", (str,), {})("s")],
                {"a": collections.OrderedDict(b=1)}):
        with pytest.raises(TypeError):
            render_json(doc)
    for doc in ({1, 2}, [object()], {"a": b"bytes"}):
        with pytest.raises(TypeError):
            _json_dumps(doc)
        with pytest.raises(TypeError):
            render_json(doc)


# sha256 of `plqstab analyze <file> --report json` per corpus file, without
# --probe.  A change to any byte must be explained and the pin updated
# with it; the probe reports are pinned below.
_EXACT_REPORT_SHA256 = {
    "example_3_2a": "34792f3dd4f7b5217462ea92b7dbcac75177262d3aa5a0f1add9f02bf021d1fe",
    "example_3_2b": "3bafae1f87252169261be272c6d21ece6b1e05320e56b5f984fc00f52a15a017",
    "example_3_3": "b40f98e921936f23be8dc447eb32bc5712d9176399e4f0d0d62c4b85b0952daf",
    "example_4_4": "0a7e924d43d081051438a12cae151221a5d13410caa41340d095ae5247a0c3ba",
    "example_6_2": "10a0c0aaa55da50c7997a93067b149853ca2c1c7b32900a0282e15f5ded75b3c",
}


def test_cli_exact_report_bytes_are_pinned(capsys):
    assert sorted(_EXACT_REPORT_SHA256) == sorted(corpus_names())
    for name, digest in _EXACT_REPORT_SHA256.items():
        assert cli_main(["analyze", corpus_path(name), "--report", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name


# sha256 over the concatenated `--report json` outputs of the benchmark's
# random-enlp pools 1-20, five problems each, in pool order: 100 exact
# reports whose verdicts exercise every criterion.
_RANDOM_ENLP_REPORTS_SHA256 = (
    "0ee4d22dfc132f9e028a876d1627a26f6ac89b2794dd65fb9816aa05fc131b5d")


def test_cli_random_enlp_report_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for seed in range(1, 21):
        for name, doc in random_enlp_docs(seed, 5):
            path = tmp_path / (name + ".json")
            path.write_text(json.dumps(doc))
            assert cli_main(["analyze", str(path), "--report", "json"]) == 0
            digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == _RANDOM_ENLP_REPORTS_SHA256


# The same pins with --probe.  The Newton probe computes in Python floats
# in one stated order, so its bytes depend on IEEE-754 doubles alone and
# are the same on every CPython version.
_PROBE_REPORT_SHA256 = {
    "example_3_2a": "f9e2a2a366d5c3cb339b59fdd97ec12ab649bd4e5c1aff7b9b5ee442ffa53838",
    "example_3_2b": "ea5b154d1d91e90023e0c658f9b5fd1f94314ef11d3cce6b5b44fcf992b6025e",
    "example_3_3": "9ed572981ec5028c2097cfc599ab09479b04fdb6c187504dc9ac1300c1e84c7e",
    "example_4_4": "29123936943eb2686ac5e1a28e847a76e64cfdc53129b487f1b6e9a9db982bf8",
    "example_6_2": "af9474efb24ade988d63d5997264b9d646a0db69795fd2c773651ab4d58660e4",
}

# sha256 over the concatenated `--probe --report json` outputs of
# random-enlp pools 1-3, five problems each, in pool order.
_RANDOM_ENLP_PROBE_REPORTS_SHA256 = (
    "5f3803afccee0561b8f87bab0a1c168a95061b01fde13fa52b7e79ffa30ab7e6")

def test_cli_probe_report_bytes_are_pinned(capsys):
    assert sorted(_PROBE_REPORT_SHA256) == sorted(corpus_names())
    for name, digest in _PROBE_REPORT_SHA256.items():
        assert cli_main(["analyze", corpus_path(name), "--probe", "--report",
                         "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name


def test_cli_random_enlp_probe_report_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for name, doc in random_enlp_docs(seed, 5):
            path = tmp_path / (name + ".json")
            path.write_text(json.dumps(doc))
            assert cli_main(["analyze", str(path), "--probe", "--report",
                             "json"]) == 0
            digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == _RANDOM_ENLP_PROBE_REPORTS_SHA256


# sha256 of `plqstab analyze <file> --report json` for the first three
# documents of the scale set (tools/scale_check.py) at m = 7 and m = 8, and
# of the m = 7 ones with --probe.  Their Y have 6 to 8 rows, so their exact
# QPs certify larger active sets than any pinned above, whose Y have at
# most 3 rows.
_SCALE_REPORT_SHA256 = {
    ("m7_0", False): "b4c175d186d8fe53ddc93b3106297fcd6dba6ee453c32d1a32a94f28b5fb229e",
    ("m7_1", False): "e17e262049f466741948e2494e0bb2c8da564cd966eed6dd47b297a3a203a99b",
    ("m7_2", False): "d873e1ab45ba3d57b0d5edae1e5eeeab7567b9d3f0b2d6693f53f96cfeea6750",
    ("m8_0", False): "c1c85fc96e3064568bd9c913cdcc7b2fad3bfaad97e3311acca0db8d681298d3",
    ("m8_1", False): "3a3bdedfbc88ccf90adbad0a9b0d9f80b66df1e9ee426683a577ba3895b38ca2",
    ("m8_2", False): "64dfd24fad5b61d53cf3458b5cf762ed8a8f8799663893d494e362ac5e65d462",
    ("m7_0", True): "0e9cf9ad52cfc21bbbe8328fd22f97f5aa85720cd1b8846bc78718680b48bebc",
    ("m7_1", True): "fbea21c8ebfff12175e04814f6641c35dc0cef829565a2af0aee5e5a68701276",
    ("m7_2", True): "aa69e1943b339d0ac2be8fa27a4cfa11376eca4d378eefa3d4ad8ccbd6bc42c2",
}


def test_cli_scale_report_bytes_are_pinned(tmp_path, capsys):
    docs = dict(scale_docs(7, 3) + scale_docs(8, 3))
    for (name, probe), digest in _SCALE_REPORT_SHA256.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(docs[name]))
        argv = ["analyze", str(path), "--report", "json"]
        assert cli_main(argv + ["--probe"] * probe) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name


def test_cli_ray_probe_records_only_ray_points_inside_the_set(tmp_path,
                                                             capsys):
    # enlp_22_002's critical ray, xi = (1, 1/2) and eta = (-5, -5/2), is
    # outside the perturbed solution set at t = 1/2 and 1/4 and inside
    # from t = 1/8 on: the probe records those grid points and exits 0.
    name, doc = random_enlp_docs(22, 5)[2]
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc))
    assert cli_main(["analyze", str(path), "--probe", "--report",
                     "json"]) == 0
    (point,) = json.loads(capsys.readouterr().out)["points"]
    assert point["criticality"]["witness"]["xi"] == ["1", "1/2"]
    assert point["criticality"]["witness"]["eta"] == ["-5", "-5/2"]
    records = point["probes"]["critical_ray"]["records"]
    assert [r["t"] for r in records] == [2.0 ** -k for k in range(3, 11)]
    # A grid with no point inside the set leaves nothing to record.
    pf = parse_problem_doc(doc, name_hint=name)
    system, ((x, lam),) = pf.problem, pf.points
    verdict = plqstab.classify_multiplier(system, x, lam)
    with pytest.raises(InternalConsistencyError, match="no ray point"):
        plqstab.critical_ray_probe(system, x, lam, verdict,
                                   t_grid=["1/2", "1/4"])


def test_cli_exit_codes(tmp_path, capsys):
    rc = cli_main(["analyze", corpus_path("example_4_4"), "--report", "json"])
    captured = capsys.readouterr()
    assert rc == 0
    assert json.loads(captured.out)["problem"]["kind"] == "varsys"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["analyze", str(bad)]) == 1
    capsys.readouterr()

    schema_bad = tmp_path / "schema.json"
    schema_bad.write_text(json.dumps(_doc(B=[["0", "1"], ["1", "0"]])))
    assert cli_main(["analyze", str(schema_bad)]) == 1
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    assert cli_main(["analyze", str(missing)]) == 1
    capsys.readouterr()

    # nesting past a cap is an input error that names it, not a
    # RecursionError: parentheses past MAX_NESTING in an expression, and
    # arrays past the interpreter's recursion limit in the file itself
    depth = MAX_NESTING
    for levels, code in ((depth, 0), (depth + 1, 1), (250, 1)):
        nested = tmp_path / ("nested%d.json" % levels)
        nested.write_text(json.dumps(_doc(
            f=["(" * levels + "-x1" + ")" * levels])))
        assert cli_main(["analyze", str(nested)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("input error: $.f[0]: parentheses nested deeper "
                           "than %d (at position %d)\n" % (depth, depth))
    arrays = tmp_path / "arrays.json"
    arrays.write_text('{"n": ' + "[" * 200_000 + "]" * 200_000 + "}")
    assert cli_main(["analyze", str(arrays)]) == 1
    err = capsys.readouterr().err
    assert "recursion limit of %d" % sys.getrecursionlimit() in err
    assert "Traceback" not in err


@pytest.mark.parametrize("y", [
    {"b": [["-1", "0"], ["0", "-1"]], "alpha": ["0", "0"]},
    {"b": [["1", "0"], ["-1", "0"]], "alpha": ["-1", "-1"]},  # empty Y
])
def test_cli_non_psd_b_is_an_input_error(tmp_path, y):
    # B is symmetric and indefinite; an empty Y is reported after B
    out = _run_cli(_doc(B=[["0", "1"], ["1", "0"]], Y=y), tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == (
        1, "", "input error: $.B: matrix is not positive semidefinite\n")


def test_parse_checks_b_with_one_elimination(monkeypatch):
    # one symmetric LDL^T per parse, in PlqPenalty; the parser adds none
    calls = []
    reduce_lineality = linalg.reduce_lineality

    def counted(*args):
        calls.append(args)
        return reduce_lineality(*args)

    monkeypatch.setattr(linalg, "reduce_lineality", counted)
    for name in corpus_names():
        parse_problem_file(corpus_path(name))
    assert len(calls) == len(corpus_names()) == 5


def test_no_assert_statements_in_the_package():
    # Every correctness check raises explicitly, so that it survives
    # `python -O`, which strips assert statements.
    modules = sorted(pathlib.Path(plqstab.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def test_every_global_the_package_reads_is_bound():
    # A name that a function reads as a global (LOAD_GLOBAL) but that its
    # module never binds, and that is no builtin, raises NameError only
    # when that line runs; so the bytecode of every module, nested
    # functions and classes included, is scanned for one.
    builtin_names = set(dir(builtins))
    found = []
    for path in sorted(pathlib.Path(plqstab.__file__).parent.glob("*.py")):
        name = "plqstab" + ("" if path.stem == "__init__" else "." + path.stem)
        bound = set(vars(importlib.import_module(name))) | builtin_names
        code = compile(path.read_text(), str(path), "exec")
        for co in _code_objects(code):
            found += ["%s.%s: %s" % (path.stem, co.co_name, ins.argval)
                      for ins in dis.get_instructions(co)
                      if ins.opname == "LOAD_GLOBAL"
                      and ins.argval not in bound]
    assert found == []


def test_cli_rejects_zero_denominator(tmp_path, capsys):
    bad = tmp_path / "zero_den.json"
    bad.write_text(json.dumps(_doc(Y={"b": [["1/0", "0"], ["0", "-1"]],
                                      "alpha": ["0", "0"]})))
    assert cli_main(["analyze", str(bad)]) == 1
    assert "$.Y.b[0][0]" in capsys.readouterr().err


_NESTED = "[" * 900 + "]" * 900     # a JSON array nested 900 deep


@pytest.mark.parametrize("name, x0, path", [
    (_NESTED, '"0"', "$.name"),
    ("7", '"0"', "$.name"),
    ('"tiny"', _NESTED, "$.points[0].x[0]"),
    ('"tiny"', '"%sx"' % ("1" * 5000), "$.points[0].x[0]"),
], ids=["nested-name", "number-name", "nested-entry", "long-entry"])
def test_cli_rejects_bad_values_in_one_short_line(tmp_path, name, x0, path):
    # `name` must be a string, and a bad rational's message quotes at most
    # a bounded prefix of the value and of the reason.  The values are
    # spliced in as JSON text, so the test's own stack never recurses
    # through them, and the analysis runs in a fresh interpreter, whose
    # JSON parser has the whole recursion limit.
    text = json.dumps(_doc(name="@name@",
                           points=[{"x": ["@x0@"], "lambda": ["0", "1/2"]}]))
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"@name@"', name).replace('"@x0@"', x0))
    out = subprocess.run([sys.executable, "-m", "plqstab.cli", "analyze",
                          str(bad)], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (1, ""), out.stderr[:200]
    assert out.stderr.startswith("input error: %s: " % path)
    assert out.stderr.count("\n") == 1 and len(out.stderr) < 200, out.stderr


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"],
    ["--probe-grid", "0"], ["--probe-grid", "-3"],
])
def test_cli_rejects_out_of_range_flags(flags, capsys):
    rc = cli_main(["analyze", corpus_path("example_4_4"), "--report", "json",
                   "--probe"] + flags)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("input error: %s " % flags[0])


def test_probe_grid_cap(capsys):
    # From k = 1067 on the perturbation t = 10^-3 / 2^(k-1) is 0.0, so a
    # larger grid only repeats unperturbed solves: the flag and the file
    # field stop at 1066, and the error names the cap.
    assert MAX_PROBE_GRID == 1066
    assert math.ldexp(1e-3, -1065) > 0 and math.ldexp(1e-3, -1066) == 0.0
    assert parse_problem_doc(_doc(probe={"grid": 1066})).probe_grid == 1066
    for grid in ("1067", str(10 ** 7)):
        rc = cli_main(["analyze", corpus_path("example_4_4"), "--probe",
                       "--probe-grid", grid])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "input error: --probe-grid must be in 1..1066\n"


def test_cli_rejects_huge_exponent_quickly(tmp_path):
    bad = tmp_path / "huge_exponent.json"
    bad.write_text(json.dumps(_doc(f=["x1^99999999"])))
    out = subprocess.run([sys.executable, "-m", "plqstab.cli", "analyze",
                          str(bad)], capture_output=True, text=True, timeout=2)
    assert out.returncode == 1
    assert out.stderr.startswith("input error: $.f[0]: exponent above 64")


def test_cli_rejects_huge_expansions_quickly(tmp_path):
    # (x1+x2+x3+x4)^40 has degree 40, under the exponent cap, but one of its
    # products would multiply out 969 x 969 term pairs
    bad = tmp_path / "huge_expansion.json"
    bad.write_text(json.dumps(_doc(n=4, f=["(x1+x2+x3+x4)^40", "0", "0", "0"],
                                   points=[{"x": ["0"] * 4,
                                            "lambda": ["0", "1/2"]}])))
    out = subprocess.run([sys.executable, "-m", "plqstab.cli", "analyze",
                          str(bad)], capture_output=True, text=True, timeout=2)
    assert out.returncode == 1
    assert out.stderr == ("input error: $.f[0]: product of over 100000 term "
                          "pairs (at position 14)\n")


def test_cli_reports_overflowing_residuals_as_inf(tmp_path, capsys):
    # |Psi| at the error-bound samples is about 10^3999: its square, and the
    # norm itself, are beyond float range
    path = tmp_path / "huge_coefficient.json"
    path.write_text(json.dumps(_doc(
        n=2, f=["1" * 4000 + "*x1", "x2"], Phi=["0", "0"],
        points=[{"x": ["0", "0"], "lambda": ["0", "0"]}])))
    rc = cli_main(["analyze", str(path), "--report", "json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    rows = json.loads(captured.out)["points"][0]["error_bound_samples"]
    assert len(rows) == 8
    for r in rows:
        huge = r["dx"][0] != "0"          # the rows that move x1
        assert (r["rhs_inverse_subdiff"] == "inf") == huge
        assert (r["rhs_prox"] == "inf") == huge
        assert isinstance(r["lhs"], float)


@pytest.mark.parametrize("overrides, path", [
    # the file of the test above
    (dict(n=2, f=["1" * 4000 + "*x1", "x2"], Phi=["0", "0"],
          points=[{"x": ["0", "0"], "lambda": ["0", "0"]}]), "$.f[0]"),
    # 10^308 is a float, the derivative 2 * 10^308 is not
    (dict(Phi=["0", "1" + "0" * 308 + "*x1^2"]), "$.Phi[1]"),
])
def test_cli_probe_rejects_data_beyond_float_range(tmp_path, overrides, path):
    bad = tmp_path / "beyond_float.json"
    bad.write_text(json.dumps(_doc(**overrides)))
    cmd = [sys.executable, "-m", "plqstab.cli", "analyze", str(bad)]
    assert subprocess.run(cmd, capture_output=True, timeout=60).returncode == 0
    out = subprocess.run(cmd + ["--probe"], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 1
    assert out.stderr.startswith("input error: %s: coefficients beyond float "
                                 "range" % path)
    assert "Traceback" not in out.stderr


def _example_3_2a(**overrides):
    with open(corpus_path("example_3_2a"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(overrides)
    return doc


def _run_cli(doc, tmp_path, *flags):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return subprocess.run([sys.executable, "-m", "plqstab.cli", "analyze",
                           str(path), *flags], capture_output=True, text=True,
                          timeout=30)


_HUGE = "7" * 400


@pytest.mark.parametrize("overrides, path", [
    (dict(Y={"b": [["-1", "0"], ["0", "-1"], ["1", "1"]],
             "alpha": ["0", "0", _HUGE]}), "$.Y.alpha[2]"),
    (dict(Y={"b": [["-1", "0"], ["0", "-1"], [_HUGE, "1"]],
             "alpha": ["0", "0", "1"]}), "$.Y.b[2][0]"),
    (dict(B=[[_HUGE, "0"], ["0", "1"]]), "$.B[0][0]"),
    (dict(points=[{"x": ["0", "0"], "lambda": ["0", "0"]},
                  {"x": ["0", "-" + _HUGE], "lambda": ["0", "0"]}]),
     "$.points[1].x[1]"),
])
def test_cli_probe_rejects_entries_beyond_float_range(tmp_path, overrides,
                                                      path):
    doc = _example_3_2a(**overrides)
    assert _run_cli(doc, tmp_path).returncode == 0
    out = _run_cli(doc, tmp_path, "--probe")
    assert out.returncode == 1
    assert out.stderr == ("input error: %s: beyond float range; --probe "
                          "evaluates it in float\n" % path)


def test_cli_probe_saturates_derived_floats(tmp_path):
    # every entry is a float, but the row in lowest integer terms,
    # (1000, 1) <= 10^310, and the prox pieces it enters are not
    doc = _example_3_2a(Y={"b": [["-1", "0"], ["0", "-1"], ["1", "1/1000"]],
                           "alpha": ["0", "0", "1" + "0" * 307]})
    out = _run_cli(doc, tmp_path, "--probe", "--report", "json")
    assert out.returncode == 0 and out.stderr == ""


def test_cli_probe_stops_newton_on_overflow(tmp_path):
    # the float residual at the line search's trial points is about
    # 10^298: its square overflows, so the search rejects each of them and
    # backtracks, and where all 30 overflow the solve ends as "no_descent";
    # "overflow" names only a start or a Newton matrix past float range
    doc = _example_3_2a(Phi=["x1 + 1" + "0" * 307 + "*x2^3", "0"])
    out = _run_cli(doc, tmp_path, "--probe", "--report", "json")
    assert out.returncode == 0 and out.stderr == ""
    records = json.loads(out.stdout)["points"][0]["probes"]["semi_isolated"][
        "records"]
    assert [r["newton"] for r in records] == (
        ["converged"] * 2 + ["no_descent"] + ["converged"] * 5)


def test_cli_corpus_probes_print_nothing_and_never_overflow(capfd):
    for name in corpus_names():
        pf = parse_problem_file(corpus_path(name))
        doc, _ = analyze_problem(pf, probe=True)
        for point in doc["points"]:
            records = point.get("probes", {}).get("semi_isolated", {}).get(
                "records", [])
            assert all(r["newton"] != "overflow" for r in records), name
    assert capfd.readouterr() == ("", "")


def test_cli_many_slack_rows_in_y(tmp_path):
    # example_3_2a with 24 more rows in Y, none tight at the solution and
    # none binding at the error-bound samples: 26 rows, 2^26 row subsets
    doc = _example_3_2a()
    doc["Y"] = {"b": doc["Y"]["b"] + [[str(k), "1"] for k in range(1, 25)],
                "alpha": doc["Y"]["alpha"] + ["100"] * 24}
    reference = _run_cli(_example_3_2a(), tmp_path, "--report", "json")
    samples = json.loads(reference.stdout)["points"][0]["error_bound_samples"]
    for flags in ((), ("--probe",)):
        out = _run_cli(doc, tmp_path, "--report", "json", *flags)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["points"][0]["error_bound_samples"] == samples


@pytest.mark.parametrize("expr, pos", [("1" * 5000 + "*x1", 0),
                                        ("x" + "1" * 5000, 1),
                                        ("1/" + "3" * 5000, 2)])
def test_cli_rejects_huge_numerals(tmp_path, expr, pos):
    # int() refuses decimal strings beyond 4300 digits with ValueError
    bad = tmp_path / "huge_numeral.json"
    bad.write_text(json.dumps(_doc(f=[expr])))
    out = subprocess.run([sys.executable, "-m", "plqstab.cli", "analyze",
                          str(bad)], capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    assert out.stderr == ("input error: $.f[0]: numeral of 5000 digits is too "
                          "long (at position %d)\n" % pos)


def _alpha_file(alpha0):
    """The bytes of `_doc()` with the JSON text `alpha0` as $.Y.alpha[0]."""
    text = json.dumps(_doc(Y={"b": [["-1", "0"], ["0", "-1"]],
                              "alpha": ["@alpha0@", "0"]}))
    return text.replace('"@alpha0@"', alpha0).encode()


def _long_row_file():
    """A valid file whose literals all lie far below the interpreter's
    int-to-str limit of 4300 digits, while the canonical (primitive
    integer) row of Y that the report prints has about 4400 digits."""
    p, q, r = 10 ** 2200 + 1, 10 ** 2199 + 3, 10 ** 2198 + 7
    return json.dumps(_doc(
        n=2, f=["x1", "x2"], Phi=["x1", "x2"],
        Y={"b": [["1/%d" % p, "1/%d" % q]], "alpha": ["1/%d" % r]},
        B=[["1", "0"], ["0", "1"]],
        points=[{"x": ["0", "0"], "lambda": ["0", "0"]}])).encode()


@pytest.mark.parametrize("data, reason", [
    (_alpha_file('"1e5000"'), "$.Y.alpha[0]: bad rational '1e5000'"),
    (_alpha_file('"1e100000000"'), "$.Y.alpha[0]: bad rational '1e100000000'"),
    (_alpha_file("1" * 5000), "cannot read JSON (Exceeds the limit"),
    (_long_row_file(), "a rational of the report has more digits than"),
    (b"\xff\xfe{}", "cannot read JSON ('utf-8' codec can't decode"),
], ids=["exponent", "huge-exponent", "json-integer", "long-row", "not-utf8"])
def test_cli_oversized_input_is_one_input_error_line(tmp_path, data, reason):
    # Each ends at once in exit 1 with one line, under the interpreter's
    # own int-to-str limit: Fraction("1e100000000") alone runs for
    # seconds, json.load refuses an integer of more than 4300 digits with
    # a plain ValueError, and str() refuses a longer report rational.
    bad = tmp_path / "oversized.json"
    bad.write_bytes(data)
    out = subprocess.run([sys.executable, "-m", "plqstab.cli", "analyze",
                          str(bad)], capture_output=True, text=True, timeout=5)
    assert (out.returncode, out.stdout) == (1, ""), out.stderr[-300:]
    assert out.stderr.startswith("input error: ") and reason in out.stderr
    assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr


def test_cli_probe_csv_files(tmp_path, capsys):
    out = tmp_path / "trace"
    rc = cli_main(["analyze", corpus_path("example_3_3"), "--probe",
                   "--probe-grid", "3", "--probe-csv", str(out)])
    capsys.readouterr()
    assert rc == 0
    written = list(tmp_path.glob("trace.point*.csv"))
    assert len(written) == 1
    assert written[0].read_text().startswith("t,p1,p2,x,lambda,lhs,rhs,ratio")


def test_cli_probe_csv_unwritable_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "trace"
    rc = cli_main(["analyze", corpus_path("example_3_2b"), "--probe",
                   "--probe-grid", "3", "--probe-csv", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("input error: cannot write %s.point0.csv ("
                                   % out)


def test_cli_probe_csv_needs_probe(tmp_path, capsys):
    rc = cli_main(["analyze", corpus_path("example_3_2b"),
                   "--probe-csv", str(tmp_path / "trace")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "input error: --probe-csv needs --probe\n"
    assert not list(tmp_path.iterdir())


def test_cli_subprocess_byte_determinism():
    cmd = [sys.executable, "-m", "plqstab.cli", "analyze",
           corpus_path("example_3_2b"), "--report", "json"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout and a.stdout


# -- fuzzing the problem-file boundary --------------------------------------------

_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.sampled_from(["0", "1/2", "-3", "x1", "x1^2 - x2", "1/0",
                               "enlp", "varsys", "(x1+x2)^9"]),
              st.text(max_size=12)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=12)


def _paths(value, prefix=()):
    """Every key path into a JSON document."""
    out = [prefix]
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        out += _paths(child, prefix + (key,))
    return out


@settings(derandomize=True, max_examples=300, deadline=timedelta(seconds=2))
@given(st.data())
def test_fuzz_parse_problem_doc(data):
    # a valid document with up to three of its values replaced or removed
    doc = _doc(kind=data.draw(st.sampled_from(["varsys", "enlp"])))
    if doc["kind"] == "enlp":
        del doc["f"]
        doc["phi0"] = "x1^2"
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(_paths(doc)))
        if not path:
            doc = data.draw(_JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent[path[-1]] = data.draw(_JSON_VALUES)
        elif isinstance(parent, dict):
            del parent[path[-1]]
    try:
        pf = parse_problem_doc(doc)
    except (ProblemFileError, ParseError):
        return
    assert pf.kind in ("varsys", "enlp") and pf.points
