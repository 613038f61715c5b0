"""What a plqstab process loads: an exact analysis compiles and imports
neither the float probe nor `dataclasses`, no run, `--probe` included,
loads numpy, and the probe's names stay reachable from `plqstab` and,
for the benchmark's two spans, from `stability`; every span target the
benchmark wraps is a plain function, and every name a module's `__all__`
lists is bound."""

import importlib.util
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import plqstab
import plqstab.probe as probe
import plqstab.stability as stability
from support import bench_module

# Each run prints the modules that `import plqstab` and the analyses of
# the named corpus files added to sys.modules.
_FOOTPRINT_SCRIPT = """
import sys
before = set(sys.modules)
import plqstab
from plqstab import analyze_problem, corpus_names, corpus_path, parse_problem_file
probe = sys.argv[1] == "probe"
for name in sys.argv[2:] or corpus_names():
    analyze_problem(parse_problem_file(corpus_path(name)), probe=probe)
print(" ".join(sorted(set(sys.modules) - before)))
"""

_HEAVY = ("dataclasses", "inspect", "numpy", "plqstab.probe")


def _added_modules(*argv):
    src = os.path.dirname(os.path.dirname(plqstab.__file__))
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, *argv],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_exact_analyses_load_no_probe_and_no_dataclasses():
    added = _added_modules("exact")
    assert "plqstab.stability" in added and "plqstab.report" in added
    assert not added & set(_HEAVY), sorted(added & set(_HEAVY))


def test_probe_analysis_loads_the_probe():
    # every corpus file: the probe compiles no source of its own, and no
    # module of generated code is left in the package
    added = _added_modules("probe")
    assert "plqstab.probe" in added
    assert not added & {"dataclasses", "inspect", "numpy",
                        "plqstab.trialsource"}
    assert importlib.util.find_spec("plqstab.trialsource") is None


@pytest.mark.parametrize("name", sorted(plqstab._PROBE_NAMES))
def test_package_serves_the_probe_names(name):
    assert getattr(plqstab, name) is getattr(probe, name)


def test_stability_serves_only_the_benchmark_spans():
    assert stability.solve_perturbed is probe.solve_perturbed
    assert stability.semi_isolated_probe is probe.semi_isolated_probe
    for name in ("FloatKernel", "NewtonResult", "critical_ray_probe",
                 "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(stability, name)
    with pytest.raises(AttributeError):
        plqstab.no_such_name


def test_every_benchmark_span_target_is_a_plain_function():
    # bench/spans.py replaces a method by a wrapper of the object in its
    # class __dict__, and a module-level name by a wrapper of what getattr
    # returns; a cached property there would be wrapped as a function.
    spans = bench_module("spans").SPANS
    assert spans
    for name, (mod_name, path) in spans.items():
        module = importlib.import_module("plqstab." + mod_name)
        if "." in path:
            cls_name, attr = path.split(".")
            target = vars(getattr(module, cls_name))[attr]
        else:
            target = getattr(module, path)
        assert isinstance(target, types.FunctionType), name


def test_every_name_in_a_module_all_is_bound():
    # `from plqstab.<module> import *` fails on a name left in `__all__`
    # after its definition went.
    checked = 0
    for info in pkgutil.iter_modules(plqstab.__path__):
        module = importlib.import_module("plqstab." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
            checked += 1
    assert checked >= 50, checked
