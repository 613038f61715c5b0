"""The slotted result classes keep the contract of the dataclasses they
replaced: constructor signatures and defaults, a TypeError for an
unknown, repeated or missing field, frozenness, equality and hashing by
fields, and the `Name(field=value, ...)` repr."""

import pytest

from plqstab.enlp import StabilityReport
from plqstab.lp import LpInfeasible, LpOptimal, LpProblem, LpUnbounded
from plqstab.polyhedra import Face
from plqstab.probe import NewtonResult, ProbeRecord
from plqstab.problemfile import ProblemFile
from plqstab.qp import QpInfeasible, QpOptimal, QpUnbounded
from plqstab.rational import Rat, rat
from plqstab.stability import CriticalityVerdict, UniquenessReport
from plqstab.varsys import MultiplierSet

# (class, field names in order, fields given, the defaults of the rest)
_CASES = [
    (StabilityReport, ("bcq", "sosc", "sonc", "unique", "noncritical",
                       "isolated_calm_skkt", "lipschitz_like_skkt",
                       "robust_ic", "consistency_notes"),
     (True, False, "inconclusive", True, False, True, False, "not-certified",
      ("note",)), ()),
    (LpProblem, ("objective", "a_ub", "b_ub", "a_eq", "b_eq"),
     ((rat(1), rat(2)),), ((), (), (), ())),
    (LpOptimal, ("point", "value", "dual_ub", "dual_eq"),
     ((rat(1),), rat(3), (rat(0),), ()), ()),
    (LpUnbounded, ("ray", "feasible_point"), ((rat(1),), (rat(0),)), ()),
    (LpInfeasible, ("farkas_ub", "farkas_eq"), ((rat(1),), ()), ()),
    (Face, ("tight", "piece"), (frozenset({0, 2}), "piece"), ()),
    (QpOptimal, ("point", "value"), ((rat(1, 2),), rat(-1, 8)), ()),
    (QpUnbounded, ("ray",), ((rat(1),),), ()),
    (QpInfeasible, (), (), ()),
    (CriticalityVerdict, ("critical", "xi", "eta", "face_tight", "face_count"),
     (False,), (None, None, None, 0)),
    (UniquenessReport, ("singleton", "dqc"), (True, True), ()),
    (ProbeRecord, ("t", "p1", "p2", "x", "lam", "lhs", "rhs", "ratio",
                   "newton"),
     (0.5, (0.1,), (0.0,), (1.0,), (2.0,), 0.25, 0.1, 2.5), (None,)),
    (NewtonResult, ("converged", "x", "lam", "residual_norm", "iterations",
                    "reason", "evaluations"),
     (True, (1.0,), (0.5,), 0.0, 3, "converged"), (0,)),
    (MultiplierSet, ("poly", "empty", "singleton", "dimension",
                     "representative"),
     ("poly", False, True, 0, (rat(1),)), ()),
    (ProblemFile, ("name", "kind", "n", "m", "problem", "points",
                   "probe_grid", "probe_tol", "y_input"),
     ("tiny", "varsys", 1, 2, "system", [((rat(0),), (rat(1),))], 8, 1e-10,
      ((), ())), ()),
]
_IDS = [case[0].__name__ for case in _CASES]


@pytest.mark.parametrize("cls, names, given, defaults", _CASES, ids=_IDS)
def test_construction_by_position_and_keyword(cls, names, given, defaults):
    assert cls.__slots__ == names
    # `Record.__init__` binds the slots; only LpProblem, which converts
    # and checks its rows first, writes a constructor of its own
    assert ("__init__" in vars(cls)) == (cls is LpProblem)
    by_position = cls(*given)
    by_keyword = cls(**dict(zip(names, given)))
    values = given + defaults
    for obj in (by_position, by_keyword):
        assert tuple(getattr(obj, name) for name in names) == values
        assert not hasattr(obj, "__dict__")
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError, match="'not_a_field'"):
        cls(*given, not_a_field=None)
    if given:
        # a field given by position and by keyword; the last required
        # field left out
        with pytest.raises(TypeError, match="'%s'" % names[0]):
            cls(*given, **{names[0]: given[0]})
        with pytest.raises(TypeError, match="'%s'" % names[len(given) - 1]):
            cls(*given[:-1])


@pytest.mark.parametrize("cls, names, given, defaults", _CASES, ids=_IDS)
def test_frozen_classes_refuse_assignment(cls, names, given, defaults):
    obj = cls(*given)
    if cls is ProblemFile:   # the one mutable record, as its dataclass was
        obj.probe_grid = 3
        assert obj.probe_grid == 3
        with pytest.raises(TypeError):
            hash(obj)
        return
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert cls(*given) == obj


@pytest.mark.parametrize("cls, names, given, defaults", _CASES, ids=_IDS)
def test_equality_and_hash_by_fields(cls, names, given, defaults):
    first, second = cls(*given), cls(*given)
    assert first == second and not first != second
    if cls is not ProblemFile:
        # the hash of the field tuple, as the dataclasses hashed, so sets
        # and dicts of records keep their order
        assert hash(first) == hash(second) == hash(tuple(
            getattr(first, name) for name in names))
    assert first != object() and first != tuple(given)
    if given:
        other = (LpProblem((rat(1), rat(3))) if cls is LpProblem
                 else cls(*given[:-1], "another value"))
        assert other != first


def test_equal_fields_of_another_class_differ():
    assert QpInfeasible() == QpInfeasible()
    assert LpUnbounded((rat(1),), ()) != LpInfeasible((rat(1),), ())
    assert QpUnbounded((rat(1),)) != QpOptimal((rat(1),), None)


def test_repr_lists_the_fields_in_order():
    assert repr(NewtonResult(True, (1.0,), (0.5,), 0.0, 3, "converged", 7)) == (
        "NewtonResult(converged=True, x=(1.0,), lam=(0.5,), residual_norm=0.0, "
        "iterations=3, reason='converged', evaluations=7)")
    assert repr(QpInfeasible()) == "QpInfeasible()"
    assert repr(UniquenessReport(singleton=True, dqc=False)) == (
        "UniquenessReport(singleton=True, dqc=False)")
    assert repr(CriticalityVerdict(False)) == (
        "CriticalityVerdict(critical=False, xi=None, eta=None, "
        "face_tight=None, face_count=0)")


def test_lp_problem_converts_and_checks_its_rows():
    p = LpProblem((1, 2), [(3, 4)], [5], a_eq=[(0, 1)], b_eq=[rat(1, 2)])
    assert p.objective == (rat(1), rat(2)) and p.a_ub == ((rat(3), rat(4)),)
    assert p.b_eq == (rat(1, 2),) and isinstance(p.a_eq, tuple)
    assert all(type(v) is Rat for v in p.objective + p.a_ub[0] + p.b_ub)
    with pytest.raises(ValueError):
        LpProblem((1, 2), [(3,)], [5])
    with pytest.raises(ValueError):
        LpProblem((1, 2), [(3, 4)], [])
    with pytest.raises(ValueError):
        LpProblem((1,), a_eq=[(1,)], b_eq=[])
