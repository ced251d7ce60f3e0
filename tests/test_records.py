"""Record and package semantics: the value types behave as frozen value
objects, and the package resolves its public names on first use."""

import ast
import copy
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import pointline
from pointline import (
    RNG_ALGORITHM,
    CheckReport,
    Interval,
    PipelineParams,
    Point,
    PointSet,
    SearchResult,
)


def _report(**overrides):
    fields = dict(name="melchior", preconditions_met=True, holds=True,
                  lhs=Fraction(4), rhs=Fraction(3), slack=Fraction(1))
    return CheckReport(**(fields | overrides))


def test_equal_values_give_equal_records_and_hashes():
    pairs = (
        (Point(1, Fraction(1, 2)), Point(Fraction(1), Fraction(2, 4))),
        (Interval(1, 2), Interval(lo=Fraction(1), hi="2")),
        (PipelineParams(), PipelineParams(Fraction(103, 16), beta=Fraction(31827, 1024))),
        (_report(), CheckReport("melchior", True, True, 4, 3, 1, "", ())),
        (PointSet.from_coords([(0, 0), (1, 2)]), PointSet((Point(0, 0), Point(1, 2)))),
    )
    for a, b in pairs:
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert Interval(1, 2) != Interval(1, 3)
    assert _report() != _report(note="x")
    assert len({Point(0, 0), Point(0, 0), Point(0, 1)}) == 2


def test_a_record_never_equals_a_tuple_of_its_fields():
    assert Interval(1, 2) != (1, 2)
    assert Interval(1, 2) != (Fraction(1), Fraction(2))
    assert Point(0, 1) != (Fraction(0), Fraction(1))
    assert PipelineParams() != tuple(vars(PipelineParams()).values())


def test_records_refuse_assignment_and_deletion():
    for record, field in ((Interval(1, 2), "lo"), (Point(0, 0), "x"),
                          (_report(), "holds"), (PipelineParams(), "beta")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_validation_still_runs_at_construction():
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        PipelineParams(beta=0)
    with pytest.raises(ValueError):
        PipelineParams(alpha=-1)
    assert isinstance(Interval(1, 2).lo, Fraction)


def test_construction_rejects_bad_arguments():
    with pytest.raises(TypeError):
        Interval(1)
    with pytest.raises(TypeError):
        Interval(1, 2, 3)
    with pytest.raises(TypeError):
        Interval(1, 2, lo=1)
    with pytest.raises(TypeError):
        Interval(1, 2, width=1)


def test_defaults_hold():
    report = _report()
    assert report.note == "" and report.parts == ()
    result = SearchResult(PointSet.from_coords([(0, 0)]), 1, Fraction(1), 10, 7)
    assert result.rng_algorithm == RNG_ALGORITHM
    assert PipelineParams().alpha == Fraction(103, 16)


def test_repr_names_every_field():
    assert repr(Interval(1, 2)) == "Interval(lo=Fraction(1, 1), hi=Fraction(2, 1))"
    assert repr(Point(0, Fraction(1, 2))) == "Point(x=Fraction(0, 1), y=Fraction(1, 2))"


def test_records_survive_copy_and_pickle():
    for record in (Interval(1, 2), PointSet.from_coords([(0, 0), (1, 2)]), _report()):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and hash(clone) == hash(record)


def test_every_public_name_resolves():
    assert len(pointline.__all__) == len(set(pointline.__all__)) == 50
    for name in pointline.__all__:
        assert getattr(pointline, name) is not None, name
    assert pointline.Interval is Interval
    assert set(pointline.__all__) <= set(dir(pointline))


def test_traced_benchmark_names_resolve():
    # bench/trace_entry.py wraps each (module, function) pair its LAYERS
    # dict lists, found by getattr; read it without importing the script.
    path = Path(__file__).resolve().parent.parent / "bench" / "trace_entry.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (layers,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]]
    pairs = [(module.id, name) for module, names in zip(layers.keys, layers.values)
             for name in ast.literal_eval(names)]
    assert len(pairs) > 20
    for module, name in pairs:
        assert callable(getattr(importlib.import_module(f"pointline.{module}"), name)), (
            module, name)


def test_submodules_resolve_as_attributes():
    # `import pointline; pointline.constants.X` works without importing
    # pointline.constants first
    for name in ("audits", "constants", "errors", "generators", "geometry", "pointfile"):
        assert pointline.__getattr__(name) is importlib.import_module(f"pointline.{name}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        pointline.no_such_name
    with pytest.raises(AttributeError):
        pointline.__getattr__("cli_main")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pointline import *", namespace)
    assert set(pointline.__all__) <= namespace.keys()
    assert namespace["PointSet"] is PointSet
