"""Record and package semantics: the value types behave as frozen value
objects, and the package resolves its public names on first use."""

import ast
import copy
import importlib
import pickle
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import pointline
from pointline import (
    RNG_ALGORITHM,
    CheckReport,
    DeltaBreakdown,
    Interval,
    PipelineParams,
    Point,
    PointSet,
    ProofTrace,
    SearchResult,
    delta_of,
    tail_sum,
)
from pointline._record import Record
from pointline.constants import checked_eps


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


# One valid set of keyword arguments per record class with Fraction
# fields. Every Fraction field holds an integer, so it can be given as an
# int, a Fraction or a "p/q" string.
VALID = {
    Point: dict(x=1, y=2),
    Interval: dict(lo=1, hi=2),
    PipelineParams: dict(alpha=1, beta=2, tail_width=1),
    CheckReport: dict(name="melchior", preconditions_met=True, holds=True,
                      lhs=4, rhs=3, slack=1),
    DeltaBreakdown: dict(c=8, h=1, x=2, y=3, tail=Interval(0, 1), mid_term=4,
                         eps=5, delta=Interval(0, 1)),
    ProofTrace: dict(c=8, k=3, eps=1, small_pairs=0, medium_pairs=0, large_pairs=0,
                     small_incidences=0, medium_incidences=0, step_reports=()),
    SearchResult: dict(best_set=PointSet.from_coords([(0, 0)]), degree=1, ratio=2,
                       iterations_run=10, seed=7),
}


def _fraction_fields(cls):
    return [name for name, kind in cls.__annotations__.items()
            if kind in ("Fraction", Fraction)]


def test_every_record_with_fraction_fields_is_in_the_table():
    for name in ("audits", "constants", "generators", "geometry", "pointfile", "cli"):
        importlib.import_module(f"pointline.{name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("pointline.") and _fraction_fields(sub):
                found.add(sub)
    assert found == set(VALID)


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_fraction_fields_take_exact_values_and_refuse_the_rest(cls):
    for field in _fraction_fields(cls):
        value = VALID[cls][field]
        built = [cls(**(VALID[cls] | {field: form}))
                 for form in (value, Fraction(value), f"{3 * value}/3")]
        assert built[0] == built[1] == built[2], field
        assert len({hash(record) for record in built}) == 1, field
        assert type(getattr(built[2], field)) is Fraction
        for bad in (value + 0.5, Decimal(value), True):
            with pytest.raises(TypeError, match=rf"^{cls.__name__}\.{field} "):
                cls(**(VALID[cls] | {field: bad}))


def test_floats_are_refused_where_they_enter():
    # points on y = x + 1/10: as floats they would not be collinear
    with pytest.raises(TypeError, match="float"):
        PointSet.from_coords([(0, 0.1), (0.1, 0.2), (0.2, 0.3)])
    cases = (
        (lambda: PipelineParams(alpha=0.1), "alpha"),
        (lambda: PipelineParams(alpha=-1, tail_width=1e-9), "tail_width"),
        (lambda: delta_of(71, 0.027), "eps"),
        (lambda: tail_sum(71, 1e-9), "width_bound"),
        (lambda: Interval(0.5, 1), "lo"),
        (lambda: Point(Decimal("0.5"), 0), "x"),
        (lambda: Point(True, 0), "x"),
        (lambda: Point(0, None), "y"),
    )
    for build, field in cases:
        with pytest.raises(TypeError, match=rf"\b{field}\b"):
            build()
    assert checked_eps("1/4") == Fraction(1, 4)
    assert PipelineParams(tail_width="1/10000000000000").tail_width == Fraction(1, 10**13)


def test_numpy_scalars_are_refused():
    np = pytest.importorskip("numpy", exc_type=ImportError)
    for bad in (np.int64(1), np.float64(1), np.bool_(True)):
        with pytest.raises(TypeError, match="Point.x"):
            Point(bad, 0)


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
