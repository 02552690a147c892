"""The package's records: read-only NamedTuples that callers build and compare by value."""

import contextlib
import importlib

import pytest

from twomilton.graphs import FamilyDocument, HamCycle, UGraph, serialize_family, standard_cycle

RECORDS = {
    "graphs": ("HamCycle", "UGraph", "FamilyDocument"),
    "independence": ("IndepCertificate",),
    "k4": ("Archipelago",),
    "bounds": ("ThresholdLowerReport", "FamilyStats", "IteratingReport", "StepReport"),
    "constructions": ("AmplifyResult",),
    "search": ("FSearchResult", "NothreeReport"),
    "reduction": ("TraceStep", "LiftEntry", "ReductionResult"),
}
CLASSES = [getattr(importlib.import_module(f"twomilton.{m}"), name) for m, names in RECORDS.items() for name in names]


def test_every_record_is_listed():
    found = {
        (m, name) for m in RECORDS
        for name, obj in vars(importlib.import_module(f"twomilton.{m}")).items()
        if isinstance(obj, type) and hasattr(obj, "_fields") and obj.__module__ == f"twomilton.{m}"
    }
    assert found == {(m, name) for m, names in RECORDS.items() for name in names}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_is_read_only_and_built_either_way(cls):
    values = tuple(range(len(cls._fields)))
    record = cls(*values)
    assert record == cls(**dict(zip(cls._fields, values)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], -1)
    with pytest.raises(AttributeError):
        record.extra = -1
    assert record == cls(*values)


def test_cycles_and_graphs_compare_and_hash_by_value():
    c, same, other = standard_cycle(4), HamCycle((0, 1, 2, 3)), HamCycle((0, 1, 3, 2))
    assert c == same and hash(c) == hash(same) and c != other
    assert len({c, same, other}) == 2
    g, same_g = UGraph.from_edges(3, [(0, 1)]), UGraph(3, (0b10, 0b01, 0))
    assert g == same_g and hash(g) == hash(same_g) and g != UGraph.from_edges(3, [(0, 1), (1, 2)])
    assert repr(c) == "HamCycle(order=(0, 1, 2, 3))"


def test_default_built_documents_share_no_mutable_state():
    a, b = FamilyDocument(4, ()), FamilyDocument(4, ())
    for field in ("certificates", "meta"):
        with contextlib.suppress(TypeError):  # a read-only default refuses the change
            getattr(a, field)["alpha"] = {"value": 1, "vertices": [0]}
        assert getattr(b, field) == {}
    assert serialize_family(b) == serialize_family(FamilyDocument(4, (), {}, {}))
