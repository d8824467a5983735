"""The record contract: immutable NamedTuples that check their fields."""

import pickle

import numpy as np
import pytest

import mmwcomp
from mmwcomp import (CdfPoint, CiModel, Condition, ConditionPolicy,
                     CoverageQuery, Drops, LinkBudget, ModelCard, Node,
                     OutageRow, PathLossSamples, ReceptionRow, ResultBundle,
                     RunMetadata, Scenario, SweepGrid)

NLOS = CiModel(73.5, 4.6, 11.4, Condition.NLOS)
BUDGET = LinkBudget(14.9, 27.0, 20.0)
META = RunMetadata("simulate", "0.1.0", 7, 2)
B1 = Node("B1", 0.0, 0.0, 4.0)
U1 = Node("U1", 30.0, 0.0, 1.4)
POLICY = ConditionPolicy({("U1", "B1"): Condition.LOS}, 0.5)
MODELS = {Condition.LOS: CiModel(73.5, 2.0, 1.9, Condition.LOS),
          Condition.NLOS: NLOS}

# One valid record of every class; mappings are plain dicts, as the parsers
# build them (the read-only empty default mappings do not pickle).
RECORDS = [
    NLOS,
    BUDGET,
    CoverageQuery(NLOS, BUDGET, 100.0),
    OutageRow("NLOS", 63.0, 0.024, 0.007),
    PathLossSamples((20.0,), (120.0,), (Condition.NLOS,), ("VH",)),
    META,
    ModelCard("NLOS", 73.5, 4.6, 11.4, Condition.NLOS, 10),
    ReceptionRow(2, 0.5, 6),
    CdfPoint(120.0, 1.0),
    ResultBundle(META, (), (), (ReceptionRow(1, 1.0, 1),),
                 {"best1_pl_db": [CdfPoint(120.0, 1.0)]}),
    B1,
    SweepGrid(),
    POLICY,
    Scenario((B1,), (U1,), POLICY, MODELS, BUDGET, SweepGrid(), 7),
    # One link over two trials in one-byte lanes: masks 0b1, then 0b11.
    Drops((("U1", "B1"),), np.full((2, 1), 90.0), (1 | 3 << 8,)),
]

# For each validated record: valid fields in field order with one bad
# value, and the message the check gives for it.
INVALID = [
    (CiModel, (0.0, 2.0, 1.0, Condition.LOS),
     "f_ghz must be positive and finite, got 0.0"),
    (LinkBudget, (14.9, 27.0, 20.0, 0.0, 175.0, 5.0),
     "bw_ghz must be positive, got 0.0"),
    (CoverageQuery, (NLOS, BUDGET, 0.5), "radius_m must be >= 1.0 m, got 0.5"),
    (PathLossSamples, ((0.5,), (120.0,), (Condition.NLOS,), ("VV",)),
     "sample distance must be finite and >= 1.0 m, got 0.5"),
    (ResultBundle, (META, (), (), (), {"best1_pl_db": []}),
     "CDF 'best1_pl_db' is empty"),
    (Node, ("B1", 0.0, 0.0, 0.0), "height_m must be positive, got 0.0"),
    (SweepGrid, (0, 24, 3, 8.0, 15.0), "sweep grid counts must be >= 1"),
    (ConditionPolicy, ({}, 1.5), "p_los must be in [0, 1], got 1.5"),
    (Scenario, ((), (U1,), POLICY, MODELS, BUDGET, SweepGrid(), 7),
     "scenario needs at least one base station"),
]


def _name(record):
    return type(record).__name__


def test_every_record_class_is_covered():
    exported = [getattr(mmwcomp, name) for name in mmwcomp.__all__]
    records = {c for c in exported if isinstance(c, type) and issubclass(c, tuple)}
    assert records == {type(r) for r in RECORDS} and len(RECORDS) == 15
    checked = {c for c in records if hasattr(c.__new__, "__wrapped__")}
    assert checked == {cls for cls, _, _ in INVALID} and len(INVALID) == 9


def test_record_fields():
    # The reference distance is the constant REFERENCE_DISTANCE_M, not a
    # field, and a sample carries no angle ids.
    assert CiModel._fields == ("f_ghz", "ple", "sigma_db", "condition")
    assert PathLossSamples._fields == ("d_m", "pl_db", "condition",
                                       "polarization")


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize("cls,values,message", INVALID,
                         ids=[cls.__name__ for cls, _, _ in INVALID])
def test_check_runs_positionally_and_by_keyword(cls, values, message):
    assert len(values) == len(cls._fields)
    with pytest.raises(ValueError) as positional:
        cls(*values)
    with pytest.raises(ValueError) as keyword:
        cls(**dict(zip(cls._fields, values)))
    assert str(positional.value) == str(keyword.value) == message


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    if isinstance(record, Drops):  # identity equality; compare the fields
        assert copy.links == record.links and copy.masks == record.masks
        np.testing.assert_array_equal(copy.omni_pl_db, record.omni_pl_db)
    else:
        assert copy == record


def test_drops_compare_by_identity():
    drops = RECORDS[-1]
    twin = Drops(*drops)
    assert drops == drops and not drops != drops
    assert twin != drops and not twin == drops
    assert len({drops, twin, drops}) == 2


def test_replace_copies_without_checking():
    assert NLOS._replace(sigma_db=-1.0).sigma_db == -1.0
    with pytest.raises(ValueError, match="sigma_db must be >= 0"):
        CiModel(*NLOS._replace(sigma_db=-1.0))
