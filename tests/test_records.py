"""The record contract: immutable NamedTuples that check their fields."""

import math
import pickle
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np
import pytest

import mmwcomp
from mmwcomp import (CdfPoint, CiModel, Condition, Drops, LinkBudget,
                     MaskSet, ModelCard, Node, OutageRow, PathLossSamples,
                     ReceptionRow, ResultBundle, RunMetadata, Scenario,
                     ScenarioError, SweepGrid, link_statistics, load_scenario,
                     simulate_drop)
from mmwcomp.cli import _reception_rows
from mmwcomp.propagation import field_kinds
from mmwcomp.scenario_io import _parse_record

NLOS = CiModel(73.5, 4.6, 11.4)
BUDGET = LinkBudget()
META = RunMetadata("simulate", "0.1.0", 7, 2)
B1 = Node("B1", 0.0, 0.0, 4.0)
U1 = Node("U1", 30.0, 0.0, 1.4)
PINNED = {("U1", "B1"): Condition.LOS}
MODELS = {Condition.LOS: CiModel(73.5, 2.0, 1.9),
          Condition.NLOS: NLOS}

# One valid record of every class; mappings are plain dicts, as the parsers
# build them (the read-only empty default mappings do not pickle).
RECORDS = [
    NLOS,
    BUDGET,
    OutageRow("NLOS", 63.0, 0.024, 0.007),
    PathLossSamples((20.0,), (120.0,)),
    META,
    ModelCard("NLOS", 73.5, 4.6, 11.4, Condition.NLOS, 10),
    ReceptionRow(2, 0.5, 6),
    CdfPoint(120.0, 1.0),
    ResultBundle(META, (), (), (ReceptionRow(1, 1.0, 1),),
                 {"best1_pl_db": [CdfPoint(120.0, 1.0)]}),
    B1,
    SweepGrid(),
    Scenario((B1,), (U1,), MODELS, BUDGET, SweepGrid(), PINNED, 0.5, 7),
    MaskSet({("U1", "B1"): 0b101}, 3),
    link_statistics(Scenario((B1,), (U1,), MODELS, conditions=PINNED)),
    # One link over two trials in one-byte lanes: masks 0b1, then 0b11.
    Drops(np.full((2, 1), 90.0), MaskSet({("U1", "B1"): 1 | 3 << 8}, 2, 2)),
]

# For each validated record: valid fields in field order with one bad
# value, and the message the check gives for it.  A NaN must fail each
# check that compares a float, so those checks are written negated.  Each
# row's key is its fixed test id, so adding a row renames no other.
INVALID = {
    "CiModel": (
        CiModel, (0.0, 2.0, 1.0),
        "f_ghz must be positive and finite, got 0.0"),
    "LinkBudget": (
        LinkBudget, (0.0,), "max_pl_db must be positive, got 0.0"),
    "LinkBudget_nan1": (
        LinkBudget, (math.nan,), "max_pl_db must be positive, got nan"),
    "PathLossSamples": (
        PathLossSamples, ((0.5,), (120.0,)),
        "sample distance must be finite and >= 1.0 m, got 0.5"),
    "ResultBundle0": (
        ResultBundle, (META, (), (), (), {"best1_pl_db": []}),
        "CDF 'best1_pl_db' is empty"),
    "ResultBundle1": (
        ResultBundle, (META, (ModelCard("LOS", 73.5, 2.0, 1.9, Condition.LOS),
                              ModelCard("LOS", 73.5, 2.1, 1.9, Condition.LOS)),
                       (), (), {}),
        "model card at index 1: duplicate condition LOS"),
    "RunMetadata0": (
        RunMetadata, ("simulate", "0.1.0", -3, 2, None),
        "seed: must be >= 0, got -3"),
    "RunMetadata1": (
        RunMetadata, ("simulate", "0.1.0", 7, 0, None),
        "trials: must be >= 1, got 0"),
    "ModelCard0": (
        ModelCard, ("NLOS", 73.5, 4.6, 11.4, Condition.NLOS, 0),
        "n_samples: must be >= 1, got 0"),
    "ModelCard1": (
        ModelCard, ("NLOS", 73.5, 0.0, 11.4, Condition.NLOS, None),
        "ple must be positive and finite, got 0.0"),
    "ModelCard_condition_label": (
        ModelCard, ("X", 73.5, 3.0, 11.4, "BOGUS", None),
        "condition: must be a Condition, got 'BOGUS'"),
    # Equal to Condition.NLOS but not it, so the `is` duplicate checks of
    # ResultBundle and load_model_cards would miss it.
    "ModelCard_condition_str": (
        ModelCard, ("NLOS", 73.5, 3.0, 11.4, "NLOS", None),
        "condition: must be a Condition, got 'NLOS'"),
    "OutageRow0": (
        OutageRow, ("FOO", 63.0, 0.5, 0.5),
        "condition must be one of ['LOS', 'NLOS', 'NLOS_BEST'], got 'FOO'"),
    "OutageRow1": (
        OutageRow, ("LOS", 0.5, 0.5, 0.5),
        "distance_m must be finite and >= 1.0 m, got 0.5"),
    "OutageRow2": (
        OutageRow, ("LOS", 63.0, 0.5, 1.5),
        "p_out_region must be in [0, 1], got 1.5"),
    "ReceptionRow0": (
        ReceptionRow, (0, 0.5, 6), "k must be >= 1, got 0"),
    "ReceptionRow1": (
        ReceptionRow, (2, -0.5, 6), "probability must be in [0, 1], got -0.5"),
    "ReceptionRow2": (
        ReceptionRow, (2, 0.5, 0), "n_combinations must be >= 1, got 0"),
    "Node0": (
        Node, ("B1", 0.0, 0.0, 0.0), "height_m must be positive, got 0.0"),
    "Node_nan": (
        Node, ("B1", 0.0, 0.0, math.nan), "height_m must be positive, got nan"),
    "Node1": (
        Node, ("B/1", 0.0, 0.0, 4.0), "id must not contain '/', got 'B/1'"),
    "SweepGrid": (
        SweepGrid, (0, 24, 3),
        "sweep grid counts must be integers >= 1, got (0, 24, 3)"),
    "SweepGrid_float_nan": (
        SweepGrid, (math.nan, 24, 3),
        "sweep grid counts must be integers >= 1, got (nan, 24, 3)"),
    "SweepGrid_float": (
        SweepGrid, (2.5, 24, 3),
        "sweep grid counts must be integers >= 1, got (2.5, 24, 3)"),
    "Scenario": (
        Scenario, ((), (U1,), MODELS, BUDGET, SweepGrid(), PINNED, 0.5, 7),
        "scenario needs at least one base station"),
    "Scenario_no_ues": (
        Scenario, ((B1,), (), MODELS, BUDGET, SweepGrid(), PINNED, 0.5, 7),
        "scenario needs at least one UE"),
    "Scenario_duplicate_id": (
        Scenario, ((B1, Node("B1", 9.0, 0.0, 4.0)), (U1,), MODELS, BUDGET,
                   SweepGrid(), PINNED, 0.5, 7),
        "duplicate base station id"),
    "Scenario_missing_model": (
        Scenario, ((B1,), (U1,), {Condition.LOS: MODELS[Condition.LOS]},
                   BUDGET, SweepGrid(), PINNED, 0.5, 7),
        "missing CI model for condition NLOS"),
    "Scenario_p_los": (
        Scenario, ((B1,), (U1,), MODELS, BUDGET, SweepGrid(), PINNED, 1.5, 7),
        "p_los must be in [0, 1], got 1.5"),
    "Scenario_pin_nlos_best": (
        Scenario, ((B1,), (U1,), MODELS, BUDGET, SweepGrid(),
                   {("U1", "B1"): Condition.NLOS_BEST}, 0.5, 7),
        "conditions: link U1/B1 must be LOS or NLOS"),
    # Bit 2 of a two-lane set over 2 directions is lane 0's guard bit.
    "MaskSet_wider_than_lanes": (
        MaskSet, ({("U1", "B1"): 0b100}, 2, 2),
        "reception mask for link ('U1', 'B1') does not fit 2 lane(s) of 2 bits"),
    "MaskSet_no_lanes": (
        MaskSet, ({("U1", "B1"): 1}, 2, 0), "lanes must be >= 1, got 0"),
}


def _name(record):
    return type(record).__name__


def test_every_record_class_is_covered():
    exported = [getattr(mmwcomp, name) for name in mmwcomp.__all__]
    records = {c for c in exported if isinstance(c, type) and issubclass(c, tuple)}
    assert records == {type(r) for r in RECORDS} and len(RECORDS) == 15
    checked = {c for c in records if hasattr(c.__new__, "__wrapped__")}
    assert (checked == {cls for cls, _, _ in INVALID.values()}
            and len(INVALID) == 32)


def test_record_fields():
    # The reference distance is the constant REFERENCE_DISTANCE_M, not a
    # field, and a sample carries no angle ids.  A condition is the key of
    # a models or samples mapping, never a field.
    assert CiModel._fields == ("f_ghz", "ple", "sigma_db")
    assert PathLossSamples._fields == ("d_m", "pl_db")


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize("cls,values,message", list(INVALID.values()),
                         ids=list(INVALID))
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
        assert copy.masks == record.masks
        np.testing.assert_array_equal(copy.omni_pl_db, record.omni_pl_db)
    else:
        assert copy == record


def test_drops_compare_by_identity():
    drops = RECORDS[-1]
    twin = Drops(*drops)
    assert drops == drops and not drops != drops
    assert twin != drops and not twin == drops
    assert len({drops, twin, drops}) == 2


def test_drops_share_comes_from_the_mask_set_alone():
    # The record carries its width and lane count, so no caller can reduce
    # these 50 trials as 100 lanes and read 0.5 where every subset receives.
    sc = load_scenario(Path(__file__).parents[1] / "configs/example_scenario.json")
    masks = simulate_drop(sc, 50).masks
    assert (masks.n_directions, masks.lanes) == (72, 50)
    assert [row.probability
            for row in _reception_rows(masks, sc.topology(), 2)] == [1.0, 1.0]
    assert masks.lane(49).lanes == 1
    with pytest.raises(IndexError, match=r"lane 50 is outside \[0, 50\)"):
        masks.lane(50)


def test_replace_copies_without_checking():
    assert NLOS._replace(sigma_db=-1.0).sigma_db == -1.0
    with pytest.raises(ValueError, match="sigma_db must be >= 0"):
        CiModel(*NLOS._replace(sigma_db=-1.0))


@pytest.mark.parametrize("pins,message", [
    ({"conditions": {("U9", "B1"): Condition.LOS}},
     "conditions: unknown UE id 'U9'"),
    ({"conditions": {("U1", "B7"): Condition.NLOS}},
     "conditions: unknown base station id 'B7'"),
    ({"conditions": {("U1", "B1"): Condition.NLOS_BEST}},
     "conditions: link U1/B1 must be LOS or NLOS"),
    ({"p_los": 1.5}, "p_los must be in [0, 1], got 1.5"),
    ({"p_los": math.nan}, "p_los must be in [0, 1], got nan"),
], ids=["unknown_ue", "unknown_bs", "nlos_best", "p_los_above_1", "p_los_nan"])
def test_scenario_checks_conditions_and_p_los(pins, message):
    # A pinned link must be one of the scenario's links, so none is
    # silently left to the Bernoulli draw.
    with pytest.raises(ValueError) as exc:
        Scenario((B1,), (U1,), **pins)
    assert str(exc.value) == message


# Each JSON record's schema as its annotations give it: the keys of a
# scenario file or one of its sections, a model card or metadata.json, in
# order, with each key's kind.  An annotation edit here is a change of file format.
SCHEMAS = [
    (Node, {"id": str, "x_m": float, "y_m": float, "height_m": float}),
    (CiModel, {"f_ghz": float, "ple": float, "sigma_db": float}),
    (LinkBudget, {"max_pl_db": float}),
    (SweepGrid, {"tx_angles": int, "rx_azimuths": int, "rx_elevations": int}),
    (Scenario, {"base_stations": tuple[Node, ...], "ues": tuple[Node, ...],
                "models": Mapping[Condition, CiModel], "budget": LinkBudget,
                "sweep": SweepGrid,
                "conditions": Mapping[tuple[str, str], Condition],
                "p_los": float, "seed": int}),
    (ModelCard, {"label": str, "f_ghz": float, "ple": float,
                 "sigma_db": float, "condition": Condition, "n_samples": int}),
    (RunMetadata, {"command": str, "package_version": str, "seed": int,
                   "trials": int, "timestamp": str}),
    (MaskSet, {"bits": Mapping[tuple[str, str], int], "n_directions": int,
               "lanes": int}),
]


@pytest.mark.parametrize("cls,kinds", SCHEMAS,
                         ids=[cls.__name__ for cls, _ in SCHEMAS])
def test_field_kinds_pin_the_json_schema(cls, kinds):
    assert list(field_kinds(cls).items()) == list(kinds.items())


class Probe(NamedTuple):
    name: str
    level: float
    condition: Condition
    count: int | None = None


@pytest.mark.parametrize("obj,expected", [
    ({"name": "a", "level": 2, "condition": "LOS"},
     Probe("a", 2.0, Condition.LOS)),
    ({"name": "a", "level": 2.5, "condition": "NLOS", "count": 3},
     Probe("a", 2.5, Condition.NLOS, 3)),
    ({"name": "a", "level": 2.5, "condition": "NLOS", "count": None},
     Probe("a", 2.5, Condition.NLOS)),
], ids=["int_as_float", "optional_given", "optional_null"])
def test_parse_record_reads_annotated_kinds(obj, expected):
    record = _parse_record(Probe, obj, "probe")
    assert record == expected and type(record.level) is float


@pytest.mark.parametrize("edit,message", [
    ({"name": None}, "probe.name: expected a non-empty string"),
    ({"level": None}, "probe.level: expected a number, got None"),
    ({"condition": None}, "probe.condition: expected one of "
                          "['LOS', 'NLOS', 'NLOS_BEST'], got None"),
    ({"name": 5}, "probe.name: expected a non-empty string"),
    ({"level": "2"}, "probe.level: expected a number, got '2'"),
    ({"condition": "FOO"}, "probe.condition: expected one of "
                           "['LOS', 'NLOS', 'NLOS_BEST'], got 'FOO'"),
    ({"count": 1.5}, "probe.count: expected an integer, got 1.5"),
    ({"count": True}, "probe.count: expected an integer, got True"),
    ({"colour": 1}, "probe: unknown key(s) ['colour']"),
], ids=["null_str", "null_float", "null_condition", "int_as_str",
        "str_as_float", "bad_condition", "float_as_int", "bool_as_int",
        "unknown_key"])
def test_parse_record_enforces_kinds(edit, message):
    obj = {"name": "a", "level": 2.0, "condition": "LOS", **edit}
    with pytest.raises(ScenarioError) as exc:
        _parse_record(Probe, obj, "probe")
    assert str(exc.value) == message


def test_parse_record_defaults():
    with pytest.raises(ScenarioError, match="^probe: missing required key 'level'$"):
        _parse_record(Probe, {"name": "a", "condition": "LOS"}, "probe")
    # Given defaults replace the record's own.
    assert _parse_record(Probe, {"name": "a", "condition": "NLOS"}, "probe",
                         {"level": 1.0, "count": 4}) == Probe(
        "a", 1.0, Condition.NLOS, 4)
    with pytest.raises(ScenarioError, match="^probe: missing required key 'count'$"):
        _parse_record(Probe, {"name": "a", "level": 1.0, "condition": "NLOS"},
                      "probe", {"level": 1.0})
