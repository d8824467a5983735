"""Scenario parsing, CSV round trips, result emission and the CLI."""

import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmwcomp
from mmwcomp import (CdfPoint, Condition, ModelCard, Node, OutageRow,
                     PathLossSamples, ReceptionRow, ResultBundle, RunMetadata,
                     Scenario, ScenarioError, build_cdf, combination_count,
                     emit_results, format_pct, link_statistics,
                     load_model_cards, load_scenario, load_topology,
                     parse_scenario, read_bundle, read_masks_csv,
                     read_samples_csv, reception_counts, simulate_drop)
from mmwcomp.cli import main
from mmwcomp.params import BS_HEIGHT_M, CAMPAIGN_SERVING_SETS, UE_HEIGHT_M

EXAMPLE_SCENARIO = (Path(__file__).resolve().parents[1] / "configs"
                    / "example_scenario.json")

SAMPLES_HEADER = "d_m,pl_db,condition,polarization\n"
MINIMAL = {
    "base_stations": [{"id": "B1", "x_m": 0.0, "y_m": 0.0}],
    "ues": [{"id": "U1", "x_m": 30.0, "y_m": 0.0}],
}


# Inputs that no reader may turn into an internal error: JSON nested past
# the recursion limit, and a CSV field past the csv module's field limit.
DEEP_JSON = b"[" * 100000 + b"]" * 100000
LONG_FIELD = b"9" * 200000


def write_samples(groups, path):
    """Write ``{condition: PathLossSamples}`` as the VV rows of a samples CSV."""
    path.write_text(SAMPLES_HEADER + "".join(
        f"{d_m!r},{pl_db!r},{cond.value},VV\n"
        for cond, samples in groups.items() for d_m, pl_db in zip(*samples)))


def write_masks(masks, path, n_directions=72):
    """Write ``masks`` in the ``rx_id,tx_id,mask`` format of ``read_masks_csv``:
    character i of a mask is its bit i."""
    path.write_text("rx_id,tx_id,mask\n" + "".join(
        f"{ue},{bs},{format(m, f'0{n_directions}b')[::-1]}\n"
        for (ue, bs), m in sorted(masks.items())))


def minimal(**extra):
    obj = json.loads(json.dumps(MINIMAL))
    obj.update(extra)
    return obj


class TestParseScenario:
    def test_defaults(self):
        sc = parse_scenario(minimal())
        assert sc.base_stations[0].height_m == 4.0
        assert sc.ues[0].height_m == 1.4
        assert sc.models[Condition.LOS].ple == 2.0
        assert sc.models[Condition.NLOS].sigma_db == 11.4
        assert sc.models[Condition.NLOS_BEST].ple == 2.9
        assert sc.budget.max_pl_db == 175.0
        assert sc.sweep.n_rx_directions == 72
        assert sc.p_los == pytest.approx(11 / 36)
        assert sc.seed == 73

    def test_file_defaults_are_the_record_defaults(self):
        # Only the node heights differ by role; every other key left out of
        # the file takes Scenario's own field default.
        bss = (Node("B1", 0.0, 0.0, BS_HEIGHT_M),)
        ues = (Node("U1", 30.0, 0.0, UE_HEIGHT_M),)
        assert parse_scenario(minimal()) == Scenario(bss, ues)
        assert parse_scenario(minimal(p_los=0.5, seed=9)) == Scenario(
            bss, ues, p_los=0.5, seed=9)
        with pytest.raises(TypeError):  # the default models are read-only
            Scenario(bss, ues).models[Condition.LOS] = None

    def test_schema_version(self):
        assert parse_scenario(minimal(schema_version=1)) == parse_scenario(
            minimal())

    def test_partial_models_merge_with_defaults(self):
        obj = minimal(models={"NLOS": {"f_ghz": 73.5, "ple": 3.4,
                                       "sigma_db": 9.7}})
        sc = parse_scenario(obj)
        assert sc.models[Condition.NLOS].ple == 3.4
        assert sc.models[Condition.LOS].ple == 2.0  # untouched default

    def test_explicit_conditions(self):
        sc = parse_scenario(minimal(conditions={"U1/B1": "NLOS"}))
        assert sc.conditions == {("U1", "B1"): Condition.NLOS}


# One corruption of a samples CSV row: the cell it replaces (None drops
# the last cell), the new text, and the message the reader gives for it.
SAMPLE_CORRUPTIONS = [
    (0, "abc", "could not convert string to float: 'abc'"),
    (2, "los", "'los' is not a valid Condition"),
    (2, "NLOS_BEST", "sample condition must be LOS or NLOS, got NLOS_BEST"),
    (0, "0.5", "sample distance must be finite and >= 1.0 m, got 0.5"),
    (0, "inf", "sample distance must be finite and >= 1.0 m, got inf"),
    (0, "nan", "sample distance must be finite and >= 1.0 m, got nan"),
    (1, "nan", "pl_db must be finite, got nan"),
    (3, "HH", "polarization must be one of ('VV', 'VH')"),
    (None, None, "expected 4 fields, got 3"),
]

sample_rows = st.lists(st.tuples(
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=-50.0, max_value=400.0),
    st.sampled_from(["LOS", "NLOS"]), st.sampled_from(["VV", "VH"]),
    st.sampled_from(["", " ", "\t "]),  # padding around the labels
    st.sampled_from([None, "", "  ", " , ,"])),  # a blank row after it
    min_size=1, max_size=50)


class TestSamplesCsv:
    @settings(max_examples=100, deadline=None)
    @given(rows=sample_rows, data=st.data())
    def test_columns_match_row_by_row_reference(self, rows, data):
        lines = ["d_m,pl_db,condition,polarization"]
        linenos, reference = [], {}
        for d_m, pl_db, label, pol, pad, blank in rows:
            lines.append(f"{d_m!r},{pl_db!r},{pad}{label}{pad},{pad}{pol}")
            linenos.append(len(lines))
            kept = reference.setdefault(Condition(label), [])
            if pol == "VV":
                kept.append((d_m, pl_db))
            if blank is not None:
                lines.append(blank)
        text = "\n".join(lines) + "\n"
        # One record per condition seen, LOS first, of its VV rows in order.
        expected = {c: PathLossSamples(*zip(*reference[c]))
                    for c in (Condition.LOS, Condition.NLOS) if c in reference}
        out = read_samples_csv(io.StringIO(text))
        assert out == expected and list(out) == list(expected)

        bad = data.draw(st.integers(0, len(rows) - 1))
        col, value, message = data.draw(st.sampled_from(SAMPLE_CORRUPTIONS))
        cells = lines[linenos[bad] - 1].split(",")
        if col is None:
            del cells[-1]
        else:
            cells[col] = value
        lines[linenos[bad] - 1] = ",".join(cells)
        text = "\n".join(lines) + "\n"
        with pytest.raises(ScenarioError) as exc:
            read_samples_csv(io.StringIO(text))
        assert str(exc.value) == f"samples CSV line {linenos[bad]}: {message}"

    def test_round_trip_exact(self, tmp_path):
        samples = {Condition.NLOS: PathLossSamples((63.0,), (152.49541205654867,)),
                   Condition.LOS: PathLossSamples((10.5, 20.0), (91.25, 0.1))}
        path = tmp_path / "samples.csv"
        write_samples(samples, path)
        back = read_samples_csv(path)
        assert back == samples  # repr text reloads bit-exact
        assert list(back) == [Condition.LOS, Condition.NLOS]

    def test_parse_basic_row(self):
        # A header cell may carry spaces around its name.
        for header in ("d_m,pl_db,condition,polarization",
                       "d_m, pl_db, condition, polarization"):
            buf = io.StringIO(f"{header}\n63,152.5,NLOS,VV\n")
            assert read_samples_csv(buf) == {
                Condition.NLOS: PathLossSamples((63.0,), (152.5,))}

    def test_header_only_is_empty(self):
        assert read_samples_csv(io.StringIO(SAMPLES_HEADER)) == {}


class TestMasksCsv:
    def test_round_trip(self, tmp_path):
        for n_directions in (72, 5):
            bits = "".join("0" if i % 3 == 0 else "1"
                           for i in range(n_directions))
            masks = {("U1", "B1"): int(bits[::-1], 2), ("U1", "B2"): 1}
            path = tmp_path / f"masks{n_directions}.csv"
            write_masks(masks, path, n_directions=n_directions)
            assert path.read_text().splitlines()[1] == f"U1,B1,{bits}"
            assert read_masks_csv(path) == (masks, n_directions)

    def test_char_i_is_bit_i(self):
        buf = io.StringIO("rx_id,tx_id,mask\nU1,B1,1100\n")
        assert read_masks_csv(buf) == ({("U1", "B1"): 0b0011}, 4)


def test_load_topology(tmp_path, rejects):
    path = tmp_path / "topology.json"
    path.write_text(json.dumps({u: list(s)
                                for u, s in CAMPAIGN_SERVING_SETS.items()}))
    assert load_topology(path) == CAMPAIGN_SERVING_SETS
    path.write_text(json.dumps({"U1": []}))
    rejects(lambda: load_topology(path), ScenarioError,
            f"{path}: U1: expected a non-empty array of base station ids")


# format_pct's text for each fraction, keyed by the fraction's literal:
# one fixed decimal from 0.01 % up, scientific notation below it.
PCT_TEXT = {
    "0.024186": "2.4", "0.555555": "55.6", "1.0": "100.0", "0.0": "0.0",
    "6.942e-7": "6.9E-5", "1.757e-7": "1.8E-5", "7.066e-5": "7.1E-3",
    "1e-4": "0.0",  # exactly 0.01 % stays fixed
    "0.99e-4": "9.9E-3",
}


@pytest.mark.parametrize("fraction, text", list(PCT_TEXT.items()),
                         ids=list(PCT_TEXT))
def test_format_pct(fraction, text):
    assert format_pct(float(fraction)) == text


# Bundles of every shape emit_results writes: fractions include 0, 1 and
# subnormals, and any record may be absent.
_fractions = st.floats(min_value=0.0, max_value=1.0)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_counts = st.integers(1, 2**70)
_texts = st.text(min_size=1, max_size=8)
BUNDLES = st.builds(
    ResultBundle,
    metadata=st.builds(RunMetadata, _texts, _texts,
                       st.none() | st.integers(0, 2**70), st.none() | _counts,
                       st.none() | _texts),
    # At most one card per condition, as fit writes them.
    model_cards=st.lists(st.builds(
        ModelCard, _texts, st.floats(1e-300, 1e300), st.floats(1e-300, 1e300),
        st.floats(0.0, 1e300), st.sampled_from(Condition),
        st.none() | _counts), max_size=3, unique_by=lambda c: c.condition),
    outage_rows=st.lists(st.builds(
        OutageRow, st.sampled_from([c.value for c in Condition]),
        st.floats(min_value=1.0, allow_infinity=False), _fractions, _fractions),
        max_size=4),
    reception_rows=st.lists(st.builds(
        ReceptionRow, st.integers(1, 12), _fractions, _counts), max_size=4),
    cdfs=st.dictionaries(
        st.from_regex(r"[a-z0-9_]{1,10}", fullmatch=True),
        st.lists(_finite, min_size=1, max_size=6).map(build_cdf), max_size=3))


class TestResults:
    def test_build_cdf(self):
        pts = build_cdf([3.0, 1.0, 2.0, math.inf])
        assert [p.x for p in pts] == [1.0, 2.0, 3.0]
        assert pts[-1].p == 1.0

    def test_emit_outage_schema_and_determinism(self, tmp_path):
        bundle = ResultBundle(
            RunMetadata("coverage", "0.1.0"),
            outage_rows=[OutageRow("NLOS", 63.0, 0.024186, 0.00742),
                         OutageRow("NLOS_BEST", 63.0, 6.942e-7, 1.757e-7)])
        first = {p.name: p.read_bytes()
                 for p in emit_results(bundle, tmp_path / "a")}
        second = {p.name: p.read_bytes()
                  for p in emit_results(bundle, tmp_path / "b")}
        assert first == second
        text = first["outage.csv"].decode()
        lines = text.splitlines()
        assert lines[0] == "condition,distance_m,p_out_edge_pct,p_out_region_pct"
        assert lines[1] == "NLOS,63,2.4,0.7"
        assert lines[2] == "NLOS_BEST,63,6.9E-5,1.8E-5"
        meta = json.loads(first["metadata.json"])
        assert meta["timestamp"] is None

    def test_model_cards_round_trip(self, tmp_path):
        cards = [ModelCard("NLOS", 73.5, 4.5987654321, 11.40123456789,
                           Condition.NLOS, n_samples=10000)]
        bundle = ResultBundle(RunMetadata("fit", "0.1.0"), model_cards=cards)
        emit_results(bundle, tmp_path)
        [back] = load_model_cards(tmp_path / "models.json")
        assert back.ple == pytest.approx(cards[0].ple, abs=1e-9)
        assert back.sigma_db == pytest.approx(cards[0].sigma_db, abs=1e-9)
        assert back.condition is Condition.NLOS
        assert back.to_model().ple == back.ple

    def test_model_card_fields_are_written_by_kind(self, tmp_path):
        # Float fields are floats in JSON even when built from ints, and a
        # None field is left out.
        emit_results(ResultBundle(RunMetadata("fit", "0.1.0"), model_cards=[
            ModelCard("LOS", 73, 2, 0, Condition.LOS)]), tmp_path)
        assert json.loads((tmp_path / "models.json").read_text()) == [{
            "label": "LOS", "f_ghz": 73.0, "ple": 2.0, "sigma_db": 0.0,
            "condition": "LOS"}]
        assert '"f_ghz": 73.0' in (tmp_path / "models.json").read_text()

    @settings(max_examples=60, deadline=None)
    @given(bundle=BUNDLES)
    @example(bundle=ResultBundle(
        RunMetadata("coverage", "0.1.0"),
        outage_rows=[OutageRow("LOS", 42.0, 1.04e-322, 0.0)],
        reception_rows=[ReceptionRow(1, 1.04e-322, 1),
                         ReceptionRow(2, 1.0, 3)]))
    def test_bundle_round_trips_through_read_bundle(self, bundle):
        # emit, read back, emit again: the same files, byte for byte.
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first"), Path(tmp, "second")
            emit_results(bundle, first)
            emit_results(read_bundle(first), second)
            assert _files(first) == _files(second)


# The condition label of line 3 goes in {}.
LABELLED = SAMPLES_HEADER + "63,152.5, NLOS ,VV\n70,150,{},VV\n"
MASK_72 = "1" * 72
# Library calls on bad input: (call, exception class, its exact text).
REJECTIONS = {
    **{f"samples_{case}": (lambda text=text: read_samples_csv(io.StringIO(text)),
                           ScenarioError, "samples CSV" + message)
       for case, text, message in [
           ("distance_0.5", SAMPLES_HEADER + "63,152.5,NLOS,VV\n0.5,80,LOS,VV\n",
            " line 3: sample distance must be finite and >= 1.0 m, got 0.5"),
           ("label_los", LABELLED.format("los"),
            " line 3: 'los' is not a valid Condition"),
           ("label_empty", LABELLED.format(""),
            " line 3: '' is not a valid Condition"),
           ("label_NLOS_BEST", LABELLED.format("NLOS_BEST"), " line 3: sample "
            "condition must be LOS or NLOS, got NLOS_BEST"),
           ("header_mismatch", "distance,pl\n1,2\n",
            " line 1: header must be d_m,pl_db,condition,polarization"),
           ("empty_file", "", ": empty file")]},
    **{f"masks_{case}": (lambda row=row: read_masks_csv(io.StringIO(
        f"rx_id,tx_id,mask\nU1,B1,{MASK_72}\n{row}\n")), ScenarioError,
        f"masks CSV line 3: {message}") for case, row, message in [
            ("mask_length", "U1,B2,101", "mask must be 72 chars of 0/1"),
            ("duplicate_link", f"U1,B1,{MASK_72}",
             "duplicate link ('U1', 'B1')")]},
    **{f"format_pct_{x}": (lambda x=x: format_pct(x), ValueError,
                           f"fraction must be finite, got {x}")
       for x in (math.nan, math.inf)},
    "build_cdf_inf": (lambda: build_cdf([math.inf]), ValueError,
                      "no finite values to build a CDF from"),
    **{f"cdf_{case}": (
        lambda points=points: ResultBundle(RunMetadata("test", "0"),
                                           cdfs={"x": points}),
        ValueError, f"CDF 'x' {message}") for case, points, message in [
            ("x_decreasing", [CdfPoint(2.0, 0.5), CdfPoint(1.0, 1.0)],
             "x values must be non-decreasing"),
            ("not_ending_at_1", [CdfPoint(1.0, 0.5)],
             "must end at probability 1, got 0.5"),
            ("non_finite_x", [CdfPoint(math.inf, 1.0)],
             "has a non-finite x value"),
            ("p_above_1", [CdfPoint(1.0, 1.5)],
             "probabilities must rise to at most 1")]},
    # A ScenarioError, not a bare ValueError.
    "scenario_schema_version_2": (
        lambda: parse_scenario(minimal(schema_version=2)), ScenarioError,
        "scenario.schema_version: unsupported version 2 (supported: 1)"),
    "package_unknown_name": (
        lambda: mmwcomp.no_such_name, AttributeError,
        "module 'mmwcomp' has no attribute 'no_such_name'"),
}


@pytest.mark.parametrize("call, error, message", list(REJECTIONS.values()),
                         ids=list(REJECTIONS))
def test_library_rejects(call, error, message, rejects):
    rejects(call, error, message)


SCENARIO_JSON = {
    "base_stations": [{"id": "B1", "x_m": 0.0, "y_m": 0.0},
                      {"id": "B2", "x_m": 80.0, "y_m": 0.0}],
    "ues": [{"id": "U1", "x_m": 30.0, "y_m": 20.0}],
    "seed": 7,
}

# Three UEs listed out of id order and two base stations, far enough apart
# that some links go undetected and reception differs from trial to trial.
FAR_SCENARIO_JSON = {
    "base_stations": [{"id": "B2", "x_m": 150.0, "y_m": 0.0},
                      {"id": "B1", "x_m": 0.0, "y_m": 0.0}],
    "ues": [{"id": "U3", "x_m": 140.0, "y_m": 10.0},
            {"id": "U1", "x_m": 10.0, "y_m": 5.0},
            {"id": "U2", "x_m": 75.0, "y_m": 30.0}],
    "budget": {"max_pl_db": 110.0}, "seed": 11,
}


def scenario_json(**extra) -> bytes:
    return json.dumps(minimal(**extra)).encode()


SAMPLES = SAMPLES_HEADER.encode()
MASKS = b"rx_id,tx_id,mask\n"
OUTAGE = b"condition,distance_m,p_out_edge_pct,p_out_region_pct\n"
MASK_U1_B1 = b"U1,B1,1" + b"0" * 71 + b"\n"
CARD = {"label": "NLOS", "f_ghz": 73.5, "ple": 4.6, "sigma_db": 11.4,
        "condition": "NLOS", "n_samples": 10}
# Valid scenarios whose one link is too short, or too long, to simulate:
# squaring 1e200 overflows, and 1e308 - -1e308 is inf.
BAD_LINKS = {
    "shorter-than-reference": (0.0, 0.5, "is shorter than the CI model's "
                               "1.0 m reference"),
    "far-1e200": (1e200, 0.0, "is too long for its length to be a finite "
                  "float"),
    "far-pm1e308": (1e308, -1e308, "is too long for its length to be a "
                    "finite float"),
}


def bad_link_scenario(bs_x, ue_x) -> bytes:
    return scenario_json(base_stations=[{"id": "B1", "x_m": bs_x, "y_m": 0.0,
                                         "height_m": 1.4}],
                         ues=[{"id": "U1", "x_m": ue_x, "y_m": 0.0}])


# Inputs that exit 1 with nothing on stdout: (id, argv, file name, file
# bytes or None for no file, stderr after "error: ").  A message that ends
# in a newline is the whole of stderr; one without is a prefix, where
# Python words the rest.  {path} is the row's file and {dir} the directory
# of every file.  {topo} is a topology serving U1 from B1 and B2, and {cov},
# {sim} and {fit} are bundles that coverage, a 3-trial simulate and a fit
# write first; a row may replace one of their files.
EXIT_1 = [
    *((f"scenario-{case}", "coverage --scenario {path}", "scenario.json", data,
       "{path}: " + message) for case, data, message in [
        ("deep", DEEP_JSON, "invalid JSON (maximum recursion depth exceeded"),
        ("not-utf8", b'{"seed": 7\xff}',
         "invalid JSON ('utf-8' codec can't decode byte 0xff"),
        ("invalid-json", b"{not json", "invalid JSON ("),
        ("top-level", b"[1, 2]", "scenario: top level must be an object\n"),
        ("models", scenario_json(models=[1]),
         "scenario.models: expected an object\n"),
        ("conditions", scenario_json(conditions=[1]), "scenario.conditions: "
         "expected an object mapping 'ue/bs' to a condition\n"),
        ("budget", scenario_json(budget=5),
         "scenario.budget: expected an object\n"),
        ("unknown-bs", scenario_json(conditions={"U1/B9": "NLOS"}),
         "scenario: conditions: unknown base station id 'B9'\n"),
        ("unknown-ue", scenario_json(conditions={"U9/B1": "NLOS"}),
         "scenario: conditions: unknown UE id 'U9'\n"),
        ("pin-nlos_best", scenario_json(conditions={"U1/B1": "NLOS_BEST"}),
         "scenario.conditions.U1/B1: explicit link condition must be LOS or "
         "NLOS\n"),
        ("pin-without-slash", scenario_json(conditions={"U1B1": "NLOS"}),
         "scenario.conditions.U1B1: link key must look like 'ue_id/bs_id'\n"),
        ("p_los", scenario_json(p_los=2),
         "scenario: p_los must be in [0, 1], got 2.0\n"),
        ("duplicate-ue", scenario_json(ues=MINIMAL["ues"] * 2),
         "scenario: duplicate UE id\n"),
        ("slash-in-id", scenario_json(base_stations=[
            {"id": "B/1", "x_m": 0.0, "y_m": 0.0}]),
         "scenario.base_stations[0]: id must not contain '/', got 'B/1'\n"),
        ("missing-ues", json.dumps({"base_stations": MINIMAL["base_stations"]})
         .encode(), "scenario.ues: expected a non-empty array\n"),
        ("schema_version-2", scenario_json(schema_version=2),
         "scenario.schema_version: unsupported version 2 (supported: 1)\n"),
        ("schema_version-true", scenario_json(schema_version=True),
         "scenario.schema_version: expected an integer, got True\n"),
        ("schema_version-float", scenario_json(schema_version=1.0),
         "scenario.schema_version: expected an integer, got 1.0\n"),
        ("unknown-key", scenario_json(extra_field=1),
         "scenario: unknown key(s) ['extra_field']\n"),
        ("unknown-node-key", scenario_json(base_stations=[
            {"id": "B1", "x_m": 0.0, "y_m": 0.0, "colour": "red"}]),
         "scenario.base_stations[0]: unknown key(s) ['colour']\n"),
        # A model's condition is its key, so the entry may not restate it.
        ("model-condition-key", scenario_json(models={"LOS": {
            "f_ghz": 73.5, "ple": 2.0, "sigma_db": 1.9, "condition": "LOS"}}),
         "scenario.models.LOS: unknown key(s) ['condition']\n"),
        ("negative-sigma", scenario_json(models={"LOS": {
            "f_ghz": 73.5, "ple": 2.0, "sigma_db": -1.0}}),
         "scenario.models.LOS: sigma_db must be >= 0, got -1.0\n"),
        ("string-x_m", scenario_json(ues=[{"id": "U1", "x_m": "thirty",
                                            "y_m": 0.0}]),
         "scenario.ues[0].x_m: expected a number, got 'thirty'\n"),
        ("string-max_pl_db", scenario_json(budget={"max_pl_db": "high"}),
         "scenario.budget.max_pl_db: expected a number, got 'high'\n"),
        ("negative-seed", scenario_json(seed=-1),
         "scenario.seed: must be non-negative, got -1\n"),
        # json.dumps writes the NaN and Infinity literals, which the reader
        # decodes; an integer beyond the float range reads as inf.
        ("max_pl_db-NaN", scenario_json(budget={"max_pl_db": math.nan}),
         "scenario.budget.max_pl_db: expected a finite number, got nan\n"),
        ("x_m-Infinity", scenario_json(ues=[{"id": "U1", "x_m": math.inf,
                                              "y_m": 0.0}]),
         "scenario.ues[0].x_m: expected a finite number, got inf\n"),
        ("y_m-huge-integer", scenario_json(base_stations=[
            {"id": "B1", "x_m": 0.0, "y_m": 10 ** 400}]),
         "scenario.base_stations[0].y_m: expected a finite number, got inf\n"),
        # No output depends on the transmit power or the antenna gains, and
        # a bandwidth is already folded into the maximum path loss.
        *((key, scenario_json(**{section: {key: value}}),
           f"scenario.{section}: unknown key(s) ['{key}']\n")
          for section, key, value in [
              ("sweep", "tx_step_deg", 8.0), ("sweep", "rx_step_deg", 15.0),
              ("budget", "snr_threshold_db", 5.0), ("budget", "pt_dbm", 14.9),
              ("budget", "gt_dbi", 14.9), ("budget", "gr_dbi", 14.9),
              ("budget", "bw_ghz", 14.9)])]),
    *((f"scenario-negative-ple-{argv.split()[0]}", argv, "scenario.json",
       scenario_json(models={"NLOS": {"f_ghz": 73.5, "ple": -1.0,
                                      "sigma_db": 8.0}}),
       "{path}: scenario.models.NLOS: ple must be positive and finite, "
       "got -1.0\n")
      for argv in ("coverage --scenario {path}",
                   "simulate --scenario {path} --trials 1")),
    ("simulate-missing-scenario", "simulate --scenario {path}", "nope.json",
     None, "[Errno 2] No such file or directory: '{path}'\n"),
    ("simulate-no-nodes", "simulate --scenario {path}", "bad.json",
     b'{"base_stations": [], "ues": []}',
     "{path}: scenario.base_stations: expected a non-empty array\n"),
    # Every flag is checked before simulate_drop runs.
    *((f"simulate-{flag}-{value}", f"simulate --scenario {{path}} --{flag} "
       f"{value}", "scenario.json", json.dumps(SCENARIO_JSON).encode(),
       f"--{flag} {message}, got {value}\n") for flag, value, message in [
           ("k-max", 9, "must be in [1, 2]"), ("k-max", 0, "must be in [1, 2]"),
           ("trials", 0, "must be >= 1"), ("seed", -5, "must be non-negative")]),
    ("coverage-models-and-scenario",
     "coverage --models {fit}/models.json --scenario {path}", "scenario.json",
     json.dumps(SCENARIO_JSON).encode(),
     "--models and --scenario are mutually exclusive\n"),
    *((f"coverage-distances-{distances}", f"coverage --distances {distances}",
       None, None, f"{message}\n") for distances, message in [
           ("100,nan", "--distances radius 'nan' is not finite"),
           ("inf", "--distances radius 'inf' is not finite"),
           ("1e400", "--distances radius '1e400' is not finite"),
           ("a", "bad --distances value 'a'"),
           (",", "--distances must list at least one radius"),
           ("0.5", "--distances radius '0.5' must be >= 1.0 m"),
           ("63,0", "--distances radius '0' must be >= 1.0 m")]),
    ("coverage-distances--5", "coverage --distances=-5", None, None,
     "--distances radius '-5' must be >= 1.0 m\n"),
    ("models-deep", "coverage --models {path}", "models.json", DEEP_JSON,
     "{path}: invalid JSON (maximum recursion depth exceeded"),
    ("models-invalid-json", "coverage --models {path}", "models.json",
     b"not json", "{path}: invalid JSON ("),
    ("models-not-array", "coverage --models {path}", "models.json", b"{}",
     "{path}: expected an array of model cards\n"),
    ("models-empty", "coverage --models {path}", "models.json", b"[]",
     "{path}: no model cards\n"),
    ("models-duplicate-condition", "coverage --models {path}", "models.json",
     json.dumps([CARD, {**CARD, "ple": 3.0}]).encode(),
     "{path}: bad model card at index 1: duplicate condition NLOS\n"),
    ("samples-long-field", "fit --samples {path}", "samples.csv",
     SAMPLES + b"63," + LONG_FIELD + b",NLOS,VV\n",
     "samples CSV line 2: field larger than field limit (131072)"),
    ("samples-bad-row-before-long-field", "fit --samples {path}",
     "samples.csv",
     SAMPLES + b"63,152.5,NLOS_BEST,VV\n63," + LONG_FIELD + b",NLOS,VV\n",
     "samples CSV line 2: sample condition must be LOS or NLOS, got "
     "NLOS_BEST\n"),
    ("samples-bad-row-before-short-row", "fit --samples {path}", "samples.csv",
     SAMPLES + b"63,152.5,NLOS,VV\n0.5,80,LOS,VV\n63,152.5,NLOS\n",
     "samples CSV line 3: sample distance must be finite and >= 1.0 m, "
     "got 0.5\n"),
    ("samples-not-utf8", "fit --samples {path}", "samples.csv",
     SAMPLES + b"63,152.5,NLOS,V\xff\n",
     "samples CSV line 2: 'utf-8' codec can't decode byte 0xff"),
    *((f"fit-distance-{d_m}", "fit --samples {path}", "samples.csv",
       SAMPLES + f"{d_m},130,NLOS,VV\n20,120,NLOS,VV\n".encode(),
       "samples CSV line 2: sample distance must be finite and >= 1.0 m, "
       f"got {float(d_m)}\n") for d_m in ("inf", "nan")),
    ("fit-single-distance", "fit --samples {path}", "samples.csv",
     SAMPLES + b"50,140,NLOS,VV\n50,150,NLOS,VV\n",
     "{path}: NLOS: samples must span at least two distinct distances\n"),
    ("fit-f_ghz-before-samples", "fit --samples {path} --f-ghz -1",
     "missing.csv", None, "--f-ghz must be positive and finite, got -1.0\n"),
    ("topology-deep", "enumerate --topology {path}", "topology.json",
     DEEP_JSON, "{path}: invalid JSON (maximum recursion depth exceeded"),
    ("topology-empty", "enumerate --topology {path}", "topology.json", b"{}",
     "{path}: expected a non-empty object\n"),
    ("topology-duplicate-bs", "enumerate --topology {path}", "topology.json",
     b'{"U1": ["B1", "B1"]}', "{path}: U1: duplicate base station id\n"),
    ("topology-empty-user", "enumerate --topology {path}", "topology.json",
     b'{"": ["B1"]}', "{path}: empty user id\n"),
    ("topology-empty-bs", "enumerate --topology {path}", "topology.json",
     b'{"U1": ["", "B1"]}', "{path}: U1: empty base station id\n"),
    *((f"masks-{case}", "enumerate --topology {topo} --masks {path}",
       "masks.csv", MASKS + rows, message) for case, rows, message in [
           ("long-field", b"U1,B1," + LONG_FIELD + b"\n",
            "masks CSV line 2: field larger than field limit (131072)"),
           ("short-row", b"U1,B1,1\nU1,B2\n",
            "masks CSV line 3: expected 3 fields, got 2\n"),
           ("long-row", b"U1,B1,1,0\n",
            "masks CSV line 2: expected 3 fields, got 4\n"),
           ("blank-rx_id", b"U1,B1,1\n ,B1,1\n",
            "masks CSV line 3: rx_id and tx_id must be non-empty\n"),
           ("blank-tx_id", b"U1,,1\n",
            "masks CSV line 2: rx_id and tx_id must be non-empty\n"),
           ("bad-char", b"U1,B1,1021\n",
            "masks CSV line 2: mask must be 4 chars of 0/1\n"),
           ("empty-mask", b"U1,B1,\n",
            "masks CSV line 2: mask must be one or more chars of 0/1\n"),
           ("missing-link", MASK_U1_B1,
            "{path}: missing reception mask for link ('U1', 'B2')\n")]),
    # The flags are checked before any file is read.
    ("enumerate-out-without-masks", "enumerate --topology {path} --out {dir}/d",
     "t.json", None, "--out needs --masks: enumerate without masks writes no "
     "bundle\n"),
    ("bundle-without-metadata", "report --bundle {dir}", "outage.csv", b"",
     "{dir}: not a result bundle (missing metadata.json)\n"),
    ("metadata-deep", "report --bundle {dir}", "metadata.json", DEEP_JSON,
     "{path}: invalid JSON (maximum recursion depth exceeded"),
    ("card-missing-f_ghz", "report --bundle {fit}", "fit/models.json",
     json.dumps([{k: v for k, v in CARD.items() if k != "f_ghz"}]).encode(),
     "{path}: bad model card at index 0: missing required key 'f_ghz'\n"),
]
# Rows of the same shape, each set under the test that first checked it.
# The scenario is valid, so only the link checks can name the link.
BAD_LINK_ROWS = [(link, "simulate --scenario {path} --trials 2",
                  "scenario.json", bad_link_scenario(bs_x, ue_x),
                  f"{{path}}: link U1/B1 {message}\n")
                 for link, (bs_x, ue_x, message) in BAD_LINKS.items()]
BAD_CARD_ROWS = [
    (card, "coverage --models {path} --distances 63", "models.json",
     json.dumps([{**CARD, key: value}]).encode(),
     f"{{path}}: bad model card at index 0: {message}\n")
    for card, key, value, message in [
        ("negative-ple", "ple", -1.0,
         "ple must be positive and finite, got -1.0"),
        ("zero-ple", "ple", 0.0, "ple must be positive and finite, got 0.0"),
        ("negative-sigma", "sigma_db", -3.0, "sigma_db must be >= 0, got -3.0"),
        ("bool-f_ghz", "f_ghz", True, "f_ghz: expected a number, got True"),
        ("string-ple", "ple", "2.0", "ple: expected a number, got '2.0'"),
        ("string-n_samples", "n_samples", "many",
         "n_samples: expected an integer, got 'many'"),
        ("negative-n_samples", "n_samples", -5,
         "n_samples: must be >= 1, got -5"),
        ("zero-n_samples", "n_samples", 0, "n_samples: must be >= 1, got 0"),
        ("unknown-key", "rms_db", 1.0, "unknown key(s) ['rms_db']"),
        ("legacy-key", "rms_residual_db", 11.4,
         "unknown key(s) ['rms_residual_db']")]]
# One error line, no warning; a failed fit also names its condition.
FIT_ERROR_ROWS = [
    (case, "fit --samples {path}", "samples.csv", SAMPLES + rows,
     "{path}: " + message) for case, rows, message in [
        ("header_only", b"", "no usable samples; the file contains a header "
         "but no data rows\n"),
        ("los_only_vh",
         b"20,120,LOS,VH\n40,130,LOS,VH\n20,120,NLOS,VV\n40,130,NLOS,VV\n",
         "LOS: no usable samples (cross-polarized rows are never fitted)\n"),
        ("one_row", b"20,120,NLOS,VV\n",
         "NLOS: need at least 2 samples, got 1\n"),
        ("falling", b"20,60,LOS,VV\n40,50,LOS,VV\n",
         "LOS: samples fit a path loss exponent of -1.03903; the CI model "
         "needs ple > 0\n")]]
BAD_F_GHZ_ROWS = [
    (f_ghz, f"fit --samples {{path}} --f-ghz={f_ghz}", "samples.csv",
     SAMPLES + b"20,120,NLOS,VV\n40,130,NLOS,VV\n",
     f"--f-ghz must be positive and finite, got {float(f_ghz)}\n")
    for f_ghz in ("nan", "inf", "-inf", "0", "-1")]
K_BELOW_1_ROWS = [
    (f"{with_masks}-{k}", "enumerate --topology {topo} --k " + k
     + " --masks {path}" * with_masks, "masks.csv",
     MASKS + MASK_U1_B1 + b"U1,B2,01" + b"0" * 70 + b"\n",
     f"--k must be >= 1, got {k}\n")
    for k in ("0", "-2") for with_masks in (False, True)]
BAD_METADATA_ROWS = [
    (meta, "report --bundle {dir}", "metadata.json", text,
     f"{{path}}: {message}") for meta, text, message in [
        ("array", b"[1, 2]", "expected a JSON object\n"),
        ("invalid", b"{not json", "invalid JSON ("),
        ("wrong_types", b'{"command": 5, "seed": "x"}',
         "command: expected a non-empty string\n"),
        ("unknown_key",
         b'{"command": "fit", "package_version": "0.1.0", "colour": 1}',
         "unknown key(s) ['colour']\n"),
        ("null_command", b'{"command": null, "package_version": "0.1.0"}',
         "command: expected a non-empty string\n"),
        ("float_seed",
         b'{"command": "fit", "package_version": "0.1.0", "seed": 1.5}',
         "seed: expected an integer, got 1.5\n")]]
# report reads every file of a bundle before it prints.
BUNDLE_FILE_ROWS = [
    (case, "report --bundle {cov}", f"cov/{name}", data, "{path}" + message)
    for case, name, data, message in [
        ("outage", "outage.csv", b"condition,distance_m\nNLOS,63,\xff\n",
         " line 2: 'utf-8' codec can't decode byte 0xff"),
        ("reception", "reception.csv",
         b"k,p_reception_pct,n_combinations\n1,\xff,1\n",
         " line 2: 'utf-8' codec can't decode byte 0xff"),
        ("outage_not_a_number", "outage.csv", OUTAGE + b"LOS,abc,,\n",
         " line 2: distance_m must be a number, got 'abc'\n"),
        ("outage_not_as_written", "outage.csv",
         OUTAGE + b"NLOS,63,2.4,0.7\nNLOS,63.0,2.4,0.7\n",
         " line 3: distance_m must read '63', got '63.0'\n"),
        ("outage_short_row", "outage.csv", OUTAGE + b"NLOS,63,2.4\n",
         " line 2: expected 4 fields, got 3\n"),
        ("outage_long_row", "outage.csv", OUTAGE + b"NLOS,63,2.4,0.7,9\n",
         " line 2: expected 4 fields, got 5\n"),
        ("reception_header", "reception.csv", b"k,p\nfoo,bar,baz\n",
         " line 1: header must be k,p_reception_pct,n_combinations\n"),
        ("reception_k", "reception.csv",
         b"k,p_reception_pct,n_combinations\nfoo,50.0,2\n",
         " line 2: k must be a number, got 'foo'\n"),
        ("reception_pct", "reception.csv",
         b"k,p_reception_pct,n_combinations\n1,x%,2\n",
         " line 2: p_reception_pct must be a number, got 'x%'\n"),
        ("outage_record", "outage.csv",
         OUTAGE + b"NLOS,63,2.4,0.7\nFOO,nan,150.0,-5.0\n",
         " line 3: condition must be one of ['LOS', 'NLOS', 'NLOS_BEST'], "
         "got 'FOO'\n"),
        ("reception_record", "reception.csv",
         b"k,p_reception_pct,n_combinations\n1,150.0,2\n",
         " line 2: probability must be in [0, 1], got 1.5\n"),
        ("metadata_record", "metadata.json",
         b'{"command": "simulate", "package_version": "0.1.0", '
         b'"seed": -3, "trials": -5}', ": seed: must be >= 0, got -3\n")]]
BAD_CDF_ROWS = [
    (case, "report --bundle {sim}", "sim/cdf_best1_pl_db.csv", text,
     "{path}" + message) for case, text, message in [
        ("non_numeric", b"x,p\n120.5,0.5\nabc,1.0\n",
         " line 3: x must be a number, got 'abc'\n"),
        ("header_only", b"x,p\n", ": no CDF points below the header\n"),
        ("p_non_numeric", b"x,p\n120.5,0.5\n130,abc\n",
         " line 3: p must be a number, got 'abc'\n"),
        ("p_not_ending_at_1", b"x,p\n120.5,0.25\n130,0.5\n",
         ": CDF 'cdf_best1_pl_db.csv' must end at probability 1, got 0.5\n")]]


def write_scenario(directory, scenario=SCENARIO_JSON) -> str:
    """Write ``scenario`` to ``directory`` and return its path."""
    path = directory / "scenario.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def exit_1_rows(rows):
    return pytest.mark.parametrize("row", rows, ids=[row[0] for row in rows])


def write_golden_inputs(tmp_path):
    """Write a small samples CSV, topology and masks file to ``tmp_path``
    and return their paths; the golden tests pin the outputs on them."""
    samples = tmp_path / "samples.csv"
    samples.write_text(SAMPLES_HEADER +
                       "20,120.5,NLOS,VV\n45,141.25,NLOS,VV\n"
                       "90,150,NLOS,VV\n150,163.75,NLOS,VH\n"
                       "10,88.5,LOS,VV\n35,101,LOS,VV\n")
    topo = tmp_path / "topology.json"
    topo.write_text('{"U1": ["B1", "B2", "B3"], "U2": ["B2", "B3"]}')
    masks = tmp_path / "masks.csv"
    masks.write_text("rx_id,tx_id,mask\nU1,B1,1100\nU1,B2,0011\n"
                     "U1,B3,1010\nU2,B2,0111\nU2,B3,1000\n")
    return samples, topo, masks


class TestCli:
    def test_coverage_stdout(self, capsys):
        assert main(["coverage"]) == 0
        out = capsys.readouterr().out
        assert "NLOS 63 2.4 0.7" in out
        assert "NLOS_BEST 63 6.9E-5 1.8E-5" in out

    def test_coverage_custom_distances(self, capsys):
        assert main(["coverage", "--distances", "63"]) == 0
        out = capsys.readouterr().out
        assert "NLOS 200" not in out

    def test_simulate_deterministic_bytes(self, tmp_path, capsys):
        sc = write_scenario(tmp_path)
        for sub in ("a", "b"):
            assert main(["simulate", "--scenario", sc, "--trials", "5",
                         "--out", str(tmp_path / sub)]) == 0
        assert _files(tmp_path / "a") == _files(tmp_path / "b")

    def test_simulate_seed_flag_overrides_scenario(self, tmp_path, capsys):
        sc = write_scenario(tmp_path)
        assert main(["simulate", "--scenario", sc, "--trials", "2",
                     "--seed", "99", "--out", str(tmp_path / "o")]) == 0
        meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
        assert meta["seed"] == 99

    def test_no_out_dir_writes_nothing(self, tmp_path, monkeypatch, capsys):
        sc = write_scenario(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.rglob("*"))
        assert main(["simulate", "--scenario", sc, "--trials", "2"]) == 0
        assert set(tmp_path.rglob("*")) == before

    def test_enumerate_counts(self, tmp_path, capsys):
        topo = tmp_path / "topology.json"
        topo.write_text(json.dumps({u: list(s)
                                    for u, s in CAMPAIGN_SERVING_SETS.items()}))
        assert main(["enumerate", "--topology", str(topo)]) == 0
        out = capsys.readouterr().out
        assert "counts: 36,54,42,17,3" in out
        # --k beyond every serving set stops at the largest one.
        topo.write_text(json.dumps({"U1": ["B1", "B2"]}))
        assert main(["enumerate", "--topology", str(topo), "--k", "5"]) == 0
        assert capsys.readouterr() == (
            "k=1: 2 combinations\nk=2: 1 combinations\ncounts: 2,1\n", "")

    def test_enumerate_with_masks(self, tmp_path, capsys):
        topo = tmp_path / "topology.json"
        topo.write_text(json.dumps({u: list(s)
                                    for u, s in CAMPAIGN_SERVING_SETS.items()}))
        links = [(u, b) for u in sorted(CAMPAIGN_SERVING_SETS)
                 for b in sorted(CAMPAIGN_SERVING_SETS[u])]
        full = (1 << 72) - 1
        masks = tmp_path / "masks.csv"
        write_masks({link: full if i < 20 else full & ~(1 << (i % 72))
                     for i, link in enumerate(links)}, masks)
        assert main(["enumerate", "--topology", str(topo),
                     "--masks", str(masks)]) == 0
        out = capsys.readouterr().out
        assert "k=1: 36 combinations, reception=55.6%" in out

    def test_fit_counts_only_fitted_samples(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text(SAMPLES_HEADER +
                            "20,100,LOS,VV\n30,125,LOS,VH\n40,106,LOS,VV\n"
                            "20,120,NLOS,VV\n40,130,NLOS,VV\n"
                            "30,140,NLOS,VH\n")
        out_dir = tmp_path / "fit"
        assert main(["fit", "--samples", str(csv_path),
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out
                if line.endswith("(n=2)")] == ["LOS", "NLOS"]
        models = out_dir / "models.json"
        cards = json.loads(models.read_text())
        assert [card["n_samples"] for card in cards] == [2, 2]
        assert main(["coverage", "--models", str(models)]) == 0

    def test_fit_end_to_end(self, tmp_path, capsys):
        import numpy as np
        from mmwcomp import CiModel, ci_mean_path_loss_db, substream
        model = CiModel(73.5, 4.6, 11.4)
        rng = substream(5, 0)
        d = 10.0 ** rng.uniform(1, np.log10(200.0), size=2000)
        pl = (np.array([ci_mean_path_loss_db(model, x) for x in d])
              + rng.normal(0.0, model.sigma_db, d.size))
        samples = PathLossSamples(tuple(d.tolist()), tuple(pl.tolist()))
        csv_path = tmp_path / "samples.csv"
        write_samples({Condition.NLOS: samples}, csv_path)
        out_dir = tmp_path / "fit"
        assert main(["fit", "--samples", str(csv_path),
                     "--out", str(out_dir)]) == 0
        [card] = load_model_cards(out_dir / "models.json")
        assert card.ple == pytest.approx(4.6, abs=0.15)
        assert card.sigma_db == pytest.approx(11.4, abs=0.7)

    def test_report_summarizes_bundle(self, tmp_path, capsys):
        sc = write_scenario(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["simulate", "--scenario", sc, "--trials", "3",
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["report", "--bundle", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "run: simulate" in out
        assert "reception.csv" in out

    def test_golden_outputs(self, tmp_path, capsys):
        # Exact bytes of three commands on small fixed inputs.  coverage is
        # left out because its LOS rows print 0.0 where the exact outage is
        # a tiny nonzero number; the stable outage kernels planned in
        # ROADMAP.md change those bytes on purpose.  The CDF
        # files are left out because their %.12g values come from numpy's
        # exp, whose last bit may differ between CPUs.
        samples, topo, masks = write_golden_inputs(tmp_path)
        assert main(["fit", "--samples", str(samples),
                     "--out", str(tmp_path / "fit")]) == 0
        capsys.readouterr()
        assert (tmp_path / "fit" / "models.json").read_bytes() == b"""\
[
  {
    "condition": "LOS",
    "f_ghz": 73.5,
    "label": "LOS",
    "n_samples": 2,
    "ple": 1.98170604149,
    "sigma_db": 0.878510872055
  },
  {
    "condition": "NLOS",
    "f_ghz": 73.5,
    "label": "NLOS",
    "n_samples": 3,
    "ple": 4.13808366155,
    "sigma_db": 2.54479198716
  }
]
"""
        out = tmp_path / "enum"
        assert main(["enumerate", "--topology", str(topo), "--masks",
                     str(masks), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "k=1: 5 combinations, reception=0.0%\n"
            "k=2: 4 combinations, reception=50.0%\n"
            "k=3: 1 combinations, reception=100.0%\n"
            f"wrote {out / 'metadata.json'}\nwrote {out / 'reception.csv'}\n")
        assert (out / "reception.csv").read_bytes() == (
            b"k,p_reception_pct,n_combinations\n1,0.0,5\n2,50.0,4\n"
            b"3,100.0,1\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(EXAMPLE_SCENARIO),
                     "--seed", "11", "--trials", "3", "--k-max", "3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "k=1 reception=100.0% (16 combinations per trial)\n"
            "k=2 reception=100.0% (24 combinations per trial)\n"
            "k=3 reception=100.0% (16 combinations per trial)\n"
            + "".join(f"wrote {out / name}\n" for name in (
                "metadata.json", "reception.csv", "cdf_best1_pl_db.csv",
                "cdf_best2_pl_db.csv", "cdf_best3_pl_db.csv")))
        assert (out / "reception.csv").read_bytes() == (
            b"k,p_reception_pct,n_combinations\n1,100.0,16\n2,100.0,24\n"
            b"3,100.0,16\n")

    def test_report_golden_stdout(self, tmp_path, capsys):
        # report's exact stdout on four bundles: fit, enumerate --masks, a
        # 2-trial simulate and coverage --models with an NLOS-only card (the
        # default models' LOS rows print 0.0; see test_golden_outputs).
        samples, topo, masks = write_golden_inputs(tmp_path)
        runs = {
            "fit": ["fit", "--samples", str(samples)],
            "enum": ["enumerate", "--topology", str(topo), "--masks",
                     str(masks)],
            "sim": ["simulate", "--scenario", str(EXAMPLE_SCENARIO),
                    "--seed", "11", "--trials", "2", "--k-max", "3"],
            "cov": ["coverage", "--models", str(_write_models(tmp_path)),
                    "--distances", "63,200"],
        }
        version = mmwcomp.__version__
        expected = {
            "fit": f"run: fit (version {version}, seed None, trials None)\n"
                   "models:\n"
                   "  LOS: ple=1.98171 sigma=0.878511 dB at 73.5 GHz, n=2\n"
                   "  NLOS: ple=4.13808 sigma=2.54479 dB at 73.5 GHz, n=3\n",
            "enum": f"run: enumerate (version {version}, seed None, trials "
                    "None)\n"
                    "reception.csv:\n"
                    "  k,p_reception_pct,n_combinations\n"
                    "  1,0.0,5\n  2,50.0,4\n  3,100.0,1\n",
            "sim": f"run: simulate (version {version}, seed 11, trials 2)\n"
                   "reception.csv:\n"
                   "  k,p_reception_pct,n_combinations\n"
                   "  1,100.0,16\n  2,100.0,24\n  3,100.0,16\n"
                   "cdf_best1_pl_db.csv: 8 points, median 77.5\n"
                   "cdf_best2_pl_db.csv: 8 points, median 111.6\n"
                   "cdf_best3_pl_db.csv: 8 points, median 115.5\n",
            "cov": f"run: coverage (version {version}, seed None, trials "
                   "None)\n"
                   "outage.csv:\n"
                   "  condition,distance_m,p_out_edge_pct,p_out_region_pct\n"
                   "  NLOS,63,2.4,0.7\n  NLOS,200,52.0,27.1\n",
        }
        for name, argv in runs.items():
            out = tmp_path / "bundles" / name
            assert main([*argv, "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["report", "--bundle", str(out)]) == 0
            assert capsys.readouterr() == (expected[name], "")

    def test_simulate_out_of_memory_names_trials(self, tmp_path, capsys,
                                                 monkeypatch):
        # numpy raises MemoryError when the drops' arrays do not fit; a
        # small --trials keeps a missed patch from allocating much.  The
        # message names the trials, the links and each link's T*R angle
        # pairs, since a sweep too large for memory fails at one trial.
        import numpy as np

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.9 GiB for an array")

        monkeypatch.setattr(np, "empty", no_memory)
        big = tmp_path / "big.json"
        big.write_text(json.dumps(minimal(sweep={"tx_angles": 10**10})))
        for sc, trials, links, pairs in (
                (write_scenario(tmp_path), 7, 2, 15 * 72),
                (str(big), 1, 1, 10**10 * 72)):
            assert main(["simulate", "--scenario", sc, "--trials",
                         str(trials)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {sc}: --trials {trials} on {links} link(s) of "
                f"{pairs} angle pairs each needs more memory than is free\n")

    def test_simulate_takes_any_rx_azimuth_count(self, tmp_path, capsys,
                                                 monkeypatch):
        # The RX azimuths tile the plane in 360 / rx_azimuths degree steps,
        # so a count that is not 24 needs no step of its own.
        directions = []

        def spy(scenario, trials):
            directions.append(scenario.sweep.n_rx_directions)
            return simulate_drop(scenario, trials)

        monkeypatch.setattr("mmwcomp.diversity.simulate_drop", spy)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal(
            sweep={"rx_azimuths": 12, "rx_elevations": 1})))
        assert main(["simulate", "--scenario", str(path), "--trials", "2"]) == 0
        assert directions == [12]
        assert capsys.readouterr().out.startswith("k=1 reception=")

    def test_coverage_models_zero_sigma(self, tmp_path, capsys):
        # Without shadowing the edge outage is a step and the region
        # outage the share of the disk beyond the coverage radius.
        models = tmp_path / "models.json"
        models.write_text(json.dumps([{"label": "NLOS", "f_ghz": 73.5,
                                       "ple": 4.6, "sigma_db": 0.0,
                                       "condition": "NLOS"}]))
        assert main(["coverage", "--models", str(models),
                     "--distances", "63,200"]) == 0
        assert capsys.readouterr().out == (
            "condition distance_m edge_outage_pct region_outage_pct\n"
            "NLOS 63 0.0 0.0\nNLOS 200 100.0 5.6\n")

    def test_simulate_best_n_cdfs_are_per_ue_order_statistics(self, tmp_path,
                                                               capsys):
        # Both the UE-major grouping and the finite filter show in the CDFs.
        path = write_scenario(tmp_path, FAR_SCENARIO_JSON)
        out_dir = tmp_path / "run"
        assert main(["simulate", "--scenario", path, "--trials", "20",
                     "--k-max", "2", "--out", str(out_dir)]) == 0
        drops = simulate_drop(load_scenario(path), 20)
        per_ue = {}
        for link, column in zip(drops.masks.bits, drops.omni_pl_db.T.tolist()):
            per_ue.setdefault(link[0], []).append(column)
        assert sorted(per_ue) == ["U1", "U2", "U3"]
        undetected = 0
        for n in (1, 2):
            values = [sorted(losses)[n - 1] for cols in per_ue.values()
                      for losses in zip(*cols)]
            finite = sorted(v for v in values if math.isfinite(v))
            undetected += len(values) - len(finite)
            lines = (out_dir / f"cdf_best{n}_pl_db.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in lines[1:]] == [
                "%.12g" % v for v in finite]
        assert undetected > 0

    def far_reception(self, tmp_path, trials):
        """The far scenario's path, topology, drops and k -> hits counts
        over ``trials`` drops, reduced as ``simulate`` reduces them."""
        path = write_scenario(tmp_path, FAR_SCENARIO_JSON)
        sc = load_scenario(path)
        drops = simulate_drop(sc, trials)
        counts = reception_counts(drops.masks, sc.topology(), 2)
        return path, sc.topology(), drops, counts

    def test_simulate_reception_is_the_share_of_all_subsets(self, tmp_path,
                                                            capsys):
        trials = 40
        path, topology, _, counts = self.far_reception(tmp_path, trials)
        assert main(["simulate", "--scenario", path, "--trials",
                     str(trials), "--out", str(tmp_path / "run")]) == 0
        expected = ["k,p_reception_pct,n_combinations"]
        for k, hits in sorted(counts.items()):
            n = combination_count(topology, k)
            assert 0 < hits < trials * n
            expected.append(f"{k},{format_pct(hits / (trials * n))},{n}")
        reception = (tmp_path / "run" / "reception.csv").read_text()
        assert reception.splitlines() == expected

    def test_enumerate_masks_scores_a_simulated_trial(self, tmp_path, capsys):
        # Trial t's masks, written as a masks CSV and scored by enumerate
        # --masks, give trial t's one-lane counts, and those counts sum to
        # simulate's one reduction.
        trials = 12
        _, topology, drops, counts = self.far_reception(tmp_path, trials)
        topo = tmp_path / "topology.json"
        topo.write_text(json.dumps(topology))
        per_trial = []
        for t in range(trials):
            trial = drops.masks.lane(t)
            hits = reception_counts(trial, topology, 2)
            per_trial.append(hits)
            masks = tmp_path / f"masks{t}.csv"
            write_masks(trial.bits, masks, trial.n_directions)
            out = tmp_path / f"enumerate{t}"
            assert main(["enumerate", "--topology", str(topo), "--masks",
                         str(masks), "--out", str(out)]) == 0
            expected = ["k,p_reception_pct,n_combinations"] + [
                f"{k},{format_pct(hits[k] / n)},{n}"
                for k in sorted(hits)
                for n in (combination_count(topology, k),)]
            assert (out / "reception.csv").read_text().splitlines() == expected
        assert len({c[1] for c in per_trial}) > 1  # trials differ
        assert counts == {k: sum(c[k] for c in per_trial) for k in counts}

    @pytest.fixture
    def exits_1(self, tmp_path, capsys, monkeypatch):
        def no_draw(scenario, trials):  # the link checks run; a draw fails
            link_statistics(scenario)
            raise AssertionError("simulate_drop called")

        def check(_, argv, name, data, message):
            names = {key: tmp_path / key for key in ("cov", "sim", "fit")}
            if "{cov}" in argv:
                assert main(["coverage", "--out", str(names["cov"])]) == 0
            if "{sim}" in argv:
                assert main(["simulate", "--scenario",
                             write_scenario(tmp_path), "--trials", "3",
                             "--out", str(names["sim"])]) == 0
            if "{fit}" in argv:
                _write_models(tmp_path)
            names.update(dir=tmp_path, topo=tmp_path / "topology.json",
                         path=tmp_path / (name or ""))
            names["topo"].write_text('{"U1": ["B1", "B2"]}')
            if data is not None:
                names["path"].write_bytes(data)
            capsys.readouterr()
            before = sorted(tmp_path.rglob("*"))
            monkeypatch.setattr("mmwcomp.diversity.simulate_drop", no_draw)
            assert main([arg.format(**names) for arg in argv.split()]) == 1
            captured = capsys.readouterr()
            expected = "error: " + message.format(**names)
            assert captured.out == ""
            assert (captured.err if expected.endswith("\n")
                    else captured.err[:len(expected)]) == expected
            assert sorted(tmp_path.rglob("*")) == before
        return check

    @exit_1_rows(EXIT_1)
    def test_unreadable_input_exits_1(self, exits_1, row):
        exits_1(*row)

    @exit_1_rows(BAD_LINK_ROWS)
    def test_simulate_names_link_of_bad_length(self, exits_1, row):
        exits_1(*row)

    @exit_1_rows(BAD_CARD_ROWS)
    def test_coverage_rejects_bad_card_with_its_index(self, exits_1, row):
        exits_1(*row)

    @exit_1_rows(FIT_ERROR_ROWS)
    def test_fit_error_names_file(self, exits_1, row):
        exits_1(*row)

    @exit_1_rows(BAD_F_GHZ_ROWS)
    def test_fit_rejects_bad_frequency(self, exits_1, row):
        exits_1(*row)

    @exit_1_rows(K_BELOW_1_ROWS)
    def test_enumerate_rejects_k_below_1(self, exits_1, row):
        exits_1(*row)

    @exit_1_rows(BAD_METADATA_ROWS)
    def test_report_rejects_bad_metadata(self, exits_1, row):
        exits_1(*row)

    @exit_1_rows(BUNDLE_FILE_ROWS)
    def test_report_reads_every_file_before_printing(self, exits_1, row):
        exits_1(*row)

    @exit_1_rows(BAD_CDF_ROWS)
    def test_report_rejects_bad_cdf(self, exits_1, row):
        exits_1(*row)

    def test_coverage_reads_scenario_with_bad_link(self, tmp_path, capsys):
        # coverage builds no links, so it reads the scenarios that simulate
        # rejects for a link's length.
        path = tmp_path / "scenario.json"
        for bs_x, ue_x, _ in BAD_LINKS.values():
            path.write_bytes(bad_link_scenario(bs_x, ue_x))
            assert main(["coverage", "--scenario", str(path)]) == 0

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_internal_failure_exits_2(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("mmwcomp.cli._cmd_coverage", crash)
        assert main(["coverage"]) == 2
        assert capsys.readouterr() == ("", "internal error: boom\n")


# Runs steps in a fresh interpreter and reports which of the watched
# modules they loaded: CLI argv lists, which must exit 0, or library
# statements.  If any step is a CLI run, it first imports mmwcomp.cli,
# which must load no watched module.  The one "loaded:" line comes last.
_IMPORT_PROBE = """
import json, sys, mmwcomp
steps, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
def loaded():
    return [m for m in watched if m in sys.modules]
if any(isinstance(step, list) for step in steps):
    import mmwcomp.cli
    assert not loaded(), f"importing mmwcomp.cli loaded {loaded()}"
for step in steps:
    if isinstance(step, list):
        assert mmwcomp.cli.main(step) == 0, step
    else:
        exec(step, {"mmwcomp": mmwcomp})
print("loaded:", json.dumps(loaded()))
"""
_POOLS = ("multiprocessing", "concurrent.futures")  # stdlib process pools


def _python_env() -> dict[str, str]:
    """The environment of a fresh interpreter on this package's sources."""
    src = str(Path(mmwcomp.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _python(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_python_env(), cwd=cwd)


def _run_python(code, *args, cwd) -> subprocess.CompletedProcess:
    proc = _python(["-c", code, *args], cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def _modules_loaded_by(steps, cwd, watched) -> set[str]:
    proc = _run_python(_IMPORT_PROBE, json.dumps(steps), json.dumps(watched),
                       cwd=cwd)
    reports = [line.split(" ", 1)[1] for line in proc.stdout.splitlines()
               if line.startswith("loaded: ")]
    assert len(reports) == 1, proc.stdout
    return set(json.loads(reports[0]))


def _write_models(tmp_path) -> Path:
    emit_results(ResultBundle(RunMetadata("fit", "test"), model_cards=[
        ModelCard("NLOS", 73.5, 4.6, 11.4, Condition.NLOS, 10)]),
        tmp_path / "fit")
    return tmp_path / "fit" / "models.json"


def _closed_form_runs(tmp_path) -> list[list[str]]:
    """Eight table and report runs on small inputs; each report reads a
    bundle that an earlier run writes."""
    models = _write_models(tmp_path)
    samples, topo, masks = write_golden_inputs(tmp_path)
    return [
        ["fit", "--samples", str(samples), "--out", str(tmp_path / "f")],
        ["coverage", "--out", str(tmp_path / "cov")],
        ["coverage", "--scenario", str(EXAMPLE_SCENARIO)],
        ["coverage", "--models", str(models), "--distances", "63,200"],
        ["enumerate", "--topology", str(topo)],
        ["enumerate", "--topology", str(topo), "--masks", str(masks)],
        ["report", "--bundle", str(tmp_path / "cov")],
        ["report", "--bundle", str(models.parent)],
    ]


# Each probe runs once per module; its tests each check their own subset
# of the modules it watches.
@pytest.fixture(scope="module")
def closed_form_loads(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("closed_form")
    return _modules_loaded_by(_closed_form_runs(tmp), tmp, watched=(
        "numpy", *_POOLS, "dataclasses", "inspect"))


@pytest.fixture(scope="module")
def simulate_loads(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("simulate")
    return _modules_loaded_by(
        [["simulate", "--scenario", write_scenario(tmp), "--trials", "2"]],
        tmp, watched=("numpy", *_POOLS, "dataclasses"))


class TestNumpyImportBoundary:
    def test_closed_form_commands_do_not_load_numpy(self, closed_form_loads):
        assert closed_form_loads & {"numpy", *_POOLS} == set()

    def test_simulate_loads_numpy_on_use(self, simulate_loads):
        assert simulate_loads & {"numpy", *_POOLS} == {"numpy"}


class TestLazyPackage:
    def test_coverage_loads_neither_simulator_nor_fitting(self, tmp_path):
        runs = [["coverage"],
                ["coverage", "--models", str(_write_models(tmp_path))]]
        assert _modules_loaded_by(
            runs, tmp_path, watched=("numpy", "mmwcomp.diversity",
                                     "mmwcomp.fitting")) == set()

    def test_input_readers_load_neither_tables_nor_simulator(self, tmp_path):
        steps = [f"mmwcomp.{reader}({str(path)!r})" for reader, path in zip(
            ("read_samples_csv", "load_topology", "read_masks_csv"),
            write_golden_inputs(tmp_path))]
        assert _modules_loaded_by(steps, tmp_path, watched=(
            "mmwcomp.coverage", "mmwcomp.params", "mmwcomp.diversity")) == set()

    def test_link_statistics_load_no_numpy(self, tmp_path):
        step = ("assert len(mmwcomp.link_statistics(mmwcomp.load_scenario("
                f"{str(EXAMPLE_SCENARIO)!r})).keys) == 16")
        assert _modules_loaded_by([step], tmp_path, watched=("numpy",)) == set()

    def test_import_loads_no_submodule(self, tmp_path):
        proc = _run_python(
            "import sys, mmwcomp\n"
            "print([m for m in sys.modules if m.startswith('mmwcomp.')])",
            cwd=tmp_path)
        assert proc.stdout == "[]\n"

    def test_every_export_resolves(self):
        assert len(set(mmwcomp.__all__)) == len(mmwcomp.__all__)
        namespace = {}
        exec("from mmwcomp import *", namespace)
        for name in mmwcomp.__all__:
            assert namespace[name] is getattr(mmwcomp, name)
        assert mmwcomp.fit_ci is sys.modules["mmwcomp.fitting"].fit_ci

    def test_unknown_name_raises_attribute_error(self):
        assert not hasattr(mmwcomp, "write_samples_csv")
        assert not hasattr(mmwcomp, "synthesize_omni_path_loss_db")


# The records are NamedTuples, so no command needs ``dataclasses`` or the
# ``inspect`` module it imports.  numpy imports ``inspect`` itself, so the
# simulate run watches ``dataclasses`` alone.
class TestRecordImports:
    def test_table_commands_load_neither_dataclasses_nor_inspect(
            self, closed_form_loads):
        assert closed_form_loads & {"dataclasses", "inspect"} == set()

    def test_simulate_loads_no_dataclasses(self, simulate_loads):
        assert "dataclasses" not in simulate_loads


def _entry_runs(tmp_path) -> dict[str, list[str]]:
    """Commands on small inputs under ``tmp_path``; each bundle goes to
    ``out`` below the working directory, so stdout names the same paths
    whichever directory the command runs in."""
    samples, topo, masks = write_golden_inputs(tmp_path)
    return {
        "fit": ["fit", "--samples", str(samples), "--out", "out"],
        "coverage": ["coverage", "--distances", "63,200", "--out", "out"],
        "enumerate": ["enumerate", "--topology", str(topo), "--masks",
                      str(masks), "--out", "out"],
        "simulate": ["simulate", "--scenario", write_scenario(tmp_path),
                     "--trials", "3", "--out", "out"],
        "missing_file": ["fit", "--samples", "does-not-exist.csv"],
        "usage_error": ["simulate", "--trials", "3"],
        "version": ["--version"],
    }


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class TestProcessEntry:
    """``python -m mmwcomp.cli`` runs ``run()``, which turns the garbage
    collector off for the process; each command must print, write and
    exit exactly as ``main()`` does inside this process."""

    @pytest.mark.parametrize("name", ["fit", "coverage", "enumerate",
                                      "simulate", "missing_file",
                                      "usage_error", "version"])
    def test_process_matches_main(self, tmp_path, capsys, monkeypatch, name):
        argv = _entry_runs(tmp_path)[name]
        proc_dir, main_dir = tmp_path / "proc", tmp_path / "main"
        proc_dir.mkdir()
        main_dir.mkdir()
        proc = _python(["-m", "mmwcomp.cli", *argv], proc_dir)
        monkeypatch.chdir(main_dir)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage error or --version
            code = exc.code
        captured = capsys.readouterr()
        assert code == {"missing_file": 1, "usage_error": 2}.get(name, 0)
        assert captured.err.startswith("error: ") == (code == 1)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, captured.out, captured.err)
        assert _files(proc_dir) == _files(main_dir)
        assert bool(_files(main_dir)) == ("--out" in argv)

    @pytest.mark.parametrize("name", ["coverage", "report"])
    def test_closed_stdout_exits_1_quietly(self, tmp_path, name):
        # The reader closes its end before the interpreter has even started,
        # so the first write fails; that is no bad input to report.
        argv = {"coverage": ["coverage"],
                "report": ["report", "--bundle",
                           str(_write_models(tmp_path).parent)]}[name]
        proc = subprocess.Popen([sys.executable, "-m", "mmwcomp.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_python_env(), cwd=tmp_path)
        proc.stdout.close()
        with proc:
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b"")


# Runs ``run()`` as the process entry does, then reports the exit code and
# the collector's state once ``run()`` has left through ``SystemExit``.
_RUN_PROBE = """
import gc, sys
from mmwcomp import cli
try:
    cli.run()
except SystemExit as exc:
    print("exit:", exc.code, gc.isenabled(), gc.get_freeze_count() > 0)
"""


class TestGarbageCollector:
    @pytest.mark.parametrize("argv, code", [
        (["coverage", "--distances", "63"], 0),
        (["fit", "--samples", "does-not-exist.csv"], 1),
        (["no-such-command"], 2),
    ], ids=["ok", "bad_input", "usage_error"])
    def test_run_disables_and_freezes(self, tmp_path, argv, code):
        proc = _run_python(_RUN_PROBE, *argv, cwd=tmp_path)
        assert proc.stdout.splitlines()[-1] == f"exit: {code} False True"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_collector_state(self, tmp_path, capsys, monkeypatch,
                                         enabled):
        runs = _entry_runs(tmp_path)
        monkeypatch.chdir(tmp_path)
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(runs["fit"]) == 0
            assert main(runs["simulate"][:-2]) == 0  # without --out
            assert main(runs["missing_file"]) == 1
            with pytest.raises(SystemExit):
                main(runs["usage_error"])
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_simulate_garbage_does_not_grow_with_trials(self, tmp_path,
                                                        capsys):
        # ``run()`` never collects, so a command may leave only a fixed
        # amount of cyclic garbage, whatever its trial count.
        scenario = write_scenario(tmp_path)
        was_enabled = gc.isenabled()

        def garbage(trials: int) -> int:
            gc.collect()
            gc.disable()
            try:
                assert main(["simulate", "--scenario", scenario,
                             "--trials", str(trials)]) == 0
                return gc.collect()
            finally:
                (gc.enable if was_enabled else gc.disable)()

        garbage(3)  # imports and first-use caches
        assert garbage(3) == garbage(30)


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_readme_library_examples_run(monkeypatch, doc):
    root = Path(__file__).resolve().parents[1]
    text = (root / doc).read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 2
    monkeypatch.chdir(root)
    for block in blocks:
        exec(compile(block.split("```", 1)[0], doc, "exec"), {})
