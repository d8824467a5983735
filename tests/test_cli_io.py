"""Scenario parsing, CSV round trips, result emission and the CLI."""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mmwcomp
from mmwcomp import (CdfPoint, Condition, ModelCard, OutageRow,
                     PathLossSample, ResultBundle, RunMetadata, ScenarioError, build_cdf, emit_results,
                     format_pct, load_model_cards, load_scenario,
                     load_topology, parse_scenario, read_masks_csv,
                     read_samples_csv, scenario_to_json, simulate_drop,
                     write_masks_csv, write_samples_csv)
from mmwcomp.cli import main
from mmwcomp.params import CAMPAIGN_SERVING_SETS

MINIMAL = {
    "base_stations": [{"id": "B1", "x_m": 0.0, "y_m": 0.0}],
    "ues": [{"id": "U1", "x_m": 30.0, "y_m": 0.0}],
}


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
        assert sc.condition_policy.p_los == pytest.approx(11 / 36)
        assert sc.seed == 73

    def test_schema_version(self):
        parse_scenario(minimal(schema_version=1))
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(minimal(schema_version=2))

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ScenarioError, match="scenario"):
            parse_scenario(minimal(extra_field=1))
        obj = minimal()
        obj["base_stations"][0]["colour"] = "red"
        with pytest.raises(ScenarioError, match=r"base_stations\[0\]"):
            parse_scenario(obj)

    def test_negative_sigma_rejected_with_key_path(self):
        obj = minimal(models={"LOS": {"f_ghz": 73.5, "ple": 2.0,
                                      "sigma_db": -1.0}})
        with pytest.raises(ScenarioError, match=r"models\.LOS"):
            parse_scenario(obj)

    def test_partial_models_merge_with_defaults(self):
        obj = minimal(models={"NLOS": {"f_ghz": 73.5, "ple": 3.4,
                                       "sigma_db": 9.7}})
        sc = parse_scenario(obj)
        assert sc.models[Condition.NLOS].ple == 3.4
        assert sc.models[Condition.LOS].ple == 2.0  # untouched default

    def test_missing_required_sections(self):
        with pytest.raises(ScenarioError, match="ues"):
            parse_scenario({"base_stations": MINIMAL["base_stations"]})

    def test_explicit_conditions(self):
        sc = parse_scenario(minimal(conditions={"U1/B1": "NLOS"}))
        assert sc.condition_policy.explicit[("U1", "B1")] is Condition.NLOS
        with pytest.raises(ScenarioError, match="conditions"):
            parse_scenario(minimal(conditions={"U9/B1": "NLOS"}))
        with pytest.raises(ScenarioError, match="LOS or NLOS"):
            parse_scenario(minimal(conditions={"U1/B1": "NLOS_BEST"}))
        with pytest.raises(ScenarioError, match="ue_id/bs_id"):
            parse_scenario(minimal(conditions={"U1B1": "NLOS"}))

    def test_bad_number_type(self):
        obj = minimal()
        obj["ues"][0]["x_m"] = "thirty"
        with pytest.raises(ScenarioError, match="x_m"):
            parse_scenario(obj)

    def test_bad_number_names_key_once(self):
        obj = minimal(budget={"max_pl_db": "high"})
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(obj)
        assert str(exc.value) == (
            "scenario.budget.max_pl_db: expected a number, got 'high'")

    def test_round_trip_through_json(self):
        sc = parse_scenario(minimal(conditions={"U1/B1": "NLOS"}, seed=99))
        again = parse_scenario(json.loads(scenario_to_json(sc)))
        assert again == sc

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)


class TestSamplesCsv:
    def test_round_trip_exact(self, tmp_path):
        samples = [PathLossSample(63.0, 152.49541205654867, Condition.NLOS),
                   PathLossSample(10.5, 91.25, Condition.LOS, "VH")]
        path = tmp_path / "samples.csv"
        write_samples_csv(samples, path)
        back = read_samples_csv(path)
        assert back == samples  # repr emission reloads bit-exact

    def test_parse_basic_row(self):
        buf = io.StringIO("d_m,pl_db,condition,polarization\n63,152.5,NLOS,VV\n")
        [s] = read_samples_csv(buf)
        assert (s.d_m, s.pl_db, s.condition, s.polarization) == (
            63.0, 152.5, Condition.NLOS, "VV")

    def test_strict_reports_line_number(self):
        buf = io.StringIO(
            "d_m,pl_db,condition,polarization\n63,152.5,NLOS,VV\n0.5,80,LOS,VV\n")
        with pytest.raises(ScenarioError, match="line 3"):
            read_samples_csv(buf)

    def test_lenient_skips_bad_rows(self):
        buf = io.StringIO(
            "d_m,pl_db,condition,polarization\n0.5,80,LOS,VV\n63,152.5,NLOS,VV\n")
        samples = read_samples_csv(buf, strict=False)
        assert len(samples) == 1 and samples[0].d_m == 63.0

    def test_header_mismatch(self):
        with pytest.raises(ScenarioError, match="header"):
            read_samples_csv(io.StringIO("distance,pl\n1,2\n"))

    def test_empty_file(self):
        with pytest.raises(ScenarioError, match="empty"):
            read_samples_csv(io.StringIO(""))

    def test_header_only_warns(self):
        with pytest.warns(UserWarning, match="no data rows"):
            out = read_samples_csv(io.StringIO("d_m,pl_db,condition,polarization\n"))
        assert out == []


class TestMasksCsv:
    def test_round_trip(self, tmp_path):
        for n_directions in (72, 5):
            bits = "".join("0" if i % 3 == 0 else "1"
                           for i in range(n_directions))
            masks = {("U1", "B1"): int(bits[::-1], 2), ("U1", "B2"): 1}
            path = tmp_path / f"masks{n_directions}.csv"
            write_masks_csv(masks, path, n_directions=n_directions)
            assert path.read_text().splitlines()[1] == f"U1,B1,{bits}"
            assert read_masks_csv(path, n_directions=n_directions) == masks

    def test_char_i_is_bit_i(self):
        buf = io.StringIO("rx_id,tx_id,mask\nU1,B1,1100\n")
        assert read_masks_csv(buf, n_directions=4) == {("U1", "B1"): 0b0011}

    def test_write_rejects_wide_mask(self):
        with pytest.raises(ValueError, match="4 bits"):
            write_masks_csv({("U1", "B1"): 1 << 4}, io.StringIO(),
                            n_directions=4)

    def test_bad_mask_length(self):
        buf = io.StringIO("rx_id,tx_id,mask\nU1,B1,101\n")
        with pytest.raises(ScenarioError, match="72"):
            read_masks_csv(buf)

    def test_duplicate_link(self):
        row = "U1,B1," + "1" * 72
        buf = io.StringIO(f"rx_id,tx_id,mask\n{row}\n{row}\n")
        with pytest.raises(ScenarioError, match="duplicate"):
            read_masks_csv(buf)


def test_load_topology(tmp_path):
    path = tmp_path / "topology.json"
    path.write_text(json.dumps({u: list(s)
                                for u, s in CAMPAIGN_SERVING_SETS.items()}))
    assert load_topology(path) == CAMPAIGN_SERVING_SETS
    path.write_text(json.dumps({"U1": []}))
    with pytest.raises(ScenarioError):
        load_topology(path)


class TestFormatting:
    def test_fixed_one_decimal(self):
        assert format_pct(0.024186) == "2.4"
        assert format_pct(0.555555) == "55.6"
        assert format_pct(1.0) == "100.0"
        assert format_pct(0.0) == "0.0"

    def test_scientific_below_threshold(self):
        assert format_pct(6.942e-7) == "6.9E-5"
        assert format_pct(1.757e-7) == "1.8E-5"
        assert format_pct(7.066e-5) == "7.1E-3"

    def test_threshold_boundary(self):
        assert format_pct(1e-4) == "0.0"      # exactly 0.01% stays fixed
        assert format_pct(0.99e-4) == "9.9E-3"


class TestResults:
    def test_build_cdf(self):
        pts = build_cdf([3.0, 1.0, 2.0, math.inf])
        assert [p.x for p in pts] == [1.0, 2.0, 3.0]
        assert pts[-1].p == 1.0
        with pytest.raises(ValueError):
            build_cdf([math.inf])

    def test_bundle_rejects_malformed_cdf(self):
        meta = RunMetadata("test", "0")
        with pytest.raises(ValueError, match="non-decreasing"):
            ResultBundle(meta, cdfs={"x": [CdfPoint(2.0, 0.5),
                                           CdfPoint(1.0, 1.0)]})
        with pytest.raises(ValueError, match="end at probability 1"):
            ResultBundle(meta, cdfs={"x": [CdfPoint(1.0, 0.5)]})

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

    def test_model_cards_ignore_legacy_rms_residual(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text(json.dumps([{
            "label": "NLOS", "f_ghz": 73.5, "ple": 4.6, "sigma_db": 11.4,
            "condition": "NLOS", "n_samples": 10, "rms_residual_db": 11.4}]))
        [card] = load_model_cards(path)
        assert card == ModelCard("NLOS", 73.5, 4.6, 11.4, Condition.NLOS,
                                 n_samples=10)


SCENARIO_JSON = {
    "base_stations": [{"id": "B1", "x_m": 0.0, "y_m": 0.0},
                      {"id": "B2", "x_m": 80.0, "y_m": 0.0}],
    "ues": [{"id": "U1", "x_m": 30.0, "y_m": 20.0}],
    "seed": 7,
}


class TestCli:
    def write_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO_JSON))
        return str(path)

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
        sc = self.write_scenario(tmp_path)
        for sub in ("a", "b"):
            assert main(["simulate", "--scenario", sc, "--trials", "5",
                         "--out", str(tmp_path / sub)]) == 0
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_simulate_seed_flag_overrides_scenario(self, tmp_path, capsys):
        sc = self.write_scenario(tmp_path)
        assert main(["simulate", "--scenario", sc, "--trials", "2",
                     "--seed", "99", "--out", str(tmp_path / "o")]) == 0
        meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
        assert meta["seed"] == 99

    def test_out_dir_from_environment(self, tmp_path, monkeypatch, capsys):
        sc = self.write_scenario(tmp_path)
        monkeypatch.setenv("MMWCOMP_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--scenario", sc, "--trials", "2"]) == 0
        assert (tmp_path / "envout" / "reception.csv").is_file()

    def test_no_out_dir_writes_nothing(self, tmp_path, monkeypatch, capsys):
        sc = self.write_scenario(tmp_path)
        monkeypatch.delenv("MMWCOMP_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.rglob("*"))
        assert main(["simulate", "--scenario", sc, "--trials", "2"]) == 0
        assert set(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flags, message", [
        (["--k-max", "9"], "k_max must be in [1, 2], got 9"),
        (["--k-max", "0"], "k_max must be in [1, 2], got 0"),
        (["--trials", "0"], "trials must be >= 1, got 0"),
    ])
    def test_simulate_validates_before_drawing(self, tmp_path, capsys,
                                               monkeypatch, flags, message):
        def fail(*args):
            raise AssertionError("simulate_drop called")

        monkeypatch.setattr("mmwcomp.cli.simulate_drop", fail)
        sc = self.write_scenario(tmp_path)
        assert main(["simulate", "--scenario", sc, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_coverage_rejects_models_with_scenario(self, tmp_path, capsys):
        models = tmp_path / "models.json"
        emit_results(ResultBundle(RunMetadata("fit", "test"), model_cards=[
            ModelCard("NLOS", 73.5, 4.6, 11.4, Condition.NLOS)]), tmp_path)
        assert models.is_file()
        argv = ["coverage", "--models", str(models),
                "--scenario", self.write_scenario(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --models and --scenario are mutually exclusive\n")

    def test_enumerate_counts(self, tmp_path, capsys):
        topo = tmp_path / "topology.json"
        topo.write_text(json.dumps({u: list(s)
                                    for u, s in CAMPAIGN_SERVING_SETS.items()}))
        assert main(["enumerate", "--topology", str(topo)]) == 0
        out = capsys.readouterr().out
        assert "counts: 36,54,42,17,3" in out

    def test_enumerate_with_masks(self, tmp_path, capsys):
        topo = tmp_path / "topology.json"
        topo.write_text(json.dumps({u: list(s)
                                    for u, s in CAMPAIGN_SERVING_SETS.items()}))
        links = [(u, b) for u in sorted(CAMPAIGN_SERVING_SETS)
                 for b in sorted(CAMPAIGN_SERVING_SETS[u])]
        full = (1 << 72) - 1
        masks = tmp_path / "masks.csv"
        write_masks_csv({link: full if i < 20 else full & ~(1 << (i % 72))
                         for i, link in enumerate(links)}, masks)
        assert main(["enumerate", "--topology", str(topo),
                     "--masks", str(masks)]) == 0
        out = capsys.readouterr().out
        assert "k=1: 36 combinations, reception=55.6%" in out

    @pytest.mark.parametrize("k", ["0", "-2"])
    @pytest.mark.parametrize("with_masks", [False, True])
    def test_enumerate_rejects_k_below_1(self, tmp_path, capsys, k,
                                         with_masks):
        topo = tmp_path / "topology.json"
        topo.write_text(json.dumps({"U1": ["B1", "B2"]}))
        masks = tmp_path / "masks.csv"
        write_masks_csv({("U1", "B1"): 1, ("U1", "B2"): 2}, masks)
        argv = ["enumerate", "--topology", str(topo), "--k", k]
        if with_masks:
            argv += ["--masks", str(masks)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k must be >= 1" in captured.err

    def test_fit_counts_only_fitted_samples(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("d_m,pl_db,condition,polarization\n"
                            "20,120,NLOS,VV\n40,130,NLOS,VV\n"
                            "30,140,NLOS,VH\n")
        out_dir = tmp_path / "fit"
        assert main(["fit", "--samples", str(csv_path),
                     "--out", str(out_dir)]) == 0
        assert "(n=2)" in capsys.readouterr().out
        [card] = json.loads((out_dir / "models.json").read_text())
        assert card["n_samples"] == 2
        assert main(["fit", "--samples", str(csv_path), "--include-vh"]) == 0
        assert "(n=3)" in capsys.readouterr().out

    def test_fit_end_to_end(self, tmp_path, capsys):
        import numpy as np
        from mmwcomp import CiModel, ci_mean_path_loss_db, substream
        model = CiModel(73.5, 4.6, 11.4, Condition.NLOS)
        rng = substream(5, 0)
        d = 10.0 ** rng.uniform(1, np.log10(200.0), size=2000)
        pl = ci_mean_path_loss_db(model, d) + rng.normal(0.0, model.sigma_db,
                                                         d.size)
        samples = [PathLossSample(float(a), float(b), Condition.NLOS)
                   for a, b in zip(d, pl)]
        csv_path = tmp_path / "samples.csv"
        write_samples_csv(samples, csv_path)
        out_dir = tmp_path / "fit"
        assert main(["fit", "--samples", str(csv_path),
                     "--out", str(out_dir)]) == 0
        [card] = load_model_cards(out_dir / "models.json")
        assert card.ple == pytest.approx(4.6, abs=0.15)
        assert card.sigma_db == pytest.approx(11.4, abs=0.7)

    def test_report_summarizes_bundle(self, tmp_path, capsys):
        sc = self.write_scenario(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["simulate", "--scenario", sc, "--trials", "3",
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["report", "--bundle", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "run: simulate" in out
        assert "reception.csv" in out

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["simulate", "--scenario",
                     str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base_stations": [], "ues": []}))
        assert main(["simulate", "--scenario", str(bad)]) == 1

    @pytest.mark.parametrize("distances, token", [
        ("100,nan", "nan"), ("inf", "inf"), ("1e400", "1e400")])
    def test_coverage_rejects_non_finite_radius(self, capsys, distances,
                                                token):
        assert main(["coverage", "--distances", distances]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --distances radius '{token}' is not finite\n")

    @pytest.mark.parametrize("f_ghz", ["nan", "inf", "-inf", "0"])
    def test_fit_rejects_bad_frequency(self, tmp_path, capsys, f_ghz):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("d_m,pl_db,condition,polarization\n"
                            "20,120,NLOS,VV\n40,130,NLOS,VV\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--samples", str(csv_path),
                         f"--f-ghz={f_ghz}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: frequency must be positive and "
                                f"finite, got {float(f_ghz)} GHz\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj.update(budget={"max_pl_db": math.nan}),
         "scenario.budget.max_pl_db: expected a finite number, got nan"),
        (lambda obj: obj["ues"][0].update(x_m=math.inf),
         "scenario.ues[0].x_m: expected a finite number, got inf"),
        (lambda obj: obj["base_stations"][0].update(y_m=10 ** 400),
         "scenario.base_stations[0].y_m: expected a finite number, got inf"),
    ], ids=["max_pl_db-NaN", "x_m-Infinity", "y_m-huge-integer"])
    def test_coverage_rejects_non_finite_scenario_number(self, tmp_path,
                                                         capsys, edit,
                                                         message):
        obj = minimal()
        edit(obj)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))  # writes the NaN / Infinity literals
        assert main(["coverage", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("d_m", ["inf", "nan"])
    def test_fit_rejects_non_finite_distance(self, tmp_path, capsys, d_m):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("d_m,pl_db,condition,polarization\n"
                            f"{d_m},130,NLOS,VV\n20,120,NLOS,VV\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--samples", str(csv_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: samples CSV line 2: sample distance must be finite and "
            f">= 1.0 m, got {float(d_m)}\n")

    def test_simulate_best_n_cdfs_are_per_ue_order_statistics(self, tmp_path,
                                                               capsys):
        # Three UEs listed out of id order and two base stations, far enough
        # apart that some links go undetected, so both the UE-major grouping
        # and the finite filter show in the CDFs.
        obj = {"base_stations": [{"id": "B2", "x_m": 150.0, "y_m": 0.0},
                                 {"id": "B1", "x_m": 0.0, "y_m": 0.0}],
               "ues": [{"id": "U3", "x_m": 140.0, "y_m": 10.0},
                       {"id": "U1", "x_m": 10.0, "y_m": 5.0},
                       {"id": "U2", "x_m": 75.0, "y_m": 30.0}],
               "budget": {"max_pl_db": 110.0}, "seed": 11}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        out_dir = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path), "--trials", "20",
                     "--k-max", "2", "--out", str(out_dir)]) == 0
        drops = simulate_drop(load_scenario(path), 20)
        per_ue = {}
        for link, column in zip(drops.links, drops.omni_pl_db.T.tolist()):
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

    @pytest.mark.parametrize("directions", ["0", "-3"])
    def test_enumerate_rejects_directions_below_1(self, tmp_path, capsys,
                                                  directions):
        # The topology does not exist: the flag is checked before any read.
        assert main(["enumerate", "--topology", str(tmp_path / "none.json"),
                     "--directions", directions]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --directions must be >= 1, got {directions}\n")

    def test_coverage_models_invalid_json_names_path(self, tmp_path, capsys):
        models = tmp_path / "models.json"
        models.write_text("not json")
        assert main(["coverage", "--models", str(models)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {models}: invalid JSON (")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


# Runs CLI commands in a fresh interpreter and reports whether numpy was
# loaded: importing the package must not load it either way.
_NUMPY_PROBE = """
import json, sys
import mmwcomp, mmwcomp.cli
assert "numpy" not in sys.modules, "importing mmwcomp loaded numpy"
for argv in json.loads(sys.argv[1]):
    assert mmwcomp.cli.main(argv) == 0, argv
print("numpy" in sys.modules)
"""


def _numpy_loaded_by(runs, cwd) -> bool:
    src = str(Path(mmwcomp.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "MMWCOMP_OUT"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE,
                           json.dumps(runs)],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


class TestNumpyImportBoundary:
    def test_closed_form_commands_do_not_load_numpy(self, tmp_path):
        models_dir = tmp_path / "fit"
        emit_results(ResultBundle(RunMetadata("fit", "test"), model_cards=[
            ModelCard("NLOS", 73.5, 4.6, 11.4, Condition.NLOS, 10)]),
            models_dir)
        topo = tmp_path / "topology.json"
        topo.write_text(json.dumps({"U1": ["B1", "B2"], "U2": ["B2"]}))
        masks = tmp_path / "masks.csv"
        write_masks_csv({("U1", "B1"): 1, ("U1", "B2"): 2, ("U2", "B2"): 3},
                        masks, n_directions=2)
        runs = [
            ["coverage", "--out", str(tmp_path / "cov")],
            ["coverage", "--models", str(models_dir / "models.json"),
             "--distances", "63,200"],
            ["enumerate", "--topology", str(topo)],
            ["enumerate", "--topology", str(topo), "--masks", str(masks),
             "--directions", "2"],
            ["report", "--bundle", str(tmp_path / "cov")],
            ["report", "--bundle", str(models_dir)],
        ]
        assert not _numpy_loaded_by(runs, tmp_path)

    def test_fit_and_simulate_load_numpy_on_use(self, tmp_path):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("d_m,pl_db,condition,polarization\n"
                            "20,120,NLOS,VV\n40,130,NLOS,VV\n")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO_JSON))
        assert _numpy_loaded_by([["fit", "--samples", str(csv_path)]],
                                tmp_path)
        assert _numpy_loaded_by([["simulate", "--scenario", str(scenario),
                                  "--trials", "2"]], tmp_path)
