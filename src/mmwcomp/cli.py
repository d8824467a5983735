"""Command line interface.

Subcommands:
    fit        fit CI models to a path-loss sample CSV
    coverage   edge and region outage at given cell radii
    simulate   Monte Carlo beam-sweep drops for a scenario
    enumerate  serving-set combinatorics, optionally with measured masks
    report     human-readable summary of an emitted result bundle

Exit codes: 0 on success, 1 on bad input, 2 on an internal failure (and,
per argparse convention, on a usage error).  Files are written only under
the --out directory (or the MMWCOMP_OUT environment variable); without
either, output is stdout only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .coverage import LinkBudget, outage_table
from .diversity import (combination_count, reception_counts,
                        reception_vs_serving_count, simulate_drop)
from .fitting import VV, FitError, fit_ci, group_samples_by_condition
from .params import (CARRIER_F_GHZ, DEFAULT_COVERAGE_DISTANCES_M, DEFAULT_SEED,
                     DIRECTIONAL_CI_73GHZ, SOUNDER_LINK_BUDGET)
from .propagation import CiModel, Condition
from .results import (ModelCard, ReceptionRow, ResultBundle, RunMetadata,
                      build_cdf, emit_results, format_pct, load_model_cards)
from .scenario_io import (ScenarioError, load_scenario, load_topology,
                          read_masks_csv, read_samples_csv)

OUT_ENV_VAR = "MMWCOMP_OUT"


def _resolve_out(args) -> Path | None:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get(OUT_ENV_VAR)
    return Path(env) if env else None


def _resolve_seed(flag_seed, scenario) -> int:
    if flag_seed is not None:
        return flag_seed
    if scenario is not None:
        return scenario.seed
    return DEFAULT_SEED


def _parse_distances(text: str) -> list[float]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        distances = [float(tok) for tok in tokens]
    except ValueError:
        raise ScenarioError(f"bad --distances value {text!r}") from None
    if not distances:
        raise ScenarioError("--distances must list at least one radius")
    for tok, d in zip(tokens, distances):
        if not math.isfinite(d):
            raise ScenarioError(f"--distances radius {tok!r} is not finite")
    return distances


def _emit(bundle: ResultBundle, out_dir: Path | None):
    if out_dir is None:
        return
    for path in emit_results(bundle, out_dir):
        print(f"wrote {path}")


def _cmd_fit(args) -> int:
    samples = read_samples_csv(args.samples, strict=args.strict)
    if not samples:
        raise ScenarioError(f"{args.samples}: no usable samples")
    cards = []
    for cond, group in sorted(group_samples_by_condition(samples).items(),
                              key=lambda kv: kv[0].value):
        model = fit_ci(group, args.f_ghz, include_vh=args.include_vh)
        n_fitted = sum(args.include_vh or s.polarization == VV for s in group)
        cards.append(ModelCard(label=cond.value, f_ghz=model.f_ghz,
                               ple=model.ple, sigma_db=model.sigma_db,
                               condition=cond, n_samples=n_fitted))
        print(f"{cond.value}: ple={model.ple:.2f} sigma={model.sigma_db:.2f} dB "
              f"(n={n_fitted})")
    _emit(ResultBundle(RunMetadata("fit", __version__), model_cards=cards),
          _resolve_out(args))
    return 0


def _load_models(args) -> tuple[dict[Condition, CiModel], LinkBudget]:
    if args.models is not None and args.scenario is not None:
        raise ScenarioError("--models and --scenario are mutually exclusive")
    if args.models is not None:
        cards = load_model_cards(args.models)
        models = {c.condition: c.to_model() for c in cards}
        return models, SOUNDER_LINK_BUDGET
    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
        return dict(scenario.models), scenario.budget
    return dict(DIRECTIONAL_CI_73GHZ), SOUNDER_LINK_BUDGET


def _cmd_coverage(args) -> int:
    models, budget = _load_models(args)
    distances = (_parse_distances(args.distances) if args.distances
                 else list(DEFAULT_COVERAGE_DISTANCES_M))
    rows = outage_table(models, budget, distances)
    print("condition distance_m edge_outage_pct region_outage_pct")
    for row in rows:
        print(f"{row.condition} {row.distance_m:g} "
              f"{format_pct(row.p_out_edge)} {format_pct(row.p_out_region)}")
    _emit(ResultBundle(RunMetadata("coverage", __version__), outage_rows=rows),
          _resolve_out(args))
    return 0


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = _resolve_seed(args.seed, scenario)
    if seed != scenario.seed:
        scenario = replace(scenario, seed=seed)
    n_bs = len(scenario.base_stations)
    k_max = args.k_max if args.k_max is not None else min(5, n_bs)
    if not 1 <= k_max <= n_bs:
        raise ScenarioError(f"k_max must be in [1, {n_bs}], got {k_max}")
    if args.trials < 1:
        raise ScenarioError(f"trials must be >= 1, got {args.trials}")
    drops = simulate_drop(scenario, args.trials)
    probs = reception_vs_serving_count(scenario, drops, k_max)
    topology = scenario.topology()
    rows = [ReceptionRow(k, p, combination_count(topology, k))
            for k, p in sorted(probs.items())]
    for row in rows:
        print(f"k={row.k} reception={format_pct(row.probability)}% "
              f"({row.n_combinations} combinations per trial)")
    # Best-n CDFs: links are UE-major, so each row holds one UE's omni path
    # losses in one trial, and sorted column n-1 is its n-th lowest.
    import numpy as np
    best = np.sort(drops.omni_pl_db.reshape(-1, n_bs), axis=1)
    cdfs = {f"best{n}_pl_db": build_cdf(best[:, n - 1].tolist())
            for n in range(1, k_max + 1) if np.isfinite(best[:, n - 1]).any()}
    meta = RunMetadata("simulate", __version__, seed, args.trials)
    _emit(ResultBundle(meta, reception_rows=rows, cdfs=cdfs), _resolve_out(args))
    return 0


def _cmd_enumerate(args) -> int:
    if args.k is not None and args.k < 1:
        raise ScenarioError(f"--k must be >= 1, got {args.k}")
    if args.directions < 1:
        raise ScenarioError(f"--directions must be >= 1, got {args.directions}")
    topology = load_topology(args.topology)
    sizes = [len(set(s)) for s in topology.values()]
    limit = args.k if args.k is not None else max(sizes)
    if args.masks is not None:
        masks = read_masks_csv(args.masks, n_directions=args.directions)
        counts = reception_counts(masks, topology, limit, args.directions)
        rows = [ReceptionRow(k, hits / n, n)
                for k, (hits, n) in sorted(counts.items())]
        for row in rows:
            print(f"k={row.k}: {row.n_combinations} combinations, "
                  f"reception={format_pct(row.probability)}%")
        _emit(ResultBundle(RunMetadata("enumerate", __version__),
                           reception_rows=rows), _resolve_out(args))
        return 0
    counts = []
    for k in range(1, limit + 1):
        n = combination_count(topology, k)
        if not n:
            break
        counts.append(n)
        print(f"k={k}: {n} combinations")
    print("counts:", ",".join(str(c) for c in counts))
    return 0


def _cmd_report(args) -> int:
    bundle_dir = Path(args.bundle)
    meta_path = bundle_dir / "metadata.json"
    if not meta_path.is_file():
        raise ScenarioError(f"{bundle_dir}: not a result bundle "
                            f"(missing metadata.json)")
    meta = json.loads(meta_path.read_text())
    print(f"run: {meta.get('command')} "
          f"(version {meta.get('package_version')}, seed {meta.get('seed')}, "
          f"trials {meta.get('trials')})")
    models_path = bundle_dir / "models.json"
    if models_path.is_file():
        print("models:")
        for card in load_model_cards(models_path):
            extra = f", n={card.n_samples}" if card.n_samples is not None else ""
            print(f"  {card.label}: ple={card.ple:g} sigma={card.sigma_db:g} dB "
                  f"at {card.f_ghz:g} GHz{extra}")
    for name in ("outage.csv", "reception.csv"):
        path = bundle_dir / name
        if path.is_file():
            print(f"{name}:")
            for line in path.read_text().splitlines():
                print(f"  {line}")
    for path in sorted(bundle_dir.glob("cdf_*.csv")):
        lines = path.read_text().splitlines()[1:]
        xs = [float(line.split(",")[0]) for line in lines]
        mid = xs[len(xs) // 2] if xs else float("nan")
        print(f"{path.name}: {len(xs)} points, median {mid:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwcomp",
        description="Coverage and macro-diversity analysis for mmWave small cells.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit CI models to a sample CSV")
    p_fit.add_argument("--samples", required=True, help="path-loss sample CSV")
    p_fit.add_argument("--f-ghz", type=float, default=CARRIER_F_GHZ,
                       help=f"carrier frequency in GHz (default {CARRIER_F_GHZ})")
    p_fit.add_argument("--include-vh", action="store_true",
                       help="include cross-polarized samples in the fit")
    p_fit.add_argument("--strict", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="fail on malformed CSV rows (--no-strict skips them)")
    p_fit.add_argument("--out", help="output directory")
    p_fit.set_defaults(func=_cmd_fit)

    p_cov = sub.add_parser("coverage", help="edge and region outage table")
    p_cov.add_argument("--scenario", help="scenario JSON (models and budget)")
    p_cov.add_argument("--models", help="models.json from a fit run")
    p_cov.add_argument("--distances",
                       help="comma-separated cell radii in meters")
    p_cov.add_argument("--out", help="output directory")
    p_cov.set_defaults(func=_cmd_coverage)

    p_sim = sub.add_parser("simulate", help="Monte Carlo beam-sweep drops")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON")
    p_sim.add_argument("--trials", type=int, default=100,
                       help="number of drops (default 100)")
    p_sim.add_argument("--seed", type=int,
                       help="override the scenario seed")
    p_sim.add_argument("--k-max", type=int,
                       help="largest serving-set size to evaluate")
    p_sim.add_argument("--out", help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_enum = sub.add_parser("enumerate",
                            help="serving-set combinations, optionally scored")
    p_enum.add_argument("--topology", required=True,
                        help="serving-set JSON: {ue_id: [bs_id, ...]}")
    p_enum.add_argument("--masks", help="reception-mask CSV to score against")
    p_enum.add_argument("--directions", type=int, default=72,
                        help="mask length (default 72)")
    p_enum.add_argument("--k", type=int,
                        help="evaluate serving-set sizes 1..K (default: all)")
    p_enum.add_argument("--out", help="output directory")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_rep = sub.add_parser("report",
                           help="human-readable summary of a result bundle")
    p_rep.add_argument("--bundle", required=True,
                       help="directory written by a previous run's --out")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, FitError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure, distinct from bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
