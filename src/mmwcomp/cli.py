"""Command line interface.

Subcommands:
    fit        fit CI models to a path-loss sample CSV
    coverage   edge and region outage at given cell radii
    simulate   Monte Carlo beam-sweep drops for a scenario
    enumerate  serving-set combinatorics, optionally with measured masks
    report     human-readable summary of an emitted result bundle

Exit codes: 0 on success, 1 on bad input, 2 on an internal failure (and,
per argparse convention, on a usage error).  A stdout closed by its reader
exits 1 with nothing on stderr.  Each command that writes a bundle
returns it, and ``main`` writes it under the --out directory; without one,
output is stdout only.  ``report`` writes no bundle, and ``enumerate``
writes one only with --masks, so its --out without --masks exits 1.

``run()`` is the process entry point (``python -m mmwcomp.cli`` and the
``mmwcomp`` script); ``main()`` is the same commands for callers inside a
process, with no effect on its garbage collector.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import NoReturn

from . import __version__
from .coverage import LinkBudget, outage_table
from .params import (CARRIER_F_GHZ, DEFAULT_COVERAGE_DISTANCES_M,
                     DIRECTIONAL_CI_73GHZ, SOUNDER_LINK_BUDGET)
from .propagation import REFERENCE_DISTANCE_M, CiModel, Condition
from .results import (CdfPoint, ModelCard, ReceptionRow, ResultBundle, RunMetadata,
                      build_cdf, bundle_csvs, emit_results, format_pct)
from .scenario_io import (ScenarioError, load_model_cards, load_scenario,
                          load_topology, read_bundle, read_masks_csv,
                          read_samples_csv)


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
        if d < REFERENCE_DISTANCE_M:
            raise ScenarioError(f"--distances radius {tok!r} must be >= "
                                f"{REFERENCE_DISTANCE_M} m")
    return distances


def _cmd_fit(args) -> ResultBundle:
    from .fitting import FitError, fit_ci
    if not 0.0 < args.f_ghz < math.inf:
        raise ScenarioError(f"--f-ghz must be positive and finite, "
                            f"got {args.f_ghz}")
    groups = read_samples_csv(args.samples)
    if not groups:
        raise ScenarioError(f"{args.samples}: no usable samples; the file "
                            "contains a header but no data rows")
    cards = []
    for cond, group in groups.items():
        try:
            if not group.d_m:  # the condition's rows are all VH
                raise FitError("no usable samples (cross-polarized rows are "
                               "never fitted)")
            model = fit_ci(group, args.f_ghz)
        except FitError as exc:
            raise ScenarioError(f"{args.samples}: {cond.value}: {exc}") from None
        n = len(group.d_m)
        cards.append(ModelCard(label=cond.value, f_ghz=model.f_ghz,
                               ple=model.ple, sigma_db=model.sigma_db,
                               condition=cond, n_samples=n))
        print(f"{cond.value}: ple={model.ple:.2f} sigma={model.sigma_db:.2f} dB "
              f"(n={n})")
    return ResultBundle(RunMetadata("fit", __version__), model_cards=cards)


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


def _cmd_coverage(args) -> ResultBundle:
    models, budget = _load_models(args)
    distances = (_parse_distances(args.distances) if args.distances
                 else list(DEFAULT_COVERAGE_DISTANCES_M))
    rows = outage_table(models, budget, distances)
    print("condition distance_m edge_outage_pct region_outage_pct")
    for row in rows:
        print(f"{row.condition} {row.distance_m:g} "
              f"{format_pct(row.p_out_edge)} {format_pct(row.p_out_region)}")
    return ResultBundle(RunMetadata("coverage", __version__), outage_rows=rows)


def _reception_rows(mask_set, topology, k_max: int) -> list[ReceptionRow]:
    """One row per k: the full-coverage share of every lane's k-subsets."""
    from .diversity import combination_count, reception_counts
    counts = reception_counts(mask_set, topology, k_max)
    return [ReceptionRow(k, hits / (mask_set.lanes * n), n)
            for k, hits in sorted(counts.items())
            for n in (combination_count(topology, k),)]


def _cmd_simulate(args) -> ResultBundle:
    from .diversity import simulate_drop
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        # _replace runs no checks, and substream's own error names no flag.
        if args.seed < 0:
            raise ScenarioError(f"--seed must be non-negative, got {args.seed}")
        scenario = scenario._replace(seed=args.seed)
    n_bs = len(scenario.base_stations)
    k_max = args.k_max if args.k_max is not None else min(5, n_bs)
    if not 1 <= k_max <= n_bs:
        raise ScenarioError(f"--k-max must be in [1, {n_bs}], got {k_max}")
    # simulate_drop checks this too; every flag is checked before it runs.
    if args.trials < 1:
        raise ScenarioError(f"--trials must be >= 1, got {args.trials}")
    try:  # a link of bad length; coverage reads the same file without links
        drops = simulate_drop(scenario, args.trials)
    except ValueError as exc:
        raise ScenarioError(f"{args.scenario}: {exc}") from None
    except MemoryError:  # each link draws T*R angle pairs per trial
        pairs = scenario.sweep.tx_angles * scenario.sweep.n_rx_directions
        raise ScenarioError(f"{args.scenario}: --trials {args.trials} on "
                            f"{n_bs * len(scenario.ues)} link(s) of {pairs} angle "
                            "pairs each needs more memory than is free") from None
    rows = _reception_rows(drops.masks, scenario.topology(), k_max)
    for row in rows:
        print(f"k={row.k} reception={format_pct(row.probability)}% "
              f"({row.n_combinations} combinations per trial)")
    import numpy as np
    # Best-n CDFs: links are UE-major, so each row holds one UE's omni path
    # losses in one trial, and sorted column n-1 is its n-th lowest.
    best = np.sort(drops.omni_pl_db.reshape(-1, n_bs), axis=1)
    cdfs = {f"best{n}_pl_db": build_cdf(best[:, n - 1].tolist())
            for n in range(1, k_max + 1) if np.isfinite(best[:, n - 1]).any()}
    meta = RunMetadata("simulate", __version__, scenario.seed, args.trials)
    return ResultBundle(meta, reception_rows=rows, cdfs=cdfs)


def _cmd_enumerate(args) -> ResultBundle | None:
    from .diversity import MaskSet, combination_count
    if args.out is not None and args.masks is None:
        raise ScenarioError("--out needs --masks: enumerate without masks "
                            "writes no bundle")
    if args.k is not None and args.k < 1:
        raise ScenarioError(f"--k must be >= 1, got {args.k}")
    topology = load_topology(args.topology)
    sizes = [len(set(s)) for s in topology.values()]
    limit = args.k if args.k is not None else max(sizes)
    if args.masks is not None:
        mask_set = MaskSet(*read_masks_csv(args.masks))
        try:
            rows = _reception_rows(mask_set, topology, limit)
        except ValueError as exc:  # a topology link without a mask row
            raise ScenarioError(f"{args.masks}: {exc}") from None
        for row in rows:
            print(f"k={row.k}: {row.n_combinations} combinations, "
                  f"reception={format_pct(row.probability)}%")
        return ResultBundle(RunMetadata("enumerate", __version__),
                            reception_rows=rows)
    counts = []
    for k in range(1, limit + 1):
        n = combination_count(topology, k)
        if not n:
            break
        counts.append(n)
        print(f"k={k}: {n} combinations")
    print("counts:", ",".join(str(c) for c in counts))
    return None


def _cmd_report(args) -> None:
    bundle = read_bundle(args.bundle)
    meta = bundle.metadata
    print(f"run: {meta.command} (version {meta.package_version}, "
          f"seed {meta.seed}, trials {meta.trials})")
    if bundle.model_cards:
        print("models:")
        for card in bundle.model_cards:
            extra = f", n={card.n_samples}" if card.n_samples is not None else ""
            print(f"  {card.label}: ple={card.ple:g} sigma={card.sigma_db:g} dB "
                  f"at {card.f_ghz:g} GHz{extra}")
    for name, rows, text in bundle_csvs(bundle):
        if isinstance(rows[0], CdfPoint):
            print(f"{name}: {len(rows)} points, median {rows[len(rows) // 2].x:.1f}")
        else:
            print(f"{name}:")
            for line in text.splitlines():
                print(f"  {line}")


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
    p_fit.add_argument("--out", help="output directory")
    p_fit.set_defaults(func=_cmd_fit)

    p_cov = sub.add_parser("coverage", help="edge and region outage table")
    p_cov.add_argument("--scenario", help="scenario JSON (models and budget)")
    p_cov.add_argument("--models", help="model cards from a fit run's --out")
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
        bundle = args.func(args)
        if bundle is not None and args.out is not None:
            for path in emit_results(bundle, args.out):
                print(f"wrote {path}")
        return 0
    except BrokenPipeError:  # a closed stdout; ``run()`` exits 1 quietly
        raise
    except (ValueError, OSError) as exc:
        # ScenarioError and FitError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure, distinct from bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """``main()`` as a whole process, with the cyclic garbage collector off.

    The collector would walk every live object during numpy's import and
    again while the interpreter shuts down.  A run leaves a few hundred
    unreachable objects whatever its input size, so nothing is collected;
    ``gc.freeze()`` then moves every live object to the permanent
    generation, which the collections at exit skip.  argparse's
    ``SystemExit`` (usage errors, ``--help``, ``--version``) leaves through
    the same ``finally``.

    A closed stdout exits 1 with nothing on stderr, as the ``signal``
    module's documentation shows: the flush makes a late write fail here,
    and stdout then points at the null device, so the flush at exit cannot
    fail again.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
