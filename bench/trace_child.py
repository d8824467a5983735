"""Run one ``mmwcomp`` CLI command in process with layer spans recorded.

Usage (working directory ``src``)::

    python <path>/trace_child.py SPANS_JSON CLI_ARG...

Imports ``mmwcomp.cli`` (timed as ``cli.import``), wraps the public
functions that ``mmwcomp.cli`` and ``mmwcomp.diversity`` call through their
module namespaces with ``perf_counter`` spans, calls ``mmwcomp.cli.main``
and writes per-layer totals to SPANS_JSON.  Timestamps are
``time.perf_counter`` values, which on Linux share CLOCK_MONOTONIC with the
parent, so the parent can attribute interpreter start and exit too.  A
function that no longer exists is skipped: its layer reads 0.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.getcwd())

# (namespace, attribute) -> layer.  Calls through ``mmwcomp.cli`` are the
# CLI's view of each layer; calls through ``mmwcomp.diversity`` are the
# simulator's own draws and reductions.
WRAPPED = {
    ("cli", "load_scenario"): "scenario_io.load_scenario",
    ("cli", "read_samples_csv"): "scenario_io.read_samples_csv",
    ("cli", "read_masks_csv"): "scenario_io.read_masks_csv",
    ("cli", "load_topology"): "scenario_io.load_topology",
    ("cli", "load_model_cards"): "results.load_model_cards",
    ("cli", "fit_ci"): "fitting.fit_ci",
    ("cli", "outage_table"): "coverage.outage_table",
    ("cli", "simulate_drop"): "diversity.simulate_drop",
    ("cli", "reception_vs_serving_count"): "diversity.reduce",
    ("cli", "reception_table_from_records"): "diversity.reduce",
    ("cli", "enumerate_serving_combinations"): "diversity.enumerate",
    ("cli", "best_n_path_loss"): "diversity.best_n",
    ("cli", "build_cdf"): "results.build_cdf",
    ("cli", "emit_results"): "results.emit_results",
    ("diversity", "ci_sample_path_loss_db"): "propagation.ci_sample",
    ("diversity", "substream"): "rng.substream",
    ("diversity", "simulate_drop"): "diversity.simulate_drop",
    ("diversity", "all_angle_reception_probability"): "diversity.reduce_kernel",
    ("diversity", "enumerate_serving_combinations"): "diversity.enumerate",
}


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Nested spans aggregated per layer: inclusive time, self time, calls.

    Inclusive time counts only the outermost active span of a layer, so a
    layer that re-enters itself is not counted twice.  Self time is a
    span's duration minus its direct children's.
    """

    def __init__(self):
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self._active: dict[str, int] = {}

    def span(self, layer, fn, args, kwargs):
        frame = [layer, 0.0]
        self._stack.append(frame)
        self._active[layer] = self._active.get(layer, 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            self._active[layer] -= 1
            if self._stack:
                self._stack[-1][1] += dur
            if not self._active[layer]:
                self.total[layer] = self.total.get(layer, 0.0) + dur
            self.self_time[layer] = self.self_time.get(layer, 0.0) + dur - frame[1]
            self.calls[layer] = self.calls.get(layer, 0) + 1

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, layer, fn):
        if layer == "propagation.ci_sample":
            def wrapper(*args, **kwargs):
                out = self.span(layer, fn, args, kwargs)
                self.count("propagation.normal_draws", getattr(out, "size", 1))
                return out
        elif layer == "diversity.simulate_drop":
            def wrapper(*args, **kwargs):
                before = _rss_mb()
                out = self.span(layer, fn, args, kwargs)
                self.count("diversity.drop_rss_mb", _rss_mb() - before)
                return out
        else:
            def wrapper(*args, **kwargs):
                return self.span(layer, fn, args, kwargs)
        return wrapper


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t_import = time.perf_counter()
    import mmwcomp.cli
    import mmwcomp.diversity
    t_install = time.perf_counter()
    tracer = Tracer()
    modules = {"cli": mmwcomp.cli, "diversity": mmwcomp.diversity}
    for (ns, attr), layer in WRAPPED.items():
        fn = getattr(modules[ns], attr, None)
        if fn is not None:
            setattr(modules[ns], attr, tracer.wrap(layer, fn))
    t_main = time.perf_counter()
    rc = tracer.span("cli.main", mmwcomp.cli.main, (argv,), {})
    t_end = time.perf_counter()
    sys.stdout.flush()
    import json
    with open(spans_path, "w") as fh:
        json.dump({"t_start": T_START, "t_end": t_end,
                   "pre_import_s": t_import - T_START,
                   "import_s": t_install - t_import,
                   "install_s": t_main - t_install,
                   "total": tracer.total, "self": tracer.self_time,
                   "calls": tracer.calls, "counters": tracer.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
