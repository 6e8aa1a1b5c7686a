"""In-memory spans around the public functions of each photoent module.

Layers are the package's modules.  ``install`` wraps every listed public
function under each name a photoent module looks it up by, so calls between
modules are seen as well as calls from the benchmark.  A span records
(name, start, end, parent, item); self time is a span's duration minus the
durations of its direct children.  Work counts come from return values (and
arguments) at the same boundaries and are computed, not sampled.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

MODULES = ("fock", "projective", "photocount", "probe", "oracle", "cli")

# public functions wrapped per module; each becomes a span "<module>.<name>"
WRAPPED = {
    "fock": (
        "make_coherent_product",
        "make_superposition",
        "apply_beam_splitter",
        "number_weights",
        "density_from_pure",
        "partial_trace",
        "linear_entropy",
        "entanglement_report",
    ),
    "projective": (
        "mixture_pmf",
        "mixture_pmf_row",
        "k_cutoff",
        "pm_probability",
        "pm_count_cutoff",
        "pm_postselect",
    ),
    "photocount": (
        "eval_kernels",
        "count_probability",
        "count_cutoff",
        "count_distribution_row",
        "count_distribution",
        "most_probable_time",
        "postselect_density",
        "short_time_state",
        "entanglement_scan",
        "sample_counts",
    ),
    "probe": (
        "analytic_moments",
        "h_function",
        "fourier_coefficients",
        "classify_special_state",
        "reconstruct_marginal",
        "probe_report",
    ),
    "oracle": ("nt_oracle_point", "p_k_quadrature", "mc_count_histogram"),
    "cli": ("load_config", "build_state", "build_params", "write_csv", "write_json"),
}

CLI_SUBCOMMANDS = ("pm-dist", "count-dist", "scan", "probe", "sample", "oracle-check")


def _count_distribution(args, kwargs, out):
    state = args[0] if args else kwargs["state0"]
    cells = int(out.values.size)
    return {
        "cells": cells,
        "useful": int((out.values > 1e-15).sum()),
        "pmf_evals": cells * (state.n_max + 1),
    }


def _postselect_density(args, kwargs, out):
    return {"elements": int(out.rho.size), "bytes_computed": int(out.rho.nbytes)}


def _h_function(args, kwargs, out):
    return {"samples": int(out.trusted.size), "trusted": int(out.trusted.sum())}


def _write_csv(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _mc_count_histogram(args, kwargs, out):
    return {"trajectories": int(out.sum()), "overflow": int(out[-1])}


# work counts read at the layer boundary, from arguments and return values
COUNTERS = {
    "photocount.count_distribution": _count_distribution,
    "photocount.postselect_density": _postselect_density,
    "probe.h_function": _h_function,
    "cli.write_csv": _write_csv,
    "oracle.mc_count_histogram": _mc_count_histogram,
}

# Per-layer metrics: (name, unit, better, end-to-end metric @ workload it should move).
# Times and counts are per traced item unless the name says otherwise; counts
# marked "computed" come from arguments and return values, not from sampling.
LAYER_METRICS = (
    ("item.traced_s", "s", "lower", "item_p50_s @ all"),
    ("unattributed.self_s", "s", "lower", "setup_s, item_p50_s @ cli-readout (interpreter start, import)"),
    ("fock.self_s", "s", "lower", "item_p50_s @ entangle-large"),
    ("projective.self_s", "s", "lower", "item_p50_s @ cli-readout, entangle-large"),
    ("photocount.self_s", "s", "lower", "item_p50_s @ cli-readout, entangle-large"),
    ("probe.self_s", "s", "lower", "item_p50_s @ cli-readout"),
    ("oracle.self_s", "s", "lower", "items_per_s @ oracle-check"),
    ("cli.self_s", "s", "lower", "item_p50_s @ cli-readout"),
    ("photocount.count_distribution.self_s", "s", "lower", "items_per_s, item_p50_s @ cli-readout"),
    ("photocount.count_distribution.cells", "count", "lower", "computed; items_per_s, item_p50_s @ cli-readout"),
    ("photocount.count_distribution.pmf_evals", "count", "lower", "computed; items_per_s, item_p50_s @ cli-readout"),
    ("photocount.count_distribution.useful_frac", "1", "higher", "computed; items_per_s, item_p50_s @ cli-readout"),
    ("photocount.most_probable_time.self_s", "s", "lower", "item_p50_s, item_tail_s @ cli-readout"),
    ("photocount.most_probable_time.calls", "count", "lower", "item_p50_s, item_tail_s @ cli-readout"),
    ("projective.pm_probability.self_s", "s", "lower", "item_p50_s @ cli-readout"),
    ("projective.pm_probability.calls", "count", "lower", "item_p50_s @ cli-readout"),
    ("photocount.postselect_density.self_s", "s", "lower", "item_p50_s, peak_rss_mb @ entangle-large"),
    ("photocount.postselect_density.elements", "count", "lower", "computed; item_p50_s, peak_rss_mb @ entangle-large"),
    ("photocount.postselect_density.bytes_computed", "B", "lower", "computed; item_p50_s, peak_rss_mb @ entangle-large"),
    ("fock.entanglement_report.self_s", "s", "lower", "item_p50_s, peak_rss_mb @ entangle-large"),
    ("fock.apply_beam_splitter.self_s", "s", "lower", "item_p50_s, peak_rss_mb @ entangle-large"),
    ("projective.pm_postselect.self_s", "s", "lower", "item_p50_s @ entangle-large (should not move with the dense path)"),
    ("probe.probe_report.self_s", "s", "lower", "item_p50_s @ cli-readout"),
    ("probe.h_function.trusted_frac", "1", "higher", "computed; item_p50_s @ cli-readout"),
    ("cli.pm-dist.wall_s", "s", "lower", "item_p50_s, item_tail_s @ cli-readout (per call)"),
    ("cli.count-dist.wall_s", "s", "lower", "item_p50_s, item_tail_s @ cli-readout (per call)"),
    ("cli.scan.wall_s", "s", "lower", "item_p50_s, item_tail_s @ cli-readout (per call)"),
    ("cli.probe.wall_s", "s", "lower", "item_p50_s, item_tail_s @ cli-readout (per call)"),
    ("cli.sample.wall_s", "s", "lower", "item_p50_s, item_tail_s @ cli-readout (per call)"),
    ("cli.oracle-check.wall_s", "s", "lower", "item_p50_s, item_tail_s @ cli-readout (per call)"),
    ("cli.write_csv.self_s", "s", "lower", "item_p50_s, item_tail_s @ cli-readout"),
    ("cli.write_csv.bytes", "B", "lower", "computed; item_p50_s, item_tail_s @ cli-readout"),
    ("oracle.nt_oracle_point.self_s", "s", "lower", "item_tail_s, items_per_s @ oracle-check"),
    ("oracle.p_k_quadrature.self_s", "s", "lower", "item_tail_s, items_per_s @ oracle-check"),
    ("oracle.mc_count_histogram.self_s", "s", "lower", "items_per_s @ oracle-check"),
    ("oracle.mc_count_histogram.trajectories", "count", "lower", "computed; items_per_s @ oracle-check"),
    ("oracle.mc_count_histogram.trajectories_per_s", "1/s", "higher", "items_per_s @ oracle-check"),
    ("oracle.mc_count_histogram.overflow_frac", "1", "lower", "computed; items_per_s @ oracle-check"),
    ("fock.failed", "count", "lower", "failed_frac @ all (whole run)"),
    ("projective.failed", "count", "lower", "failed_frac @ all (whole run)"),
    ("photocount.failed", "count", "lower", "failed_frac @ all (whole run)"),
    ("probe.failed", "count", "lower", "failed_frac @ all (whole run)"),
    ("oracle.failed", "count", "lower", "failed_frac @ all (whole run)"),
    ("cli.failed", "count", "lower", "failed_frac @ all (whole run)"),
    ("trace.items_per_s_untraced", "1/s", "higher", "tracing overhead: untraced rounds of the traced run"),
    ("trace.items_per_s_traced", "1/s", "higher", "tracing overhead: traced rounds of the traced run"),
    ("trace.overhead_items_per_s", "1/s", "lower", "tracing overhead: untraced minus traced items_per_s"),
)


class Tracer:
    """Spans and counts, kept in memory while ``enabled``; one per process."""

    def __init__(self) -> None:
        self.enabled = False
        self.item: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter() if start is None else start, None, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][2] = perf_counter() if end is None else end
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    self.counts[f"{name}.{key}"] += value
            return out

        return traced

    def adopt(self, spans: list[list], counts: dict[str, float], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``
        (perf_counter is the system-wide monotonic clock, so times agree)."""
        base = len(self.spans)
        for name, start, end, par, _item in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, self.spans[parent][4]])
        for key, value in counts.items():
            self.counts[key] += value

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(tracer: Tracer) -> None:
    """Replace each listed function, under every name a photoent module binds
    it to, by a traced wrapper; CLI subcommands become spans "cli.<name>"."""
    mods = {name: importlib.import_module(f"photoent.{name}") for name in MODULES}
    namespaces = [importlib.import_module("photoent"), *mods.values()]
    for module, names in WRAPPED.items():
        for fname in names:
            orig = getattr(mods[module], fname)
            wrapped = tracer.wrap(f"{module}.{fname}", orig)
            for ns in namespaces:
                if getattr(ns, fname, None) is orig:
                    setattr(ns, fname, wrapped)
    commands = mods["cli"]._COMMANDS
    for sub in CLI_SUBCOMMANDS:
        commands[sub] = tracer.wrap(f"cli.{sub}", commands[sub])


def module_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in MODULES else "unattributed"


def layer_metrics(tracer: Tracer, traced_items: list[int], failed_by_module: dict[str, int],
                  rate_untraced: float, rate_traced: float) -> dict[str, float]:
    """Per-layer metrics from the spans of ``traced_items``: self times per
    module add up, with the unattributed remainder, to the traced item time."""
    n = max(len(traced_items), 1)
    keep = set(traced_items)
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by_name: dict[str, float] = defaultdict(float)
    wall_by_name: dict[str, float] = defaultdict(float)
    calls_by_name: dict[str, int] = defaultdict(int)
    item_total = 0.0
    for i, (name, start, end, parent, item) in enumerate(spans):
        if item not in keep:
            continue
        self_by_name[name] += (end - start) - child[i]
        wall_by_name[name] += end - start
        calls_by_name[name] += 1
        if parent < 0:
            item_total += end - start
    out: dict[str, float] = {
        "item.traced_s": item_total / n,
        "trace.items_per_s_untraced": rate_untraced,
        "trace.items_per_s_traced": rate_traced,
        "trace.overhead_items_per_s": rate_untraced - rate_traced,
    }
    per_module: dict[str, float] = defaultdict(float)
    for name, value in self_by_name.items():
        per_module[module_of(name)] += value
    for module in ("unattributed", *MODULES):
        out[f"{module}.self_s"] = per_module[module] / n
    counts = tracer.counts
    for metric, _unit, _better, _target in LAYER_METRICS:
        if metric in out:
            continue
        base, _, field = metric.rpartition(".")
        if field == "self_s":
            out[metric] = self_by_name[base] / n
        elif field == "wall_s":
            out[metric] = _ratio(wall_by_name[base], calls_by_name[base])
        elif field == "calls":
            out[metric] = calls_by_name[base] / n
        elif field == "failed":
            out[metric] = float(failed_by_module.get(base, 0))
        elif field == "useful_frac":
            out[metric] = _ratio(counts[f"{base}.useful"], counts[f"{base}.cells"])
        elif field == "trusted_frac":
            out[metric] = _ratio(counts[f"{base}.trusted"], counts[f"{base}.samples"])
        elif field == "overflow_frac":
            out[metric] = _ratio(counts[f"{base}.overflow"], counts[f"{base}.trajectories"])
        elif field == "trajectories_per_s":
            out[metric] = _ratio(counts[f"{base}.trajectories"], wall_by_name[base])
        else:
            out[metric] = counts[metric] / n
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
