"""Run one sedfuse CLI call in-process with its layers wrapped in spans.

    python3 perfbench/traced.py SPANS_OUT RUN_ID SEDFUSE_ARG...

The public functions listed in ``LAYER_STATS`` are wrapped from outside
the program: each name is replaced in every ``sedfuse`` module that binds it,
because ``cli`` and ``fusion`` bind them through ``from``-imports. Then
``sedfuse.cli.main`` runs with the given arguments. Spans are kept in
memory and written to SPANS_OUT as JSON lines when the call ends. Each
span holds its id, parent id, run id, name, start, end and the counts read
from its arguments, return value and files.

Importing this module imports no part of sedfuse; ``run.py`` imports it
for the layer tables and the span arithmetic.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _psds_counts(a, k, r):
    cfgs = _arg(a, k, 3, "psds_cfgs")
    return {"clips": len(_arg(a, k, 0, "grids")), "operating_points": len(cfgs[0].operating_points)}


# Counts taken after a span closes, from arguments, return values and files.
COUNTS = {
    "core.parse_framegrids": lambda a, k, r: {"mb": _mb(_arg(a, k, 0, "path"))},
    "core.write_framegrids": lambda a, k, r: {"mb": _mb(_arg(a, k, 2, "path"))},
    "spl.select": lambda a, k, r: {"selected": len(r.selected), "sources": r.n_sources},
    "fusion.fit_alpha": lambda a, k, r: {"grid_points": len(r.curve)},
    "fusion.fit_logistic_fusion": lambda a, k, r: {
        "iterations": int(r.iterations.sum()),
        "fallback_classes": int(r.fallback.sum()),
    },
    "fusion.sweep_beta": lambda a, k, r: {"grid_points": len(r.curve)},
    "decode.decode_many": lambda a, k, r: {"clips": len(_arg(a, k, 0, "grids")), "events": len(r)},
    "metrics.event_f1": lambda a, k, r: {
        "events": len(_arg(a, k, 0, "ref")) + len(_arg(a, k, 1, "est"))
    },
    "metrics.psds_many": _psds_counts,
}

# The wrapped functions and the per-layer metrics reported for each.
LAYER_STATS = {
    "metrics.psds_many": ("calls", "self_s", "clips", "operating_points"),
    "metrics.event_f1": ("calls", "self_s", "events"),
    "decode.decode_many": ("calls", "self_s", "clips", "events"),
    "fusion.fit_alpha": ("total_s", "self_s", "grid_points"),
    "fusion.combine_pair": ("calls", "self_s"),
    "fusion.fit_logistic_fusion": ("self_s", "iterations", "fallback_classes"),
    "fusion.sweep_beta": ("total_s", "self_s", "grid_points"),
    "fusion.fuse_average": ("self_s",),
    "fusion.fuse_classwise": ("self_s",),
    "fusion.apply_logistic_fusion": ("self_s",),
    "core.parse_framegrids": ("calls", "self_s", "mb"),
    "core.write_framegrids": ("calls", "self_s", "mb"),
    "core.write_events": ("self_s",),
    "core.parse_events": ("self_s",),
    "synth.gen_truth": ("self_s",),
    "synth.simulate_model": ("calls", "self_s"),
    "synth.simulate_separation": ("self_s",),
    "spl.select": ("calls", "self_s", "selected_ratio"),
    "cli.main": ("self_s",),
}

STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "clips": "count",
    "events": "count",
    "operating_points": "count",
    "grid_points": "count",
    "iterations": "count",
    "fallback_classes": "count",
    "mb": "MB",
    "selected_ratio": "ratio",
}


def _wrap(name, fn, count, spans, stack, run_id):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = {"id": len(spans), "parent": stack[-1], "run": run_id, "name": name}
        spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if count is not None:
            span["counts"] = count(args, kwargs, result)
        return result

    return traced


def install(spans: list, run_id: str):
    """Wrap every function in ``LAYER_STATS``; return the patched ``sedfuse.cli``."""
    cli = importlib.import_module("sedfuse.cli")
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "sedfuse"]
    stack = [None]
    for qualname in LAYER_STATS:
        layer, fn_name = qualname.split(".")
        original = getattr(importlib.import_module(f"sedfuse.{layer}"), fn_name)
        wrapper = _wrap(qualname, original, COUNTS.get(qualname), spans, stack, run_id)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return cli


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Self time of each span: its duration minus its child spans' durations."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[(s["run"], s["parent"])] += s["end"] - s["start"]
    return {(s["run"], s["id"]): s["end"] - s["start"] - child[(s["run"], s["id"])] for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate spans into ``<module>.<function>.<stat>`` values."""
    own = self_times(spans)
    agg = {name: defaultdict(float) for name in LAYER_STATS}
    for s in spans:
        a = agg[s["name"]]
        a["calls"] += 1
        a["total_s"] += s["end"] - s["start"]
        a["self_s"] += own[(s["run"], s["id"])]
        for key, value in s.get("counts", {}).items():
            a[key] += value
    out = {}
    for name, stats in LAYER_STATS.items():
        a = agg[name]
        a["selected_ratio"] = a["selected"] / a["sources"] if a["sources"] else 0.0
        for stat in stats:
            value = a[stat]
            out[f"{name}.{stat}"] = int(value) if STAT_UNITS[stat] == "count" else value
    return out


def unaccounted_seconds(spans: list[dict]) -> dict[str, float]:
    """Per run: the run's ``cli.main`` span minus the sum of all self times.

    Every span nests inside ``cli.main``, so each value is zero up to
    rounding; a larger value means a span escaped its parent.
    """
    own = self_times(spans)
    main = {s["run"]: s["end"] - s["start"] for s in spans if s["name"] == "cli.main"}
    total = defaultdict(float)
    for s in spans:
        total[s["run"]] += own[(s["run"], s["id"])]
    return {run: main.get(run, 0.0) - total[run] for run in total}


def main() -> int:
    out, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    spans: list[dict] = []
    cli = install(spans, run_id)
    try:
        return cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)


if __name__ == "__main__":
    sys.exit(main())
