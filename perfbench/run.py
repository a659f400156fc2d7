"""sedfuse benchmark: time the real CLI end to end on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --smoke             # all workloads at a few clips

A run builds its inputs from the seed with ``sedfuse simulate`` (set-up,
repeated and timed as ``setup_s``), then runs iterations of the workload's
CLI calls, one child process at a time, until the next one would end past
``--seconds`` (at least one). Every iteration's outputs are checked outside
the timed span. With ``--trace 1`` the run also repeats set-up and one
iteration under ``traced.py``, which wraps each layer's public functions
from outside the program, and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without a sedfuse
source tree next to this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import traced
from workloads import (
    ROOT,
    SRC,
    WORKLOADS,
    BenchError,
    CallResult,
    load_reference,
    run_child,
    sedfuse_cmd,
    sha256_file,
    source_digest,
)

HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"  # scratch inputs, determinism digests and span dumps
SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "wall_s": "s",
    "clips_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Tally:
    """Attempted and failed CLI calls; a failure is printed with its cause."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {self.workload}: {problem}")


def _tail(log: Path, lines: int = 5) -> str:
    return " | ".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


def _traced_cmd(spans_out: Path, run_id: str, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "traced.py"), str(spans_out), run_id, *args]


def _setup(w, tally: Tally, cmd: list[str], log: Path) -> CallResult:
    result = run_child(cmd, log)
    tally.attempted += 1
    if result.status != 0:
        tally.failed += 1
        raise BenchError(f"{w.name} set-up exited {result.status}: {_tail(log)}")
    return result


class Determinism:
    """Output digests must repeat across iterations of a run and across runs
    of the same source tree; the first passing digests of a tree are kept."""

    def __init__(self, w, digest: str):
        scale = "smoke" if w.smoke else "full"
        self.path = STATE / "digests" / f"{w.name}-{scale}-seed{w.seed}-{digest[:16]}.json"
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, label: str, files: dict[str, str]) -> list[str]:
        want = self.known.get(label)
        if want is None:
            return []
        return [f"{label} output {name} differs from an earlier run of the same code"
                for name, sha in files.items() if want.get(name) != sha]

    def remember(self, label: str, files: dict[str, str]) -> None:
        if label in self.known:
            return
        self.known[label] = files
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)


def _iteration(w, tally, determinism, index: int, spans_dir: Path | None = None):
    """Run one iteration's calls; returns (wall, cpu, peak rss) and checks outputs."""
    out = w.work / f"it{index}"
    wall = cpu = rss = 0.0
    for k, call in enumerate(w.calls(out)):
        log = w.work / f"it{index}-{call.label}.log"
        if spans_dir is None:
            result = run_child(sedfuse_cmd(call.args), log)
        else:
            run_id = f"{w.name}/seed{w.seed}/{call.label}"
            result = run_child(_traced_cmd(spans_dir / f"{k}.jsonl", run_id, call.args), log)
        wall += result.wall
        cpu += result.cpu
        rss = max(rss, result.rss_mb)
        if result.status != 0:
            tally.record([f"{call.label} exited {result.status}: {_tail(log)}"])
            continue
        try:
            problems = w.check(call)
            files = {name: sha256_file(call.out / name) for name in call.outputs}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            tally.record([f"{call.label} wrote unreadable output in {call.out}: {exc!r}"])
            continue
        problems += determinism.check(call.label, files)
        if not problems:
            determinism.remember(call.label, files)
        tally.record(problems)
    shutil.rmtree(out, ignore_errors=True)
    return wall, cpu, rss


def _read_spans(spans_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(spans_dir.glob("*.jsonl")):
        with open(path, "r", encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _layer_results(w, spans: list[dict]) -> tuple[dict, dict, bool]:
    """Per-layer values and units from a traced run's spans, which are also
    kept in ``.perfbench/spans``; False if a span escaped its parent."""
    out = STATE / "spans" / f"{w.name}-seed{w.seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in spans)
    leaks = {run: gap for run, gap in traced.unaccounted_seconds(spans).items() if abs(gap) > 1e-6}
    for run, gap in leaks.items():
        print(f"FAIL {w.name}: span self times in {run} miss cli.main by {gap:.3g} s")
    units = {f"{layer}.{stat}": traced.STAT_UNITS[stat]
             for layer, stats in traced.LAYER_STATS.items() for stat in stats}
    units["trace.overhead_s"] = "s"
    return traced.layer_metrics(spans), units, not leaks


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none: not a git checkout"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _stamp(w, digest: str, iterations: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": w.name,
        "seed": w.seed,
        "trace": trace,
        "seconds": seconds,
        "iterations": iterations,
        "clips": w.n_clips,
        "clip_passes_per_iteration": w.clip_passes,
        "input_bytes": {p.name: p.stat().st_size for p in sorted(w.data.iterdir()) if p.is_file()},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest,
    }


def run_workload(name: str, seed: int, seconds: int, trace: int, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (SRC / "sedfuse" / "cli.py").is_file():
        raise BenchError(f"no sedfuse sources under {SRC}")
    if seed < 0:
        raise BenchError("--seed must be >= 0")
    work = STATE / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        w = WORKLOADS[name](seed, smoke, work, load_reference(name, seed, smoke))
        digest = source_digest()
        tally = Tally(name)
        determinism = Determinism(w, digest)
        spans_dir = work / "spans"

        if trace:
            spans_dir.mkdir()
            setup_cmds = [_traced_cmd(spans_dir / "setup.jsonl", f"{name}/seed{seed}/setup",
                                      w.setup_args())]
        else:
            setup_cmds = [sedfuse_cmd(w.setup_args())] * SETUP_REPEATS
        setups = [_setup(w, tally, cmd, work / f"setup{i}.log") for i, cmd in enumerate(setup_cmds)]

        walls, cpus, rss = [], [], 0.0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
            wall, cpu, peak = _iteration(w, tally, determinism, len(walls))
            walls.append(wall)
            cpus.append(cpu)
            rss = max(rss, peak)
        wall_s = statistics.median(walls)

        if trace:
            traced_wall, _, _ = _iteration(w, tally, determinism, len(walls), spans_dir)
            values, units, spans_ok = _layer_results(w, _read_spans(spans_dir))
            values["trace.overhead_s"] = traced_wall - wall_s
        else:
            values = {
                "wall_s": wall_s,
                "clips_per_s": w.clip_passes / wall_s,
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": rss,
                "setup_s": statistics.median(s.wall for s in setups),
            }
            units = END_TO_END_UNITS
            spans_ok = True

        stamp = _stamp(w, digest, len(walls), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(f"workload {name}: seed {seed}, {len(walls)} timed iteration(s), "
          f"{tally.attempted} CLI calls")
    for key, m in metrics.items():
        print(f"  {key:42s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':42s} {tally.failed / tally.attempted:>14.6g} "
          f"ratio ({tally.failed}/{tally.attempted} calls failed)")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    return {
        "correct": tally.failed == 0 and spans_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def smoke(seed: int) -> int:
    """Every workload, untraced and traced, at a few clips: each metric named
    in BENCHMARK.json must be present with its unit, and every check pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed, 1, trace, smoke=True)
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: outputs failed their checks")
            for metric in wanted[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace={trace}: {metric['name']} missing or wrong unit")
            extra = set(result["metrics"]) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append(f"{name} trace={trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads at a few clips")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
