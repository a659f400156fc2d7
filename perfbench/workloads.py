"""The benchmark's workloads: how each builds its inputs, the CLI calls of
one iteration, and the checks on what those calls wrote.

Each workload is a closed loop with one client: the next ``sedfuse`` call
starts only after the previous one has exited, so at most one process is
busy and the timings measure the program, not the scheduler.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 42  # the seed the reference values were recorded at
TOL = 1e-9
SMOKE_CLIPS = 8
EXPERIMENT_SYSTEMS = ("model_1", "model_2", "model_3", "average", "logistic", "classwise")
# Systems whose scores are pinned; the logistic row may move with a better fitter.
PINNED_SYSTEMS = ("model_1", "model_2", "model_3", "average", "classwise")


class BenchError(Exception):
    """The benchmark cannot run here, so it reports no result."""


@dataclass
class CallResult:
    wall: float
    cpu: float
    rss_mb: float
    status: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Measure the default configuration: one process, no worker pool.
    env.pop("SEDFUSE_THREADS", None)
    return env


def run_child(cmd: list[str], log: Path) -> CallResult:
    """Run one child to completion; wall, CPU and peak RSS of that child alone."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CallResult(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, proc.returncode
    )


def sedfuse_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "sedfuse.cli", *args]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest() -> str:
    """sha256 over the package sources, so state is never shared across code versions."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sedfuse").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def load_reference(name: str, seed: int, smoke: bool) -> dict | None:
    """The recorded values a run must match, if any: full scale at the default seed."""
    if smoke or seed != DEFAULT_SEED:
        return None
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)[name]


# ---------------------------------------------------------------------------
# Checks shared by the workloads. Each returns a list of failure messages.
# ---------------------------------------------------------------------------


def _unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def _check_scores(report: dict, systems, where: str) -> list[str]:
    bad = []
    for name in systems:
        for key in ("collar_f1", "psds1", "psds2"):
            value = report["overall"][name][key]
            if not _unit_interval(value):
                bad.append(f"{where}: {name}.{key} = {value!r} outside [0, 1]")
    for cls, row in report["classwise_f1"].items():
        for name in systems:
            if not _unit_interval(row[name]):
                bad.append(f"{where}: classwise F1 {cls}/{name} = {row[name]!r} outside [0, 1]")
    return bad


def _match_scores(report: dict, ref: dict, systems, where: str) -> list[str]:
    bad = []
    for name in systems:
        for key, want in ref["overall"][name].items():
            got = report["overall"][name][key]
            if not abs(got - want) <= TOL:
                bad.append(f"{where}: {name}.{key} = {got!r}, reference {want!r}")
    for cls, row in ref["classwise_f1"].items():
        for name in systems:
            got = report["classwise_f1"][cls][name]
            if not abs(got - row[name]) <= TOL:
                bad.append(f"{where}: classwise F1 {cls}/{name} = {got!r}, reference {row[name]!r}")
    return bad


def _check_logistic(meta: dict, ref_loss, where: str) -> list[str]:
    """Final losses finite; with a reference, none above it (a better fit passes)."""
    bad = []
    for c, (loss, fallback) in enumerate(zip(meta["final_loss"], meta["fallback"])):
        if fallback:
            continue
        if not math.isfinite(loss):
            bad.append(f"{where}: final_loss[{c}] = {loss!r} is not finite")
        elif ref_loss is not None and not loss <= ref_loss[c] + TOL:
            bad.append(f"{where}: final_loss[{c}] = {loss!r} above reference {ref_loss[c]!r}")
    return bad


def _check_fused(path: Path, n_clips: int) -> list[str]:
    """Fused posteriors lie in [0, 1] and every clip is present."""
    import numpy as np

    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            values = np.asarray(json.loads(line)["posteriors"], dtype=np.float64)
            if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
                return [f"{path}: clip {count} has posteriors outside [0, 1]"]
            count += 1
    if count != n_clips:
        return [f"{path}: {count} fused clips, expected {n_clips}"]
    return []


def _check_curve(curve: dict, where: str) -> list[str]:
    alphas = [a for a, _ in curve["curve"]]
    bad = []
    if alphas != [i / 100.0 for i in range(101)]:
        bad.append(f"{where}: alpha grid is not 0.00, 0.01, ..., 1.00")
    if curve["best"] not in alphas:
        bad.append(f"{where}: best alpha {curve['best']!r} is not on the 0.01 grid")
    bad += [f"{where}: score {s!r} at alpha {a} outside [0, 1]"
            for a, s in curve["curve"] if not _unit_interval(s)]
    return bad


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One CLI call of an iteration and the files it must write."""

    label: str
    args: list[str]
    out: Path
    outputs: tuple[str, ...]  # compared byte for byte across iterations and runs


class Workload:
    name = ""
    clips = 0  # clips in the scenario at full scale
    calls_per_iteration = 1

    def __init__(self, seed: int, smoke: bool, work: Path, reference: dict | None = None):
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.n_clips = SMOKE_CLIPS if smoke else self.clips
        self.data = work / "data"
        self.reference = reference  # seed-42 values at full scale, else None

    @property
    def clip_passes(self) -> int:
        return self.n_clips * self.calls_per_iteration

    def scenario_args(self) -> list[str]:
        """The default scenario at full scale; a written config otherwise."""
        spec = self.scenario_spec()
        if spec is None:
            return ["--seed", str(self.seed)]
        path = self.work / "scenario.json"
        path.write_text(json.dumps({"seed": self.seed, **spec}) + "\n", encoding="utf-8")
        return ["--config", str(path)]

    def scenario_spec(self) -> dict | None:
        return {"n_clips": self.n_clips} if self.smoke else None

    def setup_args(self) -> list[str]:
        # For experiment-200 this only warms imports and the page cache: the
        # experiment simulates its own dataset.
        return ["simulate", *self.scenario_args(), "--out", str(self.data)]

    def calls(self, out: Path) -> list[Call]:
        raise NotImplementedError

    def check(self, call: Call) -> list[str]:
        raise NotImplementedError


class Experiment(Workload):
    """The end-to-end number: every layer runs, and only this workload writes grid dumps."""

    name = "experiment-200"
    clips = 200

    def calls(self, out: Path) -> list[Call]:
        args = ["experiment", *self.scenario_args(), "--out", str(out)]
        return [Call("experiment", args, out, ("report.json",))]

    def check(self, call: Call) -> list[str]:
        where = str(call.out / "report.json")
        report = _read_json(call.out / "report.json")
        if tuple(report["systems"]) != EXPERIMENT_SYSTEMS:
            return [f"{where}: systems {report['systems']!r}"]
        bad = _check_scores(report, EXPERIMENT_SYSTEMS, where)
        bad += _check_logistic(
            report["logistic"], self.reference and self.reference["final_loss"], where
        )
        sweep = report["beta_sweep"]
        if sweep["best"] not in [b for b, _ in sweep["curve"]]:
            bad.append(f"{where}: best beta {sweep['best']!r} not in its sweep")
        if self.reference:
            bad += _match_scores(report, self.reference, PINNED_SYSTEMS, where)
        return bad


class ScorePSDS(Workload):
    """Reading and scoring with no fusion: PSDS and grid parsing dominate."""

    name = "score-psds"
    clips = 600

    def scenario_spec(self) -> dict:
        # One model with the generator's default skill: a single 62 MB dump.
        return {"n_clips": self.n_clips, "models": [{"name": "model_1"}]}

    def calls(self, out: Path) -> list[Call]:
        args = ["score", "--ref", str(self.data / "events.tsv"),
                "--grids", str(self.data / "grids_model_1.jsonl"),
                "--metric", "all", "--out", str(out)]
        return [Call("score", args, out, ("report.json",))]

    def check(self, call: Call) -> list[str]:
        where = str(call.out / "report.json")
        report = _read_json(call.out / "report.json")
        bad = _check_scores(report, ("system",), where)
        if self.reference:
            bad += _match_scores(report, self.reference, ("system",), where)
        return bad


class FuseFit(Workload):
    """The fitters with no PSDS: a logistic fit over 3 dumps, an alpha fit over 2."""

    name = "fuse-fit"
    clips = 200
    calls_per_iteration = 2

    def calls(self, out: Path) -> list[Call]:
        grids = [str(self.data / f"grids_model_{m}.jsonl") for m in (1, 2, 3)]
        truth = ["--truth", str(self.data / "events.tsv")]
        logistic = ["fuse", "--mode", "logistic", "--grids", grids[0], "--grids", grids[1],
                    "--grids", grids[2], *truth, "--out", str(out / "logistic")]
        pair = ["fuse", "--mode", "pair", "--alpha", "fit", "--grids", grids[0],
                "--grids", grids[1], *truth, "--out", str(out / "pair")]
        return [
            Call("fuse-logistic", logistic, out / "logistic", ("logistic_model.json", "fused.jsonl")),
            Call("fuse-pair", pair, out / "pair", ("curves.json", "fused.jsonl")),
        ]

    def check(self, call: Call) -> list[str]:
        fused = call.out / "fused.jsonl"
        bad = _check_fused(fused, self.n_clips)
        if call.label == "fuse-logistic":
            path = call.out / "logistic_model.json"
            bad += _check_logistic(
                _read_json(path), self.reference and self.reference["final_loss"],
                str(path),
            )
        else:
            path = call.out / "curves.json"
            where = str(path)
            bad += _check_curve(_read_json(path), where)
            if self.reference and sha256_file(path) != self.reference["curves_sha256"]:
                bad.append(f"{where}: differs from the reference curves.json")
        return bad


WORKLOADS = {w.name: w for w in (Experiment, ScorePSDS, FuseFit)}
