"""Single command-line entry point for the pipeline.

Subcommands share the on-disk formats defined in :mod:`sedfuse.core`:

* ``simulate``   emit a complete synthetic dataset from a scenario config
* ``spl``        select high-confidence separated sources
* ``fuse``       combine model posterior dumps (average/logistic/classwise/pair)
* ``decode``     turn posteriors into an event table
* ``score``      collar F1 and/or PSDS against reference events
* ``experiment`` run the whole grid and emit one consolidated report

Every run writes ``run_manifest.json`` next to its outputs. Exit codes:
0 success, 2 usage or validation problem or a path that cannot be used, 1
internal error. Outputs are written atomically; inputs are never mutated.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .core import (
    ClassVocabulary,
    EventList,
    SedfuseError,
    ValidationError,
    VocabularyError,
    _forking,
    _located,
    atomic_write_text,
    load_json_object,
    parse_events,
    parse_framegrids,
    parse_manifest,
    parse_tags,
    parse_weak_labels,
    write_events,
    write_framegrids,
    write_json,
    write_manifest,
    write_tags,
    write_weak_labels,
)
from .decode import PostProcessConfig, decode_many, read_reduced
from .fusion import (
    DEFAULT_BETA_SWEEP,
    ClassF1Table,
    apply_logistic_fusion,
    classwise_weights,
    combine_pair,
    fit_alpha,
    fit_logistic_fusion,
    fuse_average,
    fuse_classwise,
    sweep_beta,
    _aligned_clip_sets,
)
from .metrics import (
    PSDS1,
    PSDS2,
    CollarConfig,
    PSDSConfig,
    event_f1,
    psds_counted,
    psds_many,
    report_tables,
    _reference_clips,
)
from .spl import select_mixtures, selection_report, write_selection
from .synth import (
    Scenario,
    default_scenario,
    gen_truth,
    load_scenario,
    simulate_model,
    simulate_separation,
    tag_accuracy,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


class _Run:
    """Collects inputs/outputs during a subcommand for the manifest."""

    def __init__(self, subcommand: str, args: argparse.Namespace):
        self.subcommand = subcommand
        self.arguments = {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in vars(args).items()
            if k != "func" and v is not None
        }
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.started = time.perf_counter()

    def reads(self, path) -> str:
        path = os.path.abspath(os.fspath(path))
        self.inputs.append(path)
        return path

    def writes(self, path) -> str:
        path = os.path.abspath(os.fspath(path))
        self.outputs.append(path)
        return path

    def finish(self, out_dir: Path, seed: int | None = None) -> None:
        """Write ``run_manifest.json``: what ran, with what, producing what, and
        the peak RSS (not deterministic, so never in ``report.json``)."""
        # This process's peak and that of the largest child it reaped: the
        # forked children that encode, parse and reduce grid dumps, fit and
        # count, and the one that writes the dataset's dumps, reaped before
        # this is called. In decimal MB; ru_maxrss is in KiB on Linux.
        own, child = (
            resource.getrusage(who).ru_maxrss * 1024 / 1e6
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        manifest = {
            "subcommand": self.subcommand,
            "arguments": self.arguments,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "seed": seed,
            "tool_version": __version__,
            "wall_clock_seconds": time.perf_counter() - self.started,
            "peak_rss_mb": max(own, child),
            "peak_rss_mb_self": own,
            "peak_rss_mb_largest_child": child,
        }
        write_json(out_dir / "run_manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _decode_cfg_from_args(
    args, run: _Run
) -> tuple[PostProcessConfig, Callable[[ClassVocabulary], None]]:
    """The decode config of the flags that ``_add_decode_args`` adds, and a
    check that the class overrides of its file name classes of a vocabulary,
    for a caller that learns the vocabulary after it needs the config."""
    loaded, path = PostProcessConfig(), None
    if args.decode_config:
        path = run.reads(args.decode_config)
        loaded = load_json_object(path, PostProcessConfig.from_dict)
    cfg = loaded
    if args.thresholds is not None:
        cfg = dataclasses.replace(cfg, default_threshold=args.thresholds, class_thresholds={})
    if args.median_windows is not None:
        cfg = dataclasses.replace(
            cfg, default_median_window=args.median_windows, class_median_windows={}
        )

    def known_classes(vocab: ClassVocabulary) -> None:
        with _located(path):
            loaded._known_classes(vocab)

    return cfg, known_classes


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    run = _Run("simulate", args)
    scenario = _load_scenario_args(args, run)
    out = _out_dir(args)
    with _write_dataset(scenario, out, run) as (_, wait):
        wait()
    run.finish(out, seed=scenario.config.seed)
    print(f"wrote synthetic dataset for {scenario.config.n_clips} clips to {out}")
    return EXIT_OK


def _load_scenario_args(args, run: _Run) -> Scenario:
    if args.config:
        run.reads(args.config)
        scenario = load_scenario(args.config)
    else:
        scenario = default_scenario()
    if args.seed is not None:
        cfg = dataclasses.replace(scenario.config, seed=args.seed)
        scenario = dataclasses.replace(scenario, config=cfg)
    return scenario


@contextlib.contextmanager
def _write_dataset(
    scenario: Scenario, out: Path, run: _Run
) -> Iterator[tuple[dict, Callable[[], None]]]:
    """Simulate the dataset and write it to ``out``; give the dataset and a
    ``wait`` that returns once the grid dumps are written.

    One forked child (``_forking``) writes the model dumps in turn, each with
    ``write_framegrids`` on every CPU, while this process writes the small
    files and the caller goes on. If no temp file or child can be had, this
    process writes the dumps at once; if the child fails, ``wait`` writes
    them here, so an error is that of the serial write. On leaving, the child
    is waited for, never killed: after a raise, the dumps are as complete as a
    serial run leaves them, with no temp file, and a failed child's dumps are
    written here unless an interrupt or exit is under way.
    """
    cfg = scenario.config
    vocab = cfg.vocab
    truth, weak = gen_truth(cfg)
    model_grids = [
        simulate_model(truth, skill, cfg, scenario.model_seed(m))
        for m, skill in enumerate(scenario.model_skills)
    ]
    manifest, tags, source_truth = simulate_separation(
        truth, cfg.clip_ids(), vocab, scenario.separation,
        scenario.n_sources, scenario.separation_seed(),
    )
    write_events(truth, run.writes(out / "events.tsv"))
    write_weak_labels(weak, vocab, run.writes(out / "weak.tsv"))
    dumps = [
        (grids, run.writes(out / f"grids_{name}.jsonl"))
        for name, grids in zip(scenario.model_names, model_grids)
    ]

    def write_dumps(_file=None) -> None:
        for grids, path in dumps:
            write_framegrids(grids, vocab, path)

    dataset = {
        "truth": truth,
        "weak": weak,
        "model_grids": model_grids,
        "manifest": manifest,
        "tags": tags,
        "source_truth": source_truth,
    }
    with _forking() as fork:
        try:
            writer = fork(write_dumps)
        except OSError:  # EMFILE, ENOSPC, EAGAIN, ENOMEM: no more files or processes
            writer = None
            write_dumps()

        def wait(rewrite: bool = True) -> None:
            nonlocal writer
            if writer is not None:
                failed = writer() is None  # an interrupt here leaves it to wait for again
                writer = None
                if failed and rewrite:
                    write_dumps()

        try:
            write_tags(tags, vocab, run.writes(out / "tags.jsonl"))
            write_manifest(manifest, run.writes(out / "sep_manifest.jsonl"))
            write_events(source_truth, run.writes(out / "source_events.tsv"))
            yield dataset, wait
        except BaseException as exc:  # wait for the child; an interrupt rewrites nothing
            wait(rewrite=isinstance(exc, Exception))
            raise
        wait()


# ---------------------------------------------------------------------------
# spl
# ---------------------------------------------------------------------------


def cmd_spl(args) -> int:
    run = _Run("spl", args)
    manifest = parse_manifest(run.reads(args.manifest))
    results = []
    if len(manifest) > 0:  # an empty manifest reads no tags, whose file may be empty
        tags, vocab = parse_tags(run.reads(args.tags))
        weak = parse_weak_labels(run.reads(args.weak), vocab)
        labels = {clip: set(names) for clip, names in weak.labels.items()}
        if args.strong:
            for ev in parse_events(run.reads(args.strong), vocab):
                labels.setdefault(ev.clip_id, set()).add(ev.event_label)
        results = select_mixtures(manifest, tags, labels, args.tau, vocab,
                                  f"{args.tags} against {args.manifest}")
    out = _out_dir(args)
    write_selection(results, run.writes(out / "selection.jsonl"))
    summary = selection_report(results)
    print(json.dumps(summary.to_dict(), indent=2))
    run.finish(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def cmd_fuse(args) -> int:
    run = _Run("fuse", args)
    first, vocab = parse_framegrids(run.reads(args.grids[0]))
    model_grids = [first] + [parse_framegrids(run.reads(p), vocab)[0] for p in args.grids[1:]]
    out = _out_dir(args)
    decode_cfg, known_classes = _decode_cfg_from_args(args, run)
    known_classes(vocab)

    if args.mode == "pair":
        if len(model_grids) != 2:
            raise ValidationError("pair mode needs exactly 2 grid inputs")
        if args.alpha is None:
            raise ValidationError("pair mode needs --alpha (a weight or 'fit')")
        pairs = list(zip(model_grids[0], model_grids[1]))
        if args.alpha == "fit":
            if not args.truth:
                raise ValidationError("--alpha fit needs --truth to score against")
            truth = parse_events(run.reads(args.truth), vocab)
            fit = fit_alpha(pairs, truth, decode_cfg, vocab)
            fit.save(run.writes(out / "curves.json"))
            alpha = fit.best
        else:
            try:
                alpha = float(args.alpha)
            except ValueError:
                raise ValidationError(f"cannot parse --alpha {args.alpha!r}") from None
        fused = [combine_pair(a, b, alpha) for a, b in pairs]
    elif args.mode == "average":
        fused = [fuse_average(group) for group in _aligned_clip_sets(model_grids)]
    elif args.mode == "logistic":
        if not args.truth:
            raise ValidationError("logistic mode needs --truth to fit against")
        truth = parse_events(run.reads(args.truth), vocab)
        model = fit_logistic_fusion(model_grids, truth, vocab)
        fused = [
            apply_logistic_fusion(model, group)
            for group in _aligned_clip_sets(model_grids)
        ]
        write_json(run.writes(out / "logistic_model.json"), model.metadata())
    elif args.mode == "classwise":
        if not args.f1_table:
            raise ValidationError("classwise mode needs --f1-table")
        table_path = run.reads(args.f1_table)
        table = ClassF1Table.load(table_path)
        if len(table.models) != len(model_grids):
            raise ValidationError(f"{table_path}: F1 table has {len(table.models)} models, "
                                  f"got {len(model_grids)} grid inputs")
        if table.classes != vocab.classes:
            raise VocabularyError(f"{table_path}: classes {list(table.classes)} differ from "
                                  f"the grids' {list(vocab.classes)}")
        betas = _parse_betas(args.beta)
        if len(betas) == 1:
            beta = betas[0]
        else:
            if not args.truth:
                raise ValidationError("beta sweeps need --truth to score against")
            truth = parse_events(run.reads(args.truth), vocab)
            sweep = sweep_beta(model_grids, table, truth, betas, decode_cfg, vocab)
            sweep.save(run.writes(out / "curves.json"))
            beta = sweep.best
        weights = classwise_weights(table, beta)
        fused = [
            fuse_classwise(group, weights) for group in _aligned_clip_sets(model_grids)
        ]
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown mode {args.mode!r}")

    write_framegrids(fused, vocab, run.writes(out / "fused.jsonl"))
    run.finish(out)
    print(f"fused {len(fused)} clips with mode={args.mode} -> {out / 'fused.jsonl'}")
    return EXIT_OK


def _parse_betas(raw: str | None) -> list[float]:
    if raw is None:
        raise ValidationError("classwise mode needs --beta (a value or comma list)")
    try:
        return [float(tok) for tok in str(raw).split(",") if tok != ""]
    except ValueError:
        raise ValidationError(f"cannot parse --beta {raw!r}") from None


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    run = _Run("decode", args)
    cfg, known_classes = _decode_cfg_from_args(args, run)
    dump, vocab = read_reduced(run.reads(args.grids), cfg, events=True, ops=None)
    known_classes(vocab)
    out = _out_dir(args)
    events = dump.events(vocab)
    write_events(events, run.writes(out / "events.tsv"))
    run.finish(out)
    print(f"decoded {len(events)} events from {len(dump.clip_ids)} clips")
    return EXIT_OK


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def cmd_score(args) -> int:
    run = _Run("score", args)
    want = {"f1", "psds1", "psds2"} if args.metric == "all" else {args.metric}
    keys = [key for key in ("psds1", "psds2") if key in want]
    if keys and not args.grids:
        raise ValidationError(f"--metric {args.metric} needs --grids")
    if "f1" in want and not (args.est or args.grids):
        raise ValidationError("--metric f1 needs --est or --grids")
    if args.psds_config and len(keys) > 1:
        raise ValidationError(
            "--psds-config overrides a single variant; use --metric psds1 or psds2"
        )
    # Read before the dump, whose parse smooths it at the operating points.
    defaults = {"psds1": PSDS1, "psds2": PSDS2}
    cfgs = [_psds_cfg_from_args(args, defaults[key], run) for key in keys]
    decode_cfg, known_classes = _decode_cfg_from_args(args, run)

    decoded = "f1" in want and not args.est
    if args.grids:  # one parse serves the vocabulary, the F1 runs and the PSDS levels
        dump, vocab = read_reduced(run.reads(args.grids), decode_cfg, events=decoded,
                                   ops=cfgs[0].operating_points if cfgs else None)
        ref = parse_events(run.reads(args.ref), vocab)
    else:  # F1 of two event files, whose labels make the vocabulary
        ref, est = parse_events(run.reads(args.ref)), parse_events(run.reads(args.est))
    if not ref.events:
        raise ValidationError(f"{args.ref}: reference event list is empty")
    if not args.grids:
        vocab = ClassVocabulary(tuple(sorted(ref.label_set() | est.label_set())))
    known_classes(vocab)
    out = _out_dir(args)

    name = args.system_name
    f1_reports = {}
    if "f1" in want:
        if args.grids and args.est:
            est = parse_events(run.reads(args.est), vocab)
        elif decoded:
            est = dump.events(vocab)
        f1_reports[name] = event_f1(ref, est, CollarConfig(), vocab)
    psds_reports = {"psds1": {}, "psds2": {}}
    if keys:
        with _located(args.ref):  # psds_counted checks this too, but cannot name the file
            _reference_clips(dump, ref)
        for key, report in zip(keys, psds_counted(dump, ref, cfgs, vocab)):
            psds_reports[key][name] = report

    tables = report_tables(f1_reports, psds_reports["psds1"], psds_reports["psds2"])
    payload = tables.to_dict()
    payload["psds_detail"] = {
        key: {k: v.to_dict() for k, v in reports.items()} for key, reports in psds_reports.items()
    }
    write_json(run.writes(out / "report.json"), payload)
    atomic_write_text(run.writes(out / "report.txt"), tables.to_text())
    print(tables.to_text(), end="")
    run.finish(out)
    return EXIT_OK


def _psds_cfg_from_args(args, default: PSDSConfig, run: _Run) -> PSDSConfig:
    if args.psds_config:
        return load_json_object(run.reads(args.psds_config), PSDSConfig.from_dict)
    return default


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def cmd_experiment(args) -> int:
    run = _Run("experiment", args)
    scenario = _load_scenario_args(args, run)
    out = _out_dir(args)
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    stage = "simulate"
    try:
        with _write_dataset(scenario, data_dir, run) as (dataset, wait_for_dumps):
            cfg = scenario.config
            vocab = cfg.vocab
            truth: EventList = dataset["truth"]
            weak = dataset["weak"]
            model_grids = dataset["model_grids"]

            stage = "spl"
            results = select_mixtures(
                dataset["manifest"], dataset["tags"], weak.labels, scenario.tau, vocab
            )
            write_selection(results, run.writes(out / "selection.jsonl"))
            summary = selection_report(results)
            selected_ids = {sid for r in results for sid, _ in r.selected}
            acc_all = tag_accuracy(dataset["tags"], dataset["source_truth"], vocab)
            acc_sel = tag_accuracy(
                dataset["tags"], dataset["source_truth"], vocab, subset=selected_ids
            )

            stage = "fuse"
            decode_cfg, known_classes = _decode_cfg_from_args(args, run)
            known_classes(vocab)
            collar = CollarConfig()
            # Each system is decoded once, for its F1 and its events file.
            events, f1_reports = {}, {}
            for name, grids in zip(scenario.model_names, model_grids):
                events[name] = decode_many(grids, decode_cfg, vocab)
                f1_reports[name] = event_f1(truth, events[name], collar, vocab)
            f1_table = ClassF1Table.from_reports(f1_reports, vocab)
            f1_table.save(run.writes(out / "f1_table.json"))

            logistic_model = fit_logistic_fusion(
                model_grids, truth, vocab, scenario.model_names
            )
            sweep = sweep_beta(
                model_grids, f1_table, truth, DEFAULT_BETA_SWEEP, decode_cfg, vocab, collar
            )
            sweep.save(run.writes(out / "curves.json"))
            weights = classwise_weights(f1_table, sweep.best)

            stage = "decode+score"
            # A fused system is built when it is scored and dropped after, so at
            # most one fused dump is held next to the model dumps.
            clip_groups = _aligned_clip_sets(model_grids)
            systems = {name: (lambda g=g: g) for name, g in zip(scenario.model_names, model_grids)}
            systems.update(
                average=lambda: [fuse_average(g) for g in clip_groups],
                logistic=lambda: [apply_logistic_fusion(logistic_model, g) for g in clip_groups],
                classwise=lambda: [fuse_classwise(g, weights) for g in clip_groups],
            )
            psds1_reports = {}
            psds2_reports = {}
            for name, build in systems.items():
                grids = build()
                if name not in events:
                    events[name] = decode_many(grids, decode_cfg, vocab)
                    f1_reports[name] = event_f1(truth, events[name], collar, vocab)
                write_events(events[name], run.writes(out / f"events_{name}.tsv"))
                p1, p2 = psds_many(grids, truth, decode_cfg, [PSDS1, PSDS2], vocab)
                psds1_reports[name] = p1
                psds2_reports[name] = p2
                del grids  # before the next system is built

            # The dumps are the simulate stage's output, written beside the stages above.
            stage = "simulate"
            wait_for_dumps()
        stage = "report"
        tables = report_tables(f1_reports, psds1_reports, psds2_reports)
        report = tables.to_dict()
        report["selection"] = {
            **summary.to_dict(),
            "tag_accuracy_all": {**dataclasses.asdict(acc_all), "rate": acc_all.rate},
            "tag_accuracy_selected": {**dataclasses.asdict(acc_sel), "rate": acc_sel.rate},
        }
        report["beta_sweep"] = {
            "best": sweep.best,
            "objective": sweep.objective,
            "curve": [[b, s] for b, s in sweep.curve],
        }
        report["logistic"] = logistic_model.metadata()
        report["scenario"] = scenario.to_dict()
        report["tool_version"] = __version__
        write_json(run.writes(out / "report.json"), report)
        text = tables.to_text() + (
            f"\nSPL: selected {summary.selected_total}/{summary.total_sources} sources "
            f"(rate {summary.selection_rate:.3f}); "
            f"tag accuracy all={acc_all.rate:.3f} selected={acc_sel.rate:.3f}\n"
            f"beta sweep best={sweep.best}\n"
        )
        atomic_write_text(run.writes(out / "report.txt"), text)
        print(text, end="")
    except SedfuseError as exc:
        raise SedfuseError(f"experiment stage {stage!r} failed: {exc}") from exc
    run.finish(out, seed=scenario.config.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_decode_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--decode-config", dest="decode_config")
    p.add_argument("--thresholds", type=float, help="global decision threshold override")
    p.add_argument("--median-windows", dest="median_windows", type=int,
                   help="global median window override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedfuse",
        description="Selective pseudo-labeling, score fusion, decoding and scoring "
        "for sound event detection pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"sedfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--config", help="scenario.json (defaults used when omitted)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spl", help="selective pseudo-labeling of separated sources")
    p.add_argument("--tags", required=True, help="tags.jsonl")
    p.add_argument("--weak", required=True, help="weak.tsv")
    p.add_argument("--manifest", required=True, help="sep_manifest.jsonl")
    p.add_argument("--strong", help="optional strong labels to widen the ground truth")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spl)

    p = sub.add_parser("fuse", help="combine model posterior dumps")
    p.add_argument("--mode", required=True, choices=["average", "logistic", "classwise", "pair"])
    p.add_argument("--grids", action="append", required=True, help="grids.jsonl (repeatable)")
    p.add_argument("--alpha", help="pair weight in [0, 1], or 'fit' to grid-search on --truth")
    p.add_argument("--beta", help="classwise scale: one value or a comma list to sweep")
    p.add_argument("--f1-table", dest="f1_table", help="f1_table.json for classwise mode")
    p.add_argument("--truth", help="events.tsv for logistic fitting / beta sweeps")
    _add_decode_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("decode", help="posteriors -> events.tsv")
    p.add_argument("--grids", required=True)
    _add_decode_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="collar F1 / PSDS against reference events")
    p.add_argument("--ref", required=True, help="reference events.tsv")
    p.add_argument("--est", help="decoded events.tsv (for F1)")
    p.add_argument("--grids", help="posterior grids (for PSDS, or to decode for F1)")
    p.add_argument("--metric", default="all", choices=["f1", "psds1", "psds2", "all"])
    p.add_argument("--psds-config", dest="psds_config", help="psds_cfg.json override")
    _add_decode_args(p)
    p.add_argument("--system-name", dest="system_name", default="system")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("experiment", help="full synthetic pipeline + report grid")
    p.add_argument("--config", help="scenario.json (defaults used when omitted)")
    p.add_argument("--seed", type=int)
    _add_decode_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SedfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # a path that cannot be used
            print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
        traceback.print_exc()
        return EXIT_INTERNAL


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
