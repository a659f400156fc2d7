"""Command-line pipeline: contracts, exit codes, determinism."""

import contextlib
import copy
import errno
import functools
import gc
import io
import json
import os
import pathlib
import sys
import tempfile
import threading
import tracemalloc
import types
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedfuse import cli, core, decode, fusion, metrics, synth
from sedfuse.cli import main
from sedfuse.core import parse_events, parse_framegrids
from sedfuse.core import ClassVocabulary, ValidationError

TINY = {
    "seed": 7,
    "n_clips": 6,
    "n_classes": 4,
    "frames_per_clip": 128,
    "events_per_clip": [1, 3],
    "n_sources": 4,
}


def write_tiny_scenario(tmp_path, **overrides):
    data = dict(TINY)
    data.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset(tmp_path):
    cfg = write_tiny_scenario(tmp_path)
    out = tmp_path / "data"
    assert run("simulate", "--config", cfg, "--out", out) == 0
    return out


class TestSimulate:
    def test_emits_dataset_files(self, dataset):
        for name in (
            "events.tsv", "weak.tsv", "tags.jsonl", "sep_manifest.jsonl",
            "grids_model_1.jsonl", "grids_model_2.jsonl", "grids_model_3.jsonl",
            "source_events.tsv", "run_manifest.json",
        ):
            assert (dataset / name).exists(), name

    def test_same_seed_identical_files(self, tmp_path):
        cfg = write_tiny_scenario(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", out1) == 0
        assert run("simulate", "--config", cfg, "--out", out2) == 0
        for name in ("events.tsv", "weak.tsv", "grids_model_1.jsonl", "tags.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = run("simulate", "--config", tmp_path / "nope.json", "--out", tmp_path / "o")
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err


class TestSPL:
    def test_selection_written(self, dataset, tmp_path, capsys):
        out = tmp_path / "spl"
        rc = run(
            "spl", "--tags", dataset / "tags.jsonl", "--weak", dataset / "weak.tsv",
            "--manifest", dataset / "sep_manifest.jsonl", "--out", out,
        )
        assert rc == 0
        lines = (out / "selection.jsonl").read_text().splitlines()
        assert len(lines) == TINY["n_clips"]
        summary = json.loads(capsys.readouterr().out)
        assert summary["total_sources"] == TINY["n_clips"] * TINY["n_sources"]

    def test_higher_tau_selects_no_more(self, dataset, tmp_path):
        counts = {}
        for tau in ("0.5", "0.9"):
            out = tmp_path / f"spl{tau}"
            run(
                "spl", "--tags", dataset / "tags.jsonl", "--weak", dataset / "weak.tsv",
                "--manifest", dataset / "sep_manifest.jsonl", "--tau", tau, "--out", out,
            )
            records = [
                json.loads(line)
                for line in (out / "selection.jsonl").read_text().splitlines()
            ]
            counts[tau] = sum(len(r["selected"]) for r in records)
        assert counts["0.9"] <= counts["0.5"]

    def test_empty_manifest_ok(self, dataset, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "spl_empty"
        rc = run(
            "spl", "--tags", dataset / "tags.jsonl", "--weak", dataset / "weak.tsv",
            "--manifest", empty, "--out", out,
        )
        assert rc == 0
        assert (out / "selection.jsonl").read_text() == ""

    def test_clip_id_mismatch_exits_2(self, dataset, tmp_path):
        bad = tmp_path / "bad_manifest.jsonl"
        bad.write_text('{"mixture_id":"ghost","sources":["ghost_src00"]}\n')
        rc = run(
            "spl", "--tags", dataset / "tags.jsonl", "--weak", dataset / "weak.tsv",
            "--manifest", bad, "--out", tmp_path / "o",
        )
        assert rc == 2

    @pytest.mark.parametrize("fault", ["missing-source", "wrong-parent"])
    def test_tags_against_manifest_exits_2_naming_both(self, dataset, tmp_path, capsys, fault):
        records = [json.loads(line) for line in (dataset / "tags.jsonl").read_text().splitlines()]
        if fault == "missing-source":
            del records[0]
        else:
            records[0]["parent_clip_id"] = records[-1]["parent_clip_id"]
        tags = tmp_path / "tags.jsonl"
        tags.write_text("".join(json.dumps(r) + "\n" for r in records))
        manifest = dataset / "sep_manifest.jsonl"
        rc = run("spl", "--tags", tags, "--weak", dataset / "weak.tsv",
                 "--manifest", manifest, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 2 and f"error: {tags} against {manifest}: " in err, err

    def test_bad_tau_names_no_file(self, dataset, tmp_path, capsys):
        rc = run("spl", "--tags", dataset / "tags.jsonl", "--weak", dataset / "weak.tsv",
                 "--manifest", dataset / "sep_manifest.jsonl", "--tau", "1.5",
                 "--out", tmp_path / "o")
        assert rc == 2
        assert capsys.readouterr().err == "error: tau 1.5 outside (0, 1)\n"

    @pytest.mark.parametrize("case", ["empty-manifest", "mixture-without-weak-row"])
    def test_bad_tau_is_checked_when_no_source_is_judged(self, dataset, tmp_path, capsys, case):
        manifest, weak = tmp_path / "manifest.jsonl", tmp_path / "weak.tsv"
        first = (dataset / "sep_manifest.jsonl").read_text().splitlines()[0]
        manifest.write_text("" if case == "empty-manifest" else first + "\n")
        mixture = json.loads(first)["mixture_id"]
        rows = (dataset / "weak.tsv").read_text().splitlines(keepends=True)
        weak.write_text("".join(row for row in rows if not row.startswith(mixture + "\t")))
        out = tmp_path / "o"
        rc = run("spl", "--tags", dataset / "tags.jsonl", "--weak", weak,
                 "--manifest", manifest, "--tau", "7", "--out", out)
        assert rc == 2
        assert capsys.readouterr().err == "error: tau 7.0 outside (0, 1)\n"
        assert not out.exists()

    def test_strong_labels_widen_the_known_classes(self, tmp_path):
        # The source's class "a" is known from the strong labels only.
        files = {
            "tags.jsonl": '{"source_id":"m_s0","parent_clip_id":"m",'
                          '"probs":{"a":0.9,"b":0.1,"other":0.05}}\n',
            "manifest.jsonl": '{"mixture_id":"m","sources":["m_s0"]}\n',
            "weak.tsv": "filename\tevent_labels\nm\tb\n",
            "strong.tsv": "filename\tonset\toffset\tevent_label\nm\t0.0\t1.0\ta\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        selections = {}
        for strong in ([], ["--strong", tmp_path / "strong.tsv"]):
            out = tmp_path / f"spl{len(strong)}"
            assert run("spl", "--tags", tmp_path / "tags.jsonl", "--weak", tmp_path / "weak.tsv",
                       "--manifest", tmp_path / "manifest.jsonl", *strong, "--out", out) == 0
            selections[bool(strong)] = json.loads((out / "selection.jsonl").read_text())
        assert selections[True]["selected"] == [{"source_id": "m_s0", "class": "a"}]
        assert selections[True]["rejected"] == []
        assert selections[False]["selected"] == []
        assert selections[False]["rejected"] == [
            {"source_id": "m_s0", "reason": "not-in-weak-labels"}
        ]

    def test_clips_without_events_are_skipped_as_in_experiment(self, tmp_path):
        # weak.tsv writes a clip without events as a missing row; spl skips its
        # mixture, as the experiment does, instead of exiting 2.
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"n_clips": 20, "events_per_clip": [0, 2], "seed": 1}))
        data, spl, exp = tmp_path / "data", tmp_path / "spl", tmp_path / "exp"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        weak_rows = (data / "weak.tsv").read_text().splitlines()[1:]
        assert len(weak_rows) < 20
        rc = run(
            "spl", "--tags", data / "tags.jsonl", "--weak", data / "weak.tsv",
            "--manifest", data / "sep_manifest.jsonl", "--out", spl,
        )
        assert rc == 0
        assert len((spl / "selection.jsonl").read_text().splitlines()) == len(weak_rows)
        assert run("experiment", "--config", cfg, "--out", exp) == 0
        assert (spl / "selection.jsonl").read_bytes() == (exp / "selection.jsonl").read_bytes()


class TestVocabularyPeek:
    """decode, score, fuse and spl take the vocabulary from the first record of
    --grids or --tags, in the one pass that reads the file."""

    def test_grids_first_line_not_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "grids.jsonl"
        bad.write_text("not json\n")
        assert run("decode", "--grids", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{bad}:1:" in err and "Traceback" not in err

    def test_grids_record_without_classes_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "grids.jsonl"
        bad.write_text('\n{"clip_id": "c", "hop_seconds": 0.1, "posteriors": [[0.5]]}\n')
        assert run("decode", "--grids", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "'classes'" in err

    def test_tags_first_line_not_json_exits_2(self, dataset, tmp_path, capsys):
        bad = tmp_path / "tags.jsonl"
        bad.write_text("{oops\n")
        rc = run(
            "spl", "--tags", bad, "--weak", dataset / "weak.tsv",
            "--manifest", dataset / "sep_manifest.jsonl", "--out", tmp_path / "o",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:1:" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, names, message", [
        ("--grids", ["a", "a"], "class names must be unique"),
        ("--grids", ["other"], "reserved label 'other' must not be a target class"),
        ("--grids", [], "vocabulary needs at least one class"),
        ("--grids", ["a,b"], "class name 'a,b' contains forbidden character ','"),
        ("--tags", {"other": 0.5}, "vocabulary needs at least one class"),
    ], ids=["repeated", "other", "empty", "comma", "tags-only-other"])
    def test_bad_class_list_exits_2_naming_its_line(
        self, dataset, tmp_path, capsys, flag, names, message
    ):
        bad = tmp_path / "input.jsonl"
        if flag == "--grids":
            record = {"clip_id": "c0", "hop_seconds": 0.1, "classes": names,
                      "posteriors": [[0.5]]}
        else:
            record = {"source_id": "s0", "parent_clip_id": "m0", "probs": names}
        bad.write_text("\n" + json.dumps(record) + "\n")
        assert run(*_reading(flag, bad, dataset), "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: {message}" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("flag", ["--grids", "--tags"])
    def test_empty_input_exits_2_naming_it(self, dataset, tmp_path, capsys, flag):
        empty = tmp_path / "input.jsonl"
        empty.write_text("")
        assert run(*_reading(flag, empty, dataset), "--out", tmp_path / "o") == 2
        assert f"error: {empty}: no records" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--grids", "--tags"])
    def test_fifo_gives_the_outputs_of_the_regular_file(self, dataset, tmp_path, flag):
        # The input is read once, so a FIFO (or <(zcat dump.jsonl.gz)) works.
        regular = dataset / ("grids_model_1.jsonl" if flag == "--grids" else "tags.jsonl")
        assert run(*_reading(flag, regular, dataset), "--out", tmp_path / "file") == 0
        fifo = tmp_path / "input.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(regular.read_bytes(),),
                                  daemon=True)
        writer.start()
        # Were the FIFO opened a second time, that open would wait for a writer:
        # this one gives it end of file instead, so the test fails rather than hangs.
        timer = threading.Timer(10, _open_and_close_for_writing, [fifo])
        timer.start()
        try:
            rc = run(*_reading(flag, fifo, dataset), "--out", tmp_path / "fifo")
        finally:
            timer.cancel()
            timer.join()
            writer.join(timeout=10)
        assert rc == 0 and not writer.is_alive()

        def outputs(out):
            return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}

        assert outputs(tmp_path / "fifo") == outputs(tmp_path / "file")


def _reading(flag, path, dataset):
    """The arguments of a call that takes its vocabulary from ``path``, given as
    ``flag``: decode for --grids, spl with the dataset's manifest for --tags."""
    if flag == "--grids":
        return ["decode", "--grids", path]
    return ["spl", "--tags", path, "--weak", dataset / "weak.tsv",
            "--manifest", dataset / "sep_manifest.jsonl"]


def _open_and_close_for_writing(fifo):
    try:
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    except OSError:  # ENXIO: no process has it open for reading
        pass


GOOD_GRID = (
    '{"clip_id": "c0", "hop_seconds": 0.1, "classes": ["a", "b"], "posteriors": [[0.5, 0.5]]}'
)


class TestMalformedGrids:
    """Each malformed grid record exits 2 naming path:line, never a traceback."""

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param(
                '"hop_seconds": 0.1, "classes": ["a", "b"], "posteriors": [[0.5, 0.5], [0.5]]',
                id="ragged-posteriors",
            ),
            pytest.param(
                '"hop_seconds": 0.1, "classes": ["a", "b"], "posteriors": [[0.5, "x"]]',
                id="non-numeric-cell",
            ),
            pytest.param(
                '"hop_seconds": 0.1, "classes": ["a", "b"], "posteriors": [["0.9", true]]',
                id="numeric-string-and-boolean-cells",
            ),
            pytest.param(
                '"hop_seconds": 0.1, "classes": ["a", "b"], "posteriors": [[0.5, 0.5], 7]',
                id="non-list-row",
            ),
            pytest.param(
                '"hop_seconds": 0.1, "classes": ["a", "b"], "posteriors": [[1'
                + "0" * 400 + ", 0]]",
                id="integer-beyond-float",
            ),
            pytest.param(
                '"hop_seconds": "fast", "classes": ["a", "b"], "posteriors": [[0.5, 0.5]]',
                id="non-numeric-hop",
            ),
            pytest.param(
                '"hop_seconds": 0.1, "classes": "ab", "posteriors": [[0.5, 0.5]]',
                id="classes-string",
            ),
            pytest.param(
                '"hop_seconds": Infinity, "classes": ["a", "b"], "posteriors": [[0.5, 0.5]]',
                id="infinite-hop",
            ),
        ],
    )
    def test_bad_field_exits_2(self, tmp_path, capsys, record):
        bad = tmp_path / "grids.jsonl"
        bad.write_text(GOOD_GRID + '\n{"clip_id": "c1", ' + record + "}\n")
        assert run("decode", "--grids", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param('"hop_seconds": 0.1, "classes": ["a", "b"], "posteriors": [[1'
                         + "1" * 4999 + ',0]]', id="integer-too-long"),
            # Before the posteriors, which the grid decoder takes: the rest of
            # the line is read first, and then the whole line.
            pytest.param('"extra": ' + "[" * 100_000 + "]" * 100_000
                         + ', "hop_seconds": 0.1, "classes": ["a", "b"], "posteriors":[[0.5,0.5]]',
                         id="nested-too-deep"),
        ],
    )
    def test_json_beyond_its_limits_exits_2(self, tmp_path, capsys, record):
        # json raises a ValueError that is no JSONDecodeError, or a RecursionError.
        bad = tmp_path / "grids.jsonl"
        bad.write_text('{"clip_id": "c0", ' + record + "}\n")
        ref = tmp_path / "ref.tsv"
        ref.write_text("filename\tonset\toffset\tevent_label\nc0\t0.0\t0.1\ta\n")
        assert run("score", "--ref", ref, "--grids", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{bad}:1: invalid JSON" in err and "Traceback" not in err

    def test_integer_cells_decode(self, tmp_path):
        grids = tmp_path / "grids.jsonl"
        grids.write_text(GOOD_GRID.replace("[[0.5, 0.5]]", "[[0, 1], [1, 1]]") + "\n")
        out = tmp_path / "o"
        assert run("decode", "--grids", grids, "--median-windows", "1", "--out", out) == 0
        assert len(parse_events(out / "events.tsv")) == 2

    def test_classes_string_on_first_line_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "grids.jsonl"
        bad.write_text(GOOD_GRID.replace('["a", "b"]', '"ab"') + "\n")
        assert run("decode", "--grids", bad, "--out", tmp_path / "o") == 2
        assert f"{bad}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["f1", "all"])
    def test_duplicate_clip_id_exits_2(self, tmp_path, capsys, metric):
        bad = tmp_path / "grids.jsonl"
        bad.write_text(GOOD_GRID + "\n" + GOOD_GRID + "\n")
        ref = tmp_path / "ref.tsv"
        ref.write_text("filename\tonset\toffset\tevent_label\nc0\t0.0\t0.1\ta\n")
        assert run("decode", "--grids", bad, "--out", tmp_path / "d") == 2
        assert run(
            "score", "--ref", ref, "--grids", bad, "--metric", metric, "--out", tmp_path / "s"
        ) == 2
        err = capsys.readouterr().err
        assert err.count(f"{bad}:2: duplicate clip id 'c0'") == 2


class TestMalformedConfigs:
    """Each malformed JSON config exits 2 naming its path, never a traceback."""

    @pytest.mark.parametrize(
        "flag, text, shown",
        [
            pytest.param("--decode-config", "{nope", "{path}:1: invalid JSON", id="decode-syntax"),
            pytest.param("--decode-config", "[1, 2]", "{path}:1: top level must be a JSON object",
                         id="decode-list"),
            pytest.param("--f1-table", "{nope", "{path}:1: invalid JSON", id="f1-table-syntax"),
            pytest.param("--f1-table", '{"models": ["m1"]}', "{path}: missing key 'classes'",
                         id="f1-table-missing-key"),
            pytest.param("--psds-config", '{"dtc": 0.7, "bogus": 1}', "{path}: ",
                         id="psds-unknown-key"),
            pytest.param("--config", '{"seed": "x"}', "{path}: ", id="scenario-seed"),
            pytest.param("--decode-config",
                         '{"default_median_window": true, "default_threshold": "0.5"}',
                         "{path}: threshold '0.5' must be a number", id="decode-types"),
            pytest.param("--decode-config", '{"default_median_window": true}',
                         "{path}: median window True must be a positive integer",
                         id="decode-bool-window"),
            pytest.param("--config", '{"n_clips": 2, "allow_overlap": "false"}',
                         "{path}: allow_overlap 'false' must be true or false",
                         id="scenario-string-overlap"),
            pytest.param("--config", '{"n_clips": 2, "classes": "abc"}',
                         "{path}: classes 'abc' must be a list of names",
                         id="scenario-string-classes"),
            pytest.param("--config", '{"n_clips": 2, "seed": 42.9}',
                         "{path}: seed 42.9 must be an integer", id="scenario-float-seed"),
            pytest.param("--config", '{"n_clips": true}',
                         "{path}: n_clips True must be an integer", id="scenario-bool-clips"),
            pytest.param("--config", '{"n_clips": 2, "clip_seconds": true}',
                         "{path}: clip_seconds True must be a number", id="scenario-bool-seconds"),
            pytest.param("--config", '{"n_clips": 2, "models": [{"miss_rate": [true]}], '
                         '"n_classes": 1}',
                         "{path}: miss_rate True must be a number", id="skill-bool-rate"),
            pytest.param("--config",
                         '{"n_clips": 2, "models": [{"default": {"jitter_frames": 2.5}}]}',
                         "{path}: jitter_frames 2.5 must be an integer", id="skill-float-jitter"),
            pytest.param("--config", '{"n_clips": 2, "models": "m"}',
                         "{path}: models 'm' must be a list of objects",
                         id="scenario-models-object"),
            pytest.param("--config", '{"n_clips": 2, "models": [1]}',
                         "{path}: models entry 1 must be an object", id="scenario-models-entry"),
            pytest.param("--config",
                         '{"n_clips": 2, "classes": ["a"], "models": [{"per_class": {"a": 1}}]}',
                         "{path}: per_class 'a' 1 must be an object", id="skill-per-class-value"),
            pytest.param("--config", '{"n_clips": 2, "models": [{"per_class": [1]}]}',
                         "{path}: per_class [1] must be an object", id="skill-per-class-list"),
            pytest.param("--config", '{"n_clips": 2, "models": [{"default": [1]}]}',
                         "{path}: default [1] must be an object", id="skill-default-list"),
            pytest.param("--config", '{"n_clips": 2, "class_duration_seconds": [1]}',
                         "{path}: class_duration_seconds [1] must be an object",
                         id="scenario-class-durations-list"),
            pytest.param("--config", '{"n_clips": 2, "separation": {"clean": true}}',
                         "{path}: probability True must be a number", id="separation-bool"),
            pytest.param("--psds-config", '{"dtc": true}', "{path}: dtc True must be a number",
                         id="psds-bool-dtc"),
            pytest.param("--psds-config", '{"dtc": 1' + "1" * 4999 + "}",
                         "{path}:1: invalid JSON", id="psds-dtc-too-long"),
            pytest.param("--decode-config", '{"default_treshold": 0.9}',
                         "{path}: unknown decode config keys ['default_treshold']",
                         id="decode-unknown-key"),
            pytest.param("--decode-config", '{"thresholds": {"Cat_typo": 0.9}}',
                         "{path}: class overrides for classes not in the vocabulary: "
                         "['Cat_typo']", id="decode-unknown-class-threshold"),
            pytest.param("--decode-config", '{"median_windows": {"a": 3, "c": 3}}',
                         "{path}: class overrides for classes not in the vocabulary: ['c']",
                         id="decode-unknown-class-window"),
            pytest.param("--config", '{"n_clip": 5}', "{path}: unknown scenario keys ['n_clip']",
                         id="scenario-unknown-key"),
            pytest.param("--config", '{"n_clips": 2, "models": [{"nmae": "m"}]}',
                         "{path}: unknown models entry keys ['nmae']", id="skill-unknown-key"),
            pytest.param("--config", '{"n_clips": 2, "models": [{"default": {"miss": 0.1}}]}',
                         "{path}: unknown default keys ['miss']", id="skill-default-unknown-key"),
            pytest.param("--config", '{"n_clips": 2, "classes": ["a"], '
                         '"models": [{"per_class": {"a": {"miss": 0.1}}}]}',
                         "{path}: unknown per_class keys ['miss']",
                         id="skill-per-class-unknown-key"),
        ],
    )
    def test_exits_2_with_path(self, tmp_path, capsys, flag, text, shown):
        config = tmp_path / "config.json"
        config.write_text(text)
        grids = tmp_path / "grids.jsonl"
        grids.write_text(GOOD_GRID + "\n")
        ref = tmp_path / "ref.tsv"
        ref.write_text("filename\tonset\toffset\tevent_label\nc0\t0.0\t0.1\ta\n")
        command = {
            "--decode-config": ["decode", "--grids", grids],
            "--f1-table": ["fuse", "--mode", "classwise", "--beta", "1", "--grids", grids],
            "--psds-config": ["score", "--ref", ref, "--grids", grids, "--metric", "psds1"],
            "--config": ["simulate"],
        }[flag]
        assert run(*command, flag, config, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert shown.format(path=config) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "row, shown",
        [
            pytest.param("zzz\t0.0\t0.1\ta", "reference clips without grids: ['zzz']",
                         id="ref-clip-without-grid"),
            pytest.param("c0\t0.0\t1000.0\ta",
                         "c0: reference event ending at 1000.0 extends past the clip's 0.1s",
                         id="ref-event-past-clip"),
        ],
    )
    @pytest.mark.parametrize("metric", ["psds2", "all"])
    def test_reference_against_grids_exits_2_with_path(self, tmp_path, capsys, row, shown, metric):
        grids = tmp_path / "grids.jsonl"
        grids.write_text(GOOD_GRID + "\n")
        ref = tmp_path / "ref.tsv"
        ref.write_text(f"filename\tonset\toffset\tevent_label\n{row}\n")
        argv = ["score", "--ref", ref, "--grids", grids, "--metric", metric]
        assert run(*argv, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{ref}: {shown}" in err and "Traceback" not in err


class TestNotUTF8:
    """A file that is not UTF-8 exits 2 naming its path and line, never a traceback."""

    def _exits_2_at(self, capsys, path, line, *argv):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:{line}: not UTF-8" in err and "Traceback" not in err

    def test_decode_config(self, dataset, tmp_path, capsys):
        config = tmp_path / "decode.json"
        config.write_bytes(b"\xff\xfe{}")
        self._exits_2_at(
            capsys, config, 1, "decode", "--grids", dataset / "grids_model_1.jsonl",
            "--decode-config", config, "--out", tmp_path / "o",
        )

    def test_grids(self, tmp_path, capsys):
        grids = tmp_path / "grids.jsonl"
        grids.write_bytes(GOOD_GRID.encode() + b"\n\xff\xfe{}\n")
        self._exits_2_at(capsys, grids, 2, "decode", "--grids", grids, "--out", tmp_path / "o")

    def test_events(self, dataset, tmp_path, capsys):
        ref = tmp_path / "events.tsv"
        ref.write_bytes(b"filename\tonset\toffset\tevent_label\n\xff\xfe\t0.0\t0.1\tevent_00\n")
        self._exits_2_at(
            capsys, ref, 2, "score", "--ref", ref, "--grids", dataset / "grids_model_1.jsonl",
            "--metric", "f1", "--out", tmp_path / "o",
        )


class TestFuse:
    def test_classwise_beta_zero_equals_average(self, dataset, tmp_path):
        table = tmp_path / "f1_table.json"
        classes = [f"event_{i:02d}" for i in range(4)]
        table.write_text(json.dumps({
            "models": ["model_1", "model_2", "model_3"],
            "classes": classes,
            "f1": [[0.9, 0.2, 0.5, 0.7], [0.1, 0.8, 0.5, 0.2], [0.4, 0.4, 0.9, 0.1]],
        }))
        grids_args = []
        for m in (1, 2, 3):
            grids_args += ["--grids", str(dataset / f"grids_model_{m}.jsonl")]
        out_avg, out_cw = tmp_path / "avg", tmp_path / "cw"
        assert run("fuse", "--mode", "average", *grids_args, "--out", out_avg) == 0
        assert run(
            "fuse", "--mode", "classwise", *grids_args, "--f1-table", table,
            "--beta", "0", "--out", out_cw,
        ) == 0
        vocab = ClassVocabulary(tuple(classes))
        a, _ = parse_framegrids(out_avg / "fused.jsonl", vocab)
        b, _ = parse_framegrids(out_cw / "fused.jsonl", vocab)
        for ga, gb in zip(a, b):
            np.testing.assert_allclose(ga.values, gb.values, atol=1e-12)

    def test_pair_alpha_one_is_first_input(self, dataset, tmp_path):
        out = tmp_path / "pair"
        assert run(
            "fuse", "--mode", "pair",
            "--grids", dataset / "grids_model_1.jsonl",
            "--grids", dataset / "grids_model_2.jsonl",
            "--alpha", "1.0", "--out", out,
        ) == 0
        vocab = ClassVocabulary(tuple(f"event_{i:02d}" for i in range(4)))
        fused, _ = parse_framegrids(out / "fused.jsonl", vocab)
        first, _ = parse_framegrids(dataset / "grids_model_1.jsonl", vocab)
        for ga, gb in zip(fused, first):
            np.testing.assert_array_equal(ga.values, gb.values)

    def test_pair_alpha_fit_writes_curve(self, dataset, tmp_path):
        out = tmp_path / "pairfit"
        rc = run(
            "fuse", "--mode", "pair",
            "--grids", dataset / "grids_model_1.jsonl",
            "--grids", dataset / "grids_model_2.jsonl",
            "--alpha", "fit", "--truth", dataset / "events.tsv", "--out", out,
        )
        assert rc == 0
        curve = json.loads((out / "curves.json").read_text())
        assert curve["parameter"] == "alpha"
        assert len(curve["curve"]) == 101
        assert 0.0 <= curve["best"] <= 1.0

    def test_pair_bad_alpha_exits_2(self, dataset, tmp_path):
        rc = run(
            "fuse", "--mode", "pair",
            "--grids", dataset / "grids_model_1.jsonl",
            "--grids", dataset / "grids_model_2.jsonl",
            "--alpha", "banana", "--out", tmp_path / "o",
        )
        assert rc == 2

    def test_pair_needs_two_inputs(self, dataset, tmp_path):
        rc = run(
            "fuse", "--mode", "pair", "--grids", dataset / "grids_model_1.jsonl",
            "--alpha", "0.5", "--out", tmp_path / "o",
        )
        assert rc == 2

    def test_classwise_without_table_exits_2(self, dataset, tmp_path):
        rc = run(
            "fuse", "--mode", "classwise", "--grids", dataset / "grids_model_1.jsonl",
            "--beta", "1", "--out", tmp_path / "o",
        )
        assert rc == 2

    @pytest.mark.parametrize("mode, alpha, order", [
        ("pair", "0.5", "shorter"), ("pair", "fit", "shorter"),
        ("pair", "0.5", "reversed"), ("average", None, "shorter"),
    ])
    def test_misaligned_dumps_exit_2_naming_both(self, dataset, tmp_path, capsys,
                                                 mode, alpha, order):
        # "shorter": dumps of 4 and 3 clips; "reversed": the same clips in another order.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        lines_a = (dataset / "grids_model_1.jsonl").read_text().splitlines(keepends=True)
        lines_b = (dataset / "grids_model_2.jsonl").read_text().splitlines(keepends=True)
        a.write_text("".join(lines_a[:4] if order == "shorter" else lines_a))
        b.write_text("".join(lines_b[:3] if order == "shorter" else lines_b[::-1]))
        extra = [] if alpha is None else ["--alpha", alpha]
        if alpha == "fit":
            extra += ["--truth", dataset / "events.tsv"]
        out = tmp_path / "o"
        rc = run("fuse", "--mode", mode, "--grids", a, "--grids", b, *extra, "--out", out)
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error: {a}, {b}: "), err
        assert not (out / "fused.jsonl").exists()

    def test_beta_sweep_writes_curve(self, dataset, tmp_path):
        table = tmp_path / "f1_table.json"
        classes = [f"event_{i:02d}" for i in range(4)]
        table.write_text(json.dumps({
            "models": ["model_1", "model_2"],
            "classes": classes,
            "f1": [[0.9, 0.2, 0.5, 0.7], [0.1, 0.8, 0.5, 0.2]],
        }))
        out = tmp_path / "sweep"
        rc = run(
            "fuse", "--mode", "classwise",
            "--grids", dataset / "grids_model_1.jsonl",
            "--grids", dataset / "grids_model_2.jsonl",
            "--f1-table", table, "--beta", "0,2,8",
            "--truth", dataset / "events.tsv", "--out", out,
        )
        assert rc == 0
        curve = json.loads((out / "curves.json").read_text())
        assert curve["parameter"] == "beta"
        assert len(curve["curve"]) == 3
        assert curve["best"] in [b for b, _ in curve["curve"]]


class TestDecodeScore:
    def test_oracle_grids_roundtrip_to_truth(self, tmp_path):
        cfg = write_tiny_scenario(
            tmp_path,
            models=[{"name": "oracle",
                     "default": {"miss_rate": 0.0, "false_alarm_rate": 0.0,
                                 "jitter_frames": 0, "sharpness": "inf"}}],
        )
        data = tmp_path / "data"
        run("simulate", "--config", cfg, "--out", data)
        out = tmp_path / "decoded"
        rc = run(
            "decode", "--grids", data / "grids_oracle.jsonl",
            "--median-windows", "1", "--out", out,
        )
        assert rc == 0
        truth = parse_events(data / "events.tsv")
        decoded = parse_events(out / "events.tsv")
        key = lambda e: (e.clip_id, round(e.onset, 9), round(e.offset, 9), e.event_label)
        assert sorted(map(key, decoded)) == sorted(map(key, truth))

    def test_thresholds_flag_overrides_every_class_threshold(self, dataset, tmp_path):
        grids = dataset / "grids_model_1.jsonl"

        def events(name, *args):
            assert run("decode", "--grids", grids, *args, "--out", tmp_path / name) == 0
            return (tmp_path / name / "events.tsv").read_bytes()

        default, per_class = tmp_path / "default.json", tmp_path / "per_class.json"
        default.write_text(json.dumps({"default_threshold": 0.9}))
        per_class.write_text(json.dumps({"thresholds": {"event_00": 0.1, "event_01": 0.2}}))
        flag = events("flag", "--thresholds", "0.9")
        assert flag == events("default", "--decode-config", default)
        assert events("per_class", "--decode-config", per_class) != flag
        assert events("both", "--decode-config", per_class, "--thresholds", "0.9") == flag

    def test_score_est_equals_ref_gives_100(self, dataset, tmp_path, capsys):
        out = tmp_path / "score"
        rc = run(
            "score", "--ref", dataset / "events.tsv", "--est", dataset / "events.tsv",
            "--metric", "f1", "--out", out,
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overall"]["system"]["collar_f1"] == 1.0
        assert "100.0" in (out / "report.txt").read_text()

    def test_score_oracle_psds_is_one(self, tmp_path):
        cfg = write_tiny_scenario(
            tmp_path,
            models=[{"name": "oracle",
                     "default": {"miss_rate": 0.0, "false_alarm_rate": 0.0,
                                 "jitter_frames": 0, "sharpness": "inf"}}],
        )
        data = tmp_path / "data"
        run("simulate", "--config", cfg, "--out", data)
        out = tmp_path / "score"
        rc = run(
            "score", "--ref", data / "events.tsv", "--grids", data / "grids_oracle.jsonl",
            "--metric", "all", "--median-windows", "1", "--out", out,
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overall"]["system"]["psds1"] == pytest.approx(1.0, abs=1e-9)
        assert report["overall"]["system"]["psds2"] == pytest.approx(1.0, abs=1e-9)

    def test_score_all_parses_grids_once(self, dataset, tmp_path, monkeypatch):
        import sedfuse.cli

        calls, read_reduced = [], sedfuse.cli.read_reduced

        def counting_parse(*args, **kwargs):
            calls.append(args[0])
            return read_reduced(*args, **kwargs)

        monkeypatch.setattr(sedfuse.cli, "read_reduced", counting_parse)
        monkeypatch.setattr(sedfuse.cli, "parse_framegrids", None)  # the reduce's parse only
        rc = run(
            "score", "--ref", dataset / "events.tsv", "--grids", dataset / "grids_model_1.jsonl",
            "--metric", "all", "--out", tmp_path / "o",
        )
        assert rc == 0
        assert len(calls) == 1
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert len(manifest["inputs"]) == len(set(manifest["inputs"]))

    def test_score_f1_lists_the_grids_it_reads(self, dataset, tmp_path):
        est = tmp_path / "decoded"
        grids = dataset / "grids_model_1.jsonl"
        assert run("decode", "--grids", grids, "--out", est) == 0
        rc = run(
            "score", "--ref", dataset / "events.tsv", "--est", est / "events.tsv",
            "--grids", grids, "--metric", "f1", "--out", tmp_path / "o",
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        want = [dataset / "events.tsv", est / "events.tsv", grids]
        assert sorted(manifest["inputs"]) == sorted(map(str, want))

    def test_score_f1_parses_each_events_file_once(self, dataset, tmp_path, monkeypatch):
        import sedfuse.cli

        est = tmp_path / "decoded"
        assert run("decode", "--grids", dataset / "grids_model_1.jsonl", "--out", est) == 0
        calls = []

        def counting_parse(*args, **kwargs):
            calls.append(args[0])
            return parse_events(*args, **kwargs)

        monkeypatch.setattr(sedfuse.cli, "parse_events", counting_parse)
        rc = run(
            "score", "--ref", dataset / "events.tsv", "--est", est / "events.tsv",
            "--metric", "f1", "--out", tmp_path / "o",
        )
        assert rc == 0
        want = [dataset / "events.tsv", est / "events.tsv"]
        assert sorted(map(str, calls)) == sorted(map(str, want))

    def test_report_json_reparses_equal(self, dataset, tmp_path):
        out = tmp_path / "score"
        run(
            "score", "--ref", dataset / "events.tsv", "--est", dataset / "events.tsv",
            "--metric", "f1", "--out", out,
        )
        raw = (out / "report.json").read_text()
        assert json.loads(raw) == json.loads(json.dumps(json.loads(raw)))

    def test_psds_without_grids_exits_2(self, dataset, tmp_path):
        rc = run(
            "score", "--ref", dataset / "events.tsv", "--est", dataset / "events.tsv",
            "--metric", "psds1", "--out", tmp_path / "o",
        )
        assert rc == 2

    def test_psds_time_line_swallowing_events_exits_2(self, tmp_path, capsys):
        # A huge hop makes the clip bands of the dataset's time line so wide that
        # the next clip's reference events lose their length there.
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"seed": 1, "n_clips": 4, "models": [{"name": "m"}]}))
        data = tmp_path / "data"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        grids = data / "grids_m.jsonl"
        lines = grids.read_text().splitlines()
        first = json.loads(lines[0])
        first["hop_seconds"] = 1e300
        grids.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run(
                "score", "--ref", data / "events.tsv", "--grids", grids, "--metric", "all",
                "--out", tmp_path / "o",
            )
        assert rc == 2
        err = capsys.readouterr().err
        assert "clip_0001: an event has no length" in err and "Traceback" not in err

    def test_empty_reference_exits_2(self, dataset, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("filename\tonset\toffset\tevent_label\n")
        rc = run(
            "score", "--ref", empty, "--est", dataset / "events.tsv",
            "--metric", "f1", "--out", tmp_path / "o",
        )
        assert rc == 2

    def test_two_empty_event_lists_exit_2_naming_the_reference(self, tmp_path, capsys):
        # With no label in either file there is no vocabulary to build: the empty
        # reference is what is named.
        ref, est = tmp_path / "ref.tsv", tmp_path / "est.tsv"
        for path in (ref, est):
            path.write_text("filename\tonset\toffset\tevent_label\n")
        rc = run("score", "--ref", ref, "--est", est, "--metric", "f1", "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 2 and f"error: {ref}: reference event list is empty" in err, err

    @pytest.mark.parametrize("flag", ["--ref", "--est"])
    def test_reserved_label_exits_2_naming_its_line(self, dataset, tmp_path, capsys, flag):
        bad = tmp_path / "other.tsv"
        bad.write_text("filename\tonset\toffset\tevent_label\nclip_0000\t0.0\t1.0\tother\n")
        files = {"--ref": dataset / "events.tsv", "--est": dataset / "events.tsv", flag: bad}
        rc = run("score", *[arg for item in files.items() for arg in item],
                 "--metric", "f1", "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert rc == 2 and f"error: {bad}:2: reserved label 'other' is no class" in err, err


class TestExperiment:
    def test_structural_contract_and_determinism(self, tmp_path):
        cfg = write_tiny_scenario(tmp_path, n_clips=8)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert run("experiment", "--config", cfg, "--seed", "7", "--out", out1) == 0
        assert run("experiment", "--config", cfg, "--seed", "7", "--out", out2) == 0
        report = json.loads((out1 / "report.json").read_text())
        assert report["systems"] == [
            "model_1", "model_2", "model_3", "average", "logistic", "classwise",
        ]
        for system in report["systems"]:
            row = report["overall"][system]
            for metric in ("collar_f1", "psds1", "psds2"):
                assert 0.0 <= row[metric] <= 1.0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_decodes_each_system_once(self, tmp_path, monkeypatch):
        # One reduce gives a system's runs and its PSDS levels: decode_many and
        # psds_many would each reduce it again.
        calls, reduced = [], decode._reduced

        def recording(grids, vocab, cfg, events, ops):
            calls.append((events, ops))
            return reduced(grids, vocab, cfg, events=events, ops=ops)

        monkeypatch.setattr(decode, "_reduced", recording)
        monkeypatch.setattr(cli, "_reduced", recording)
        for module, name in ((decode, "decode_many"), (metrics, "psds_many")):
            monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        cfg = write_tiny_scenario(tmp_path, n_clips=8)
        assert run("experiment", "--config", cfg, "--out", tmp_path / "e") == 0
        # three models and three fused systems
        assert calls == [(True, metrics.PSDS1.operating_points)] * 6

    def test_holds_at_most_one_fused_system_while_scoring(self, tmp_path, monkeypatch):
        live, sizes = weakref.WeakSet(), []
        for name in ("fuse_average", "apply_logistic_fusion", "fuse_classwise"):
            def tracked(*args, fuse=getattr(cli, name)):
                grid = fuse(*args)
                live.add(grid)
                return grid
            monkeypatch.setattr(cli, name, tracked)
        psds_counted = cli.psds_counted

        def recording(*args):
            gc.collect()
            sizes.append(len(live))
            return psds_counted(*args)
        monkeypatch.setattr(cli, "psds_counted", recording)
        cfg = write_tiny_scenario(tmp_path, n_clips=8)
        assert run("experiment", "--config", cfg, "--out", tmp_path / "e") == 0
        assert sizes == [0, 0, 0, 8, 8, 8]  # three models, then one fused system each

    def test_seed_changes_report(self, tmp_path):
        cfg = write_tiny_scenario(tmp_path, n_clips=8)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        run("experiment", "--config", cfg, "--seed", "7", "--out", out1)
        run("experiment", "--config", cfg, "--seed", "8", "--out", out2)
        assert (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes()


def _outputs(out):
    """Every file under ``out`` but the run manifest, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


DUMPS = ["grids_model_1.jsonl", "grids_model_2.jsonl", "grids_model_3.jsonl"]


class TestBackgroundDumpWriter:
    """The experiment's grid dumps are written by one forked child while the
    experiment scores; whatever fails, the outputs and errors are a serial run's."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("reference")
        out = base / "out"
        assert run("experiment", "--config", write_tiny_scenario(base), "--out", out) == 0
        return _outputs(out)

    @pytest.fixture
    def in_parent(self, monkeypatch):
        """The dumps this process writes itself (a child's calls are not seen);
        ``in_parent.child`` replaces what a child's call does."""
        real, parent = cli.write_framegrids, os.getpid()
        calls = types.SimpleNamespace(paths=[], child=real)

        def write_framegrids(grids, vocab, path):
            if os.getpid() != parent:
                return calls.child(grids, vocab, path)
            calls.paths.append(os.path.basename(path))
            return real(grids, vocab, path)

        monkeypatch.setattr(cli, "write_framegrids", write_framegrids)
        return calls

    def experiment(self, tmp_path, *argv):
        out = tmp_path / "out"
        return run("experiment", "--config", write_tiny_scenario(tmp_path), "--out", out,
                   *argv), out

    def test_normal_run_writes_the_dumps_in_a_child(self, tmp_path, reference, in_parent):
        rc, out = self.experiment(tmp_path)
        assert rc == 0 and in_parent.paths == []
        assert _outputs(out) == reference

    @pytest.mark.parametrize("module, name", [(os, "fork"), (tempfile, "TemporaryFile")])
    def test_no_child_writes_in_process(
        self, tmp_path, reference, in_parent, monkeypatch, module, name
    ):
        # The first fork or temp file is the writer's; write_framegrids's own follow.
        real, calls = getattr(module, name), []

        def first_fails(*args, **kwargs):
            calls.append(name)
            if len(calls) == 1:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, first_fails)
        rc, out = self.experiment(tmp_path)
        assert rc == 0 and calls
        assert in_parent.paths == DUMPS
        assert _outputs(out) == reference

    def test_failed_child_is_written_in_process(self, tmp_path, reference, in_parent):
        in_parent.child = lambda *args: os._exit(3)
        rc, out = self.experiment(tmp_path)
        assert rc == 0 and in_parent.paths == DUMPS
        assert _outputs(out) == reference

    @pytest.mark.parametrize("error, code, shown", [
        (OSError(errno.ENOSPC, "No space left on device"), 1,
         "OSError: [Errno 28] No space left on device"),
        (ValidationError("bad grid"), 2,
         "error: experiment stage 'simulate' failed: bad grid"),
    ], ids=["OSError", "ValidationError"])
    def test_failed_child_and_rewrite_raise_the_serial_error(
        self, tmp_path, capsys, monkeypatch, error, code, shown
    ):
        # The child fails on its first dump, and so does this process's write:
        # the error and exit code are those of a serial write.
        parent, calls = os.getpid(), []

        def write_framegrids(grids, vocab, path):
            if os.getpid() == parent:
                calls.append(path)
            raise error

        monkeypatch.setattr(cli, "write_framegrids", write_framegrids)
        rc, out = self.experiment(tmp_path)
        assert rc == code and len(calls) == 1
        assert shown in capsys.readouterr().err
        assert "report.json" not in _outputs(out)

    def test_parent_failure_waits_for_the_writer(
        self, tmp_path, reference, in_parent, monkeypatch, capsys
    ):
        # The child starts its dumps only when the fuse stage begins, which
        # then fails: the dumps are complete, with no temp file left.
        read_end, write_end = os.pipe()
        real, child, held = cli._decode_cfg_from_args, in_parent.child, []

        def held_until_fuse(*args):
            if not held:  # the first dump
                held.append(True)
                os.read(read_end, 1)
            return child(*args)

        def releasing(*args):
            os.write(write_end, b"x")
            return real(*args)

        in_parent.child = held_until_fuse
        monkeypatch.setattr(cli, "_decode_cfg_from_args", releasing)
        config = tmp_path / "decode.json"
        config.write_text("{not json")
        try:
            rc, out = self.experiment(tmp_path, "--decode-config", config)
        finally:
            os.close(read_end)
            os.close(write_end)
        assert rc == 2
        assert "experiment stage 'fuse' failed" in capsys.readouterr().err
        outputs = _outputs(out)
        for name in DUMPS:
            assert outputs[f"data/{name}"] == reference[f"data/{name}"], name
        assert not list(out.rglob(".tmp-*~")) and in_parent.paths == []

    def test_interrupt_waits_for_the_writer_and_rewrites_nothing(
        self, tmp_path, in_parent, monkeypatch
    ):
        in_parent.child = lambda *args: os._exit(3)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "psds_counted", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.experiment(tmp_path)
        assert in_parent.paths == []
        out = tmp_path / "out"
        assert not [p for p in out.rglob("*") if p.name.startswith("grids_")]

    def test_dumps_are_written_while_scoring(self, tmp_path, reference, monkeypatch):
        # Whichever process writes the first dump holds it until the first PSDS
        # sweep, which runs in this process: a serial writer would wait for it
        # forever, so a timer releases the writer and fails the test rather than
        # letting it hang.
        read_end, write_end = os.pipe()
        write_framegrids, psds_counted = cli.write_framegrids, cli.psds_counted
        held, released, timed_out = [], [], []

        def held_until_scoring(*args):
            if not held:  # the first dump
                held.append(True)
                os.read(read_end, 1)
            return write_framegrids(*args)

        def releasing(*args):
            if not released:
                released.append(True)
                os.write(write_end, b"x")
            return psds_counted(*args)

        def release():
            timed_out.append(True)
            os.write(write_end, b"x")

        monkeypatch.setattr(cli, "write_framegrids", held_until_scoring)
        monkeypatch.setattr(cli, "psds_counted", releasing)
        timer = threading.Timer(10, release)
        timer.start()
        try:
            rc, out = self.experiment(tmp_path)
        finally:
            timer.cancel()
            timer.join()
            os.close(read_end)
            os.close(write_end)
        assert not timed_out, "the dumps were not written beside the scoring"
        assert rc == 0 and _outputs(out) == reference


# The functions that fork, one for each forked path: the experiment's dump
# writer, the grid writer's shards, the parser's byte ranges, the sweeps'
# parameter blocks, and the class blocks of the logistic fit and of PSDS.
FORKING = ("_write_dataset", "write_framegrids", "parse_framegrids", "_dev_curve",
           "fit_logistic_fusion", "psds_counted")


class TestAnyCPUCount:
    """A seed-42 experiment, then a logistic fuse over its dumps, write the same
    bytes on 1 CPU as on 4, where every forked path deals more than one part."""

    @pytest.fixture
    def forked(self, monkeypatch):
        """The functions of ``FORKING`` that have forked in this process."""
        forked, real = set(), os.fork

        def fork():
            frame = sys._getframe(1)
            while frame.f_code.co_name not in FORKING:
                frame = frame.f_back
            forked.add(frame.f_code.co_name)
            return real()

        monkeypatch.setattr(os, "fork", fork)
        return forked

    @staticmethod
    def run_on(monkeypatch, tmp_path, cpus):
        """Both runs on ``cpus`` CPUs with no fork floor: every output but the
        run manifests."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(core, "_MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(fusion, "_MIN_SWEEP_CELLS", 1)
        monkeypatch.setattr(fusion, "_MIN_FIT_ROWS", 1)
        monkeypatch.setattr(metrics, "_MIN_PSDS_CELLS", 1)
        out = tmp_path / f"{cpus}_cpus"
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"seed": 42, "n_clips": 12}))
        assert run("experiment", "--config", cfg, "--out", out / "experiment") == 0
        data = out / "experiment" / "data"
        grids = [arg for name in DUMPS for arg in ("--grids", data / name)]
        assert run("fuse", "--mode", "logistic", *grids, "--truth", data / "events.tsv",
                   "--out", out / "logistic") == 0
        return _outputs(out)

    def test_same_bytes_on_one_cpu_and_on_four(self, monkeypatch, tmp_path, forked):
        one = self.run_on(monkeypatch, tmp_path, 1)
        assert forked == {"_write_dataset"}
        forked.clear()
        four = self.run_on(monkeypatch, tmp_path, 4)
        assert forked == set(FORKING)
        assert four.keys() == one.keys()
        assert [name for name in one if four[name] != one[name]] == []


_POSTERIORS = st.sampled_from((0.0, 0.01, 0.3, 0.5, 0.51, 0.99, 1.0))
_WINDOWS = st.sampled_from((1, 3, 5))


@st.composite
def scored_dumps(draw):
    """(dump text, reference events, decode config): two to five clips with dyadic
    hops, mixed frame counts and column orders, references on a quarter-second
    grid, and per-class median windows."""
    classes = tuple("abc"[: draw(st.integers(1, 3))])
    lines, events = [], []
    for i in range(draw(st.integers(2, 5))):
        hop = draw(st.sampled_from((0.25, 0.5)))
        frames = draw(st.integers(1, 10))
        order = classes[::-1] if draw(st.booleans()) else classes
        row = st.lists(_POSTERIORS, min_size=len(classes), max_size=len(classes))
        lines.append(core._json_line({
            "clip_id": f"c{i}", "hop_seconds": hop, "classes": list(order),
            "posteriors": draw(st.lists(row, min_size=frames, max_size=frames)),
        }))
        quarters = int(frames * hop * 4)
        for _ in range(draw(st.integers(1 if i == 0 else 0, 2))):
            onset = draw(st.integers(0, quarters - 1))
            offset = draw(st.integers(onset + 1, quarters))
            events.append(f"c{i}\t{onset / 4}\t{offset / 4}\t{draw(st.sampled_from(classes))}")
    config = {"default_median_window": draw(_WINDOWS),
              "median_windows": draw(st.dictionaries(st.sampled_from(classes), _WINDOWS))}
    return "".join(lines), "\n".join(["filename\tonset\toffset\tevent_label", *events]), config


class TestReducedDump:
    """``score`` and ``decode`` keep of each parsed block of a dump only its runs
    and its PSDS levels: their outputs are those of ``psds_many``, ``event_f1``
    and ``decode_many`` over the parsed grids, however the dump is read."""

    @staticmethod
    def expected(dump, ref_path, config):
        """report.json and events.tsv from the parsed grids, on one CPU."""
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            grids, vocab = parse_framegrids(dump)
            cfg = decode.PostProcessConfig.load(config, vocab)
            ref = parse_events(ref_path, vocab)
            est = decode.decode_many(grids, cfg, vocab)
            f1 = metrics.event_f1(ref, est, metrics.CollarConfig(), vocab)
            p1, p2 = metrics.psds_many(grids, ref, cfg, [metrics.PSDS1, metrics.PSDS2], vocab)
        payload = metrics.report_tables({"system": f1}, {"system": p1}, {"system": p2}).to_dict()
        payload["psds_detail"] = {"psds1": {"system": p1.to_dict()},
                                  "psds2": {"system": p2.to_dict()}}
        events = ref_path.parent / "expected.tsv"
        core.write_events(est, events)
        return json.dumps(payload, indent=2) + "\n", events.read_text()

    @pytest.mark.parametrize("how", ["1 CPU", "3 CPUs", "FIFO", "failed child"])
    @settings(max_examples=10, deadline=None)
    @given(case=scored_dumps())
    def test_outputs_equal_those_of_the_parsed_grids(self, how, case):
        text, ref_text, config_data = case
        parent, parse_range, real_fork = os.getpid(), core._parse_grid_range, os.fork
        forks, reruns = [], []

        def failing_later_range(*args):  # a child exits 3: the parent parses again
            if os.getpid() != parent:
                os._exit(3)
            reruns.append(args[2:4])
            return parse_range(*args)

        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            dump, ref, config = tmp / "grids.jsonl", tmp / "ref.tsv", tmp / "decode.json"
            dump.write_text(text)
            ref.write_text(ref_text + "\n")
            config.write_text(json.dumps(config_data))
            report, events = self.expected(dump, ref, config)
            cpus = {0} if how == "1 CPU" else {0, 1, 2}
            with contextlib.ExitStack() as patches:
                for target, name, value in [
                    (os, "sched_getaffinity", lambda pid: cpus),
                    (core, "_MIN_RANGE_BYTES", 1),
                    (os, "fork", lambda: forks.append(1) or real_fork()),
                ] + [(core, "_parse_grid_range", failing_later_range)] * (how == "failed child"):
                    patches.enter_context(mock.patch.object(target, name, value, create=True))
                with open(dump, "rb") as fh:
                    starts = core._range_starts(fh.fileno(), len(text))
                for argv in (["score", "--ref", ref, "--metric", "all"], ["decode"]):
                    grids = dump
                    if how == "FIFO":
                        grids = tmp / f"{argv[0]}.fifo"
                        os.mkfifo(grids)
                        writer = threading.Thread(target=grids.write_text, args=(text,),
                                                  daemon=True)
                        writer.start()
                    rc = run(*argv, "--grids", grids, "--decode-config", config,
                             "--out", tmp / argv[0])
                    if how == "FIFO":
                        writer.join(timeout=10)
                    assert rc == 0
            assert (tmp / "score" / "report.json").read_text() == report
            assert (tmp / "decode" / "events.tsv").read_text() == events
        # On 3 CPUs a dump is dealt where a range starts after the first line.
        dealt = how in ("3 CPUs", "failed child") and len(starts) > 1
        assert bool(forks) == dealt
        if how == "failed child":  # in each run, the first range and then the whole file
            assert reruns == 2 * ([(0, starts[1]), (0, len(text))] if dealt else [(0, None)])

    def test_score_holds_no_float_dump(self, tmp_path, monkeypatch):
        # Beyond the text and the grids of the block it parses, score keeps a
        # byte of PSDS levels per cell, and its runs: with those blocks made
        # small (the lines decoded together among them), the traced peak of
        # this process stays below half the dump's float64 size, which
        # holding the parsed grids would exceed. The dump has 2 MiB or more,
        # so on 2 CPUs its ranges are dealt.
        rng = np.random.default_rng(5)
        n_clips, frames, classes = 120, 1024, ["a", "b", "c", "d"]
        lines, refs = [], ["filename\tonset\toffset\tevent_label"]
        for i in range(n_clips):
            values = np.zeros((frames, len(classes)))
            for c in range(len(classes)):  # one event per class, with soft edges
                a = int(rng.integers(0, frames - 100))
                b = a + int(rng.integers(20, 100))
                values[a:b, c] = 0.75
                values[a + 5 : b - 5, c] = 1.0
            lines.append(core._json_line({"clip_id": f"c{i}", "hop_seconds": 0.02,
                                          "classes": classes, "posteriors": values.tolist()}))
            refs.append(f"c{i}\t{a * 0.02}\t{b * 0.02}\td")  # the last class's event
        dump, ref = tmp_path / "grids.jsonl", tmp_path / "ref.tsv"
        dump.write_text("".join(lines))
        ref.write_text("\n".join(refs) + "\n")
        assert dump.stat().st_size >= 2 << 20
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(core, "_READ_BLOCK", 1 << 16)
        monkeypatch.setattr(core, "_DECODE_BYTES", 1 << 14)
        monkeypatch.setattr(decode, "_BLOCK_CELLS", 1 << 12)
        # One clip first, untraced: what that imports or caches is not the dump's.
        (tmp_path / "one.jsonl").write_text(lines[0])
        (tmp_path / "one.tsv").write_text("\n".join(refs[:2]) + "\n")
        assert run("score", "--ref", tmp_path / "one.tsv", "--grids", tmp_path / "one.jsonl",
                   "--metric", "all", "--out", tmp_path / "one") == 0
        tracemalloc.start()
        try:
            rc = run("score", "--ref", ref, "--grids", dump, "--metric", "all",
                     "--out", tmp_path / "o")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0 and forks
        assert peak < 0.5 * n_clips * frames * len(classes) * 8


class TestModelNameNotAFileName:
    """A model name that cannot be part of grids_<name>.jsonl exits 2 naming the
    config, before any output is written."""

    @pytest.mark.parametrize("name", ["a\0b", "x/y"])
    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command, name):
        cfg = write_tiny_scenario(tmp_path, models=[{"name": name}])
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: model name {name!r} cannot be part of a file name" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestManifestFile:
    def test_run_manifest_written(self, dataset):
        manifest = json.loads((dataset / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["tool_version"]
        assert any(p.endswith("events.tsv") for p in manifest["outputs"])
        assert manifest["wall_clock_seconds"] >= 0
        peak = manifest["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0
        own, child = manifest["peak_rss_mb_self"], manifest["peak_rss_mb_largest_child"]
        assert 0 < own <= peak and 0 < child <= peak and peak == max(own, child)

    def test_peak_rss_in_decimal_megabytes(self, tmp_path, monkeypatch):
        # ru_maxrss is in KiB: 1,000,000 KiB is 1,024,000,000 bytes.
        monkeypatch.setattr(
            cli.resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=1_000_000)
        )
        out = tmp_path / "data"
        assert run("simulate", "--config", write_tiny_scenario(tmp_path), "--out", out) == 0
        assert json.loads((out / "run_manifest.json").read_text())["peak_rss_mb"] == 1024.0

    @pytest.mark.parametrize("self_kib, children_kib", [(1_000, 2_000_000), (2_000_000, 1_000)])
    def test_peak_rss_counts_child_processes(self, tmp_path, monkeypatch, self_kib, children_kib):
        # The grid writer's and parser's forked children are reaped: the larger peak counts.
        usage = {cli.resource.RUSAGE_SELF: self_kib, cli.resource.RUSAGE_CHILDREN: children_kib}
        monkeypatch.setattr(
            cli.resource, "getrusage", lambda who: types.SimpleNamespace(ru_maxrss=usage[who])
        )
        out = tmp_path / "data"
        assert run("simulate", "--config", write_tiny_scenario(tmp_path), "--out", out) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["peak_rss_mb"] == 2048.0
        # Each process's own peak is shown beside it, to name the one that set it.
        assert manifest["peak_rss_mb_self"] == self_kib * 1024 / 1e6
        assert manifest["peak_rss_mb_largest_child"] == children_kib * 1024 / 1e6

    @pytest.mark.parametrize("subcommand", ["decode", "score", "fuse", "experiment"])
    def test_decode_config_is_an_input(self, dataset, tmp_path, subcommand):
        config = tmp_path / "decode.json"
        config.write_text('{"default_threshold": 0.4}')
        grids = dataset / "grids_model_1.jsonl"
        argv = {
            "decode": ["decode", "--grids", grids],
            "score": ["score", "--ref", dataset / "events.tsv", "--grids", grids, "--metric", "f1"],
            "fuse": ["fuse", "--mode", "average", "--grids", grids,
                     "--grids", dataset / "grids_model_2.jsonl"],
            "experiment": ["experiment", "--config", tmp_path / "scenario.json"],
        }[subcommand]
        out = tmp_path / "o"
        assert run(*argv, "--decode-config", config, "--out", out) == 0
        assert str(config) in json.loads((out / "run_manifest.json").read_text())["inputs"]


class TestInputRepros:
    """Inputs that once exited 0 with a wrong result, or 1 with a traceback: each exits
    2 naming its file, with the field table's message."""

    F1_GOOD = {"models": ["m1"], "classes": ["a", "b"], "f1": [[0.5, 0.6]]}

    @pytest.mark.parametrize(
        "flag, data, shown",
        [
            pytest.param("--f1-table", {**F1_GOOD, "classes": ["b", "a"]},
                         "classes ['b', 'a'] differ from the grids' ['a', 'b']",
                         id="f1-classes-reversed"),
            pytest.param("--f1-table", {**F1_GOOD, "classes": ["x", "y"]},
                         "classes ['x', 'y'] differ from the grids' ['a', 'b']",
                         id="f1-classes-unknown"),
            pytest.param("--f1-table", {**F1_GOOD, "models": "abc"},
                         "models 'abc' must be a list of names", id="f1-models-string"),
            pytest.param("--f1-table",
                         {**F1_GOOD, "models": ["m1", "m2"], "f1": [[0.5, 0.6], [0.5]]},
                         "f1 [0.5] must be a list of 2 numbers", id="f1-ragged-rows"),
            pytest.param("--config", {"n_clips": 2, "models": [{"name": 5}]},
                         "name 5 must be a string", id="model-name-number"),
            pytest.param("--config", {"n_clips": 2, "models": [{"name": "m"}, {"name": "m"}]},
                         "model names ['m', 'm'] must be unique", id="model-names-duplicate"),
            pytest.param("--config",
                         {"n_clips": 2, "models": [{"default": {"jitter_frames": "inf"}}]},
                         "jitter_frames 'inf' must be an integer", id="jitter-inf"),
            pytest.param("--config", {"n_clips": 2, "seed": -1}, "seed -1 must be >= 0",
                         id="seed-negative"),
            pytest.param("--config", {"n_clips": 2, "events_per_clip": 5},
                         "events_per_clip 5 must be a list of 2 integers", id="events-scalar"),
            pytest.param("--config", {"n_clips": 2, "class_duration_seconds": {"Cat": [1]}},
                         "class_duration_seconds 'Cat' [1] must be a list of 2 numbers",
                         id="class-durations-short"),
            pytest.param("--config", {"n_clips": 2, "separation": {"clen": 0.6}},
                         "unknown separation keys ['clen']", id="separation-unknown-key"),
        ],
    )
    def test_exits_2_naming_the_file(self, tmp_path, capsys, flag, data, shown):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        grids = tmp_path / "grids.jsonl"
        grids.write_text(GOOD_GRID + "\n")
        command = {
            "--f1-table": ["fuse", "--mode", "classwise", "--beta", "1", "--grids", grids],
            "--config": ["simulate"],
        }[flag]
        assert run(*command, flag, config, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{config}: {shown}" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "fused.jsonl").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert run("simulate", "--seed", "-1", "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "seed -1 must be >= 0" in err and "Traceback" not in err

    def test_f1_table_in_grid_order_fuses(self, tmp_path):
        config = tmp_path / "f1.json"
        config.write_text(json.dumps(self.F1_GOOD))
        grids = tmp_path / "grids.jsonl"
        grids.write_text(GOOD_GRID + "\n")
        out = tmp_path / "o"
        assert run("fuse", "--mode", "classwise", "--beta", "1", "--grids", grids,
                   "--f1-table", config, "--out", out) == 0
        assert (out / "fused.jsonl").exists()


class TestUnusablePaths:
    """An input that is a directory, and an ``--out`` that is or lies below a
    regular file, exit 2 naming the path, with no traceback."""

    @pytest.mark.parametrize("case", ["grids-directory", "out-below-file", "out-is-file"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, case):
        grids = tmp_path / "grids.jsonl"
        grids.write_text(GOOD_GRID + "\n")
        argv, shown = {
            "grids-directory": (["decode", "--grids", tmp_path, "--out", tmp_path / "o"],
                                tmp_path),
            "out-below-file": (["decode", "--grids", grids, "--out", grids / "o"], grids / "o"),
            "out-is-file": (["simulate", "--out", grids], grids),
        }[case]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {shown}: ") and "Traceback" not in err


# Valid tiny bases for the mutation test: a 2-clip scenario, and the decode, PSDS
# and F1-table configs of the GOOD_GRID dump.
MUTATION_BASES = {
    "scenario": {
        "seed": 3, "n_clips": 2, "clip_seconds": 2.0, "frames_per_clip": 16,
        "classes": ["a", "b"], "events_per_clip": [0, 2], "duration_seconds": [0.25, 1.0],
        "class_duration_seconds": {"a": [0.5, 1.0]}, "allow_overlap": True,
        "models": [
            {"name": "m1", "default": {"miss_rate": 0.1, "false_alarm_rate": 0.01,
                                       "jitter_frames": 1, "sharpness": 4.0},
             "per_class": {"a": {"miss_rate": 0.2, "false_alarm_rate": 0.0,
                                 "jitter_frames": 0, "sharpness": "inf"}}},
            {"name": "m2", "jitter_frames": [1, 2]},
        ],
        "separation": {"clean": 0.6, "leakage": 0.2, "residual": 0.2, "tagging_error": 0.1},
        "n_sources": 3, "tau": 0.5,
    },
    "decode": {"default_threshold": 0.5, "default_median_window": 3,
               "thresholds": {"a": 0.4}, "median_windows": {"b": 1}},
    "psds": {"dtc": 0.7, "gtc": 0.7, "cttc": 0.3, "alpha_ct": 0.5, "alpha_st": 1.0,
             "e_max": 100.0, "operating_points": [0.25, 0.5, 0.75]},
    "f1": {"models": ["m1"], "classes": ["a", "b"], "f1": [[0.5, 0.6]]},
}
# (input, path of the nested object in its base, the object's field table)
MUTATION_TARGETS = [
    ("scenario", (), synth._SCENARIO_FIELDS),
    ("scenario", ("models", 0), synth._model_fields(2)),
    ("scenario", ("models", 0, "default"), synth._SKILL_FIELDS),
    ("scenario", ("models", 0, "per_class", "a"), synth._SKILL_FIELDS),
    ("scenario", ("separation",), synth._SEPARATION_FIELDS),
    ("decode", (), decode._DECODE_FIELDS),
    ("psds", (), metrics._PSDS_FIELDS),
    ("f1", (), fusion._F1_FIELDS),
]
DELETE = "<delete the key>"
REPLACEMENTS = [None, True, 0, -1, 2, 0.5, 1e308, "inf", "x", [], [1], {}, DELETE]


@st.composite
def config_mutations(draw):
    name, path, table = draw(st.sampled_from(MUTATION_TARGETS))
    return name, path, draw(st.sampled_from(sorted(table))), draw(st.sampled_from(REPLACEMENTS))


class TestConfigMutations:
    """One key of one config object, drawn from its field table, set to a value of
    another kind or deleted: the CLI exits 0 or 2, and an exit 2 names the file."""

    @settings(max_examples=200, deadline=None)
    @given(mutation=config_mutations())
    @example(mutation=("scenario", (), "seed", -1))
    @example(mutation=("scenario", ("models", 0, "per_class", "a"), "jitter_frames", "inf"))
    def test_exits_0_or_2(self, tmp_path_factory, mutation):
        name, path, key, value = mutation
        data = copy.deepcopy(MUTATION_BASES[name])
        target = functools.reduce(lambda obj, step: obj[step], path, data)
        if value == DELETE:
            target.pop(key, None)
        else:
            target[key] = value
        work = tmp_path_factory.mktemp("mutation")
        config = work / "config.json"
        config.write_text(json.dumps(data))
        grids = work / "grids.jsonl"
        grids.write_text(GOOD_GRID + "\n")
        ref = work / "ref.tsv"
        ref.write_text("filename\tonset\toffset\tevent_label\nc0\t0.0\t0.1\ta\n")
        argv = {
            "scenario": ["simulate", "--config"],
            "decode": ["decode", "--grids", grids, "--decode-config"],
            "psds": ["score", "--ref", ref, "--grids", grids, "--metric", "psds1",
                     "--psds-config"],
            "f1": ["fuse", "--mode", "classwise", "--beta", "1", "--grids", grids, "--f1-table"],
        }[name]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run(*argv, config, "--out", work / "o")
        assert rc in (0, 2), err.getvalue()
        assert rc == 0 or str(config) in err.getvalue(), err.getvalue()
