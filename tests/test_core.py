"""Domain types, file round trips and validation messages."""

import errno
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sedfuse.core
from sedfuse.core import (
    ClassVocabulary,
    Event,
    EventList,
    FrameGrid,
    ParseError,
    SedfuseError,
    SeparationManifest,
    TagPrediction,
    ValidationError,
    VocabularyError,
    WeakLabelSet,
    parse_events,
    parse_framegrids,
    parse_manifest,
    parse_tags,
    parse_weak_labels,
    write_events,
    write_framegrids,
    write_manifest,
    write_tags,
    write_weak_labels,
)
from sedfuse.decode import PostProcessConfig
from sedfuse.fusion import ClassF1Table, classwise_weights, combine_pair
from sedfuse.metrics import CollarConfig, PSDSConfig
from sedfuse.spl import PseudoLabel, Verdict, assign_pseudo_label
from sedfuse.synth import ModelSkill, SeparationSkill

# The directory that holds the sedfuse package, for scripts run in a subprocess.
SRC_DIR = os.path.dirname(os.path.dirname(sedfuse.core.__file__))


class TestVocabulary:
    def test_basic(self, vocab4):
        assert len(vocab4) == 4
        assert "Cat" in vocab4
        assert vocab4.index("Dog") == 1
        assert vocab4.with_other() == ("Cat", "Dog", "Dishes", "Speech", "other")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            ClassVocabulary(("Cat", "Cat"))

    def test_other_not_a_class(self):
        with pytest.raises(ValidationError):
            ClassVocabulary(("Cat", "other"))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ClassVocabulary(())

    def test_unknown_class(self, vocab4):
        with pytest.raises(VocabularyError):
            vocab4.index("Unicorn")

    def test_forbidden_characters(self):
        with pytest.raises(ValidationError):
            ClassVocabulary(("a,b",))


class TestFrameGrid:
    def test_valid(self):
        grid = FrameGrid("clip1", 0.02, np.full((512, 10), 0.5))
        assert grid.n_frames == 512
        assert grid.n_classes == 10
        assert grid.duration_seconds == pytest.approx(10.24)
        assert not grid.values.flags.writeable

    def test_out_of_range_names_location(self):
        vals = np.zeros((4, 2))
        vals[2, 1] = 1.2
        with pytest.raises(ValidationError, match="clip1.*frame 2"):
            FrameGrid("clip1", 0.02, vals)

    def test_bad_hop(self):
        with pytest.raises(ValidationError):
            FrameGrid("clip1", 0.0, np.zeros((2, 2)))


class TestEvent:
    def test_onset_before_offset(self):
        with pytest.raises(ValidationError):
            Event("c", 2.0, 1.0, "Cat")

    def test_negative_onset(self):
        with pytest.raises(ValidationError):
            Event("c", -0.1, 1.0, "Cat")


class TestManifest:
    def test_uniform_source_count(self):
        with pytest.raises(ValidationError):
            SeparationManifest({"m1": ("a", "b"), "m2": ("c",)})

    def test_globally_unique_sources(self):
        with pytest.raises(ValidationError):
            SeparationManifest({"m1": ("a",), "m2": ("a",)})

    def test_n_sources(self):
        m = SeparationManifest({"m1": ("a", "b"), "m2": ("c", "d")})
        assert m.n_sources == 2


class TestEventsTSV:
    def test_single_row(self, tmp_path, vocab4):
        path = tmp_path / "events.tsv"
        path.write_text("filename\tonset\toffset\tevent_label\nclip1\t1.000\t2.000\tSpeech\n")
        events = parse_events(path, vocab4)
        assert len(events) == 1
        assert events.events[0] == Event("clip1", 1.0, 2.0, "Speech")

    def test_header_only(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("filename\tonset\toffset\tevent_label\n")
        assert len(parse_events(path)) == 0

    def test_inverted_times_name_line(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text(
            "filename\tonset\toffset\tevent_label\n"
            "ok\t0.0\t1.0\tSpeech\n"
            "clip1\t2.0\t1.0\tSpeech\n"
        )
        with pytest.raises(ParseError) as err:
            parse_events(path)
        assert err.value.line_no == 3

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("filename\tonset\toffset\tevent_label\nclip1\t1.0\t2.0\n")
        with pytest.raises(ParseError):
            parse_events(path)

    def test_non_numeric_time(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("filename\tonset\toffset\tevent_label\nclip1\tx\t2.0\tSpeech\n")
        with pytest.raises(ParseError):
            parse_events(path)

    def test_unknown_class(self, tmp_path, vocab4):
        path = tmp_path / "events.tsv"
        path.write_text("filename\tonset\toffset\tevent_label\nclip1\t1.0\t2.0\tUnicorn\n")
        with pytest.raises(VocabularyError):
            parse_events(path, vocab4)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("file\tstart\tstop\tlabel\n")
        with pytest.raises(ParseError):
            parse_events(path)

    def test_round_trip_preserves_values(self, tmp_path, vocab4, rng):
        events = EventList(
            [
                Event(f"clip{i % 3}", float(o), float(o) + float(d), "Cat")
                for i, (o, d) in enumerate(
                    zip(rng.random(20) * 9, 0.1 + rng.random(20))
                )
            ]
        )
        path = tmp_path / "events.tsv"
        write_events(events, path)
        again = parse_events(path, vocab4)
        assert again == events  # repr serialization is exact, not just 1e-9

    def test_precision_example(self, tmp_path):
        path = tmp_path / "events.tsv"
        write_events(EventList([Event("c", 0.123456, 1.0, "Cat")]), path)
        text = path.read_text()
        assert "0.123456" in text
        back = parse_events(path)
        assert abs(back.events[0].onset - 0.123456) < 1e-9

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "events.tsv"
        write_events(EventList([]), path)
        assert path.read_text() == "filename\tonset\toffset\tevent_label\n"
        assert len(parse_events(path)) == 0

    def test_row_order_preserved(self, tmp_path):
        events = EventList(
            [Event("b", 1.0, 2.0, "Cat"), Event("a", 0.0, 1.0, "Dog")]
        )
        path = tmp_path / "events.tsv"
        write_events(events, path)
        assert [e.clip_id for e in parse_events(path)] == ["b", "a"]


class TestWeakTSV:
    def test_four_labels(self, tmp_path, vocab4):
        path = tmp_path / "weak.tsv"
        path.write_text("filename\tevent_labels\nm1\tCat,Dog,Dishes,Speech\n")
        weak = parse_weak_labels(path, vocab4)
        assert weak["m1"] == {"Cat", "Dog", "Dishes", "Speech"}
        assert len(weak["m1"]) == 4

    def test_duplicates_collapse(self, tmp_path, vocab4):
        path = tmp_path / "weak.tsv"
        path.write_text("filename\tevent_labels\nm2\tCat,Cat\n")
        assert parse_weak_labels(path, vocab4)["m2"] == {"Cat"}

    def test_unknown_class(self, tmp_path, vocab4):
        path = tmp_path / "weak.tsv"
        path.write_text("filename\tevent_labels\nm3\tUnicorn\n")
        with pytest.raises(VocabularyError):
            parse_weak_labels(path, vocab4)

    def test_duplicate_clip_rows(self, tmp_path, vocab4):
        path = tmp_path / "weak.tsv"
        path.write_text("filename\tevent_labels\nm1\tCat\nm1\tDog\n")
        with pytest.raises(ParseError):
            parse_weak_labels(path, vocab4)

    def test_round_trip(self, tmp_path, vocab4):
        weak = WeakLabelSet({"m1": frozenset({"Cat", "Speech"}), "m2": frozenset({"Dog"})})
        path = tmp_path / "weak.tsv"
        write_weak_labels(weak, vocab4, path)
        assert parse_weak_labels(path, vocab4).labels == weak.labels


class TestGridsJSONL:
    def test_constant_grid(self, tmp_path, vocab10):
        grid = FrameGrid("c1", 10 / 512, np.full((512, 10), 0.5))
        path = tmp_path / "grids.jsonl"
        write_framegrids([grid], vocab10, path)
        back, _ = parse_framegrids(path, vocab10)
        assert len(back) == 1
        assert back[0].n_frames == 512
        np.testing.assert_array_equal(back[0].values, grid.values)

    def test_out_of_range_value(self, tmp_path, vocab4):
        path = tmp_path / "grids.jsonl"
        path.write_text(
            '{"clip_id":"c1","hop_seconds":0.1,"classes":["Cat","Dog","Dishes","Speech"],'
            '"posteriors":[[0.1,0.2,0.3,1.2]]}\n'
        )
        with pytest.raises(ValidationError, match="c1") as err:
            parse_framegrids(path, vocab4)
        assert "value 1.2 outside [0, 1]" in str(err.value)  # not np.float64(1.2)

    def test_order_preserved(self, tmp_path, vocab4, rng):
        grids = [
            FrameGrid(f"c{i}", 0.1, rng.random((8, 4))) for i in range(2)
        ]
        path = tmp_path / "grids.jsonl"
        write_framegrids(grids, vocab4, path)
        back, _ = parse_framegrids(path, vocab4)
        assert [g.clip_id for g in back] == ["c0", "c1"]

    def test_column_reorder_is_permutation(self, tmp_path, vocab4, rng):
        grid = FrameGrid("c1", 0.1, rng.random((16, 4)))
        path = tmp_path / "grids.jsonl"
        write_framegrids([grid], vocab4, path)
        shuffled = ClassVocabulary(("Speech", "Cat", "Dog", "Dishes"))
        reordered = parse_framegrids(path, shuffled)[0][0]
        for i, name in enumerate(shuffled.classes):
            np.testing.assert_array_equal(
                reordered.values[:, i], grid.values[:, vocab4.index(name)]
            )
        # restoring the original order reproduces the grid exactly
        path2 = tmp_path / "again.jsonl"
        write_framegrids([reordered], shuffled, path2)
        restored = parse_framegrids(path2, vocab4)[0][0]
        np.testing.assert_array_equal(restored.values, grid.values)

    def test_class_set_mismatch(self, tmp_path, vocab4):
        path = tmp_path / "grids.jsonl"
        path.write_text(
            '{"clip_id":"c1","hop_seconds":0.1,"classes":["Cat","Dog"],"posteriors":[[0.1,0.2]]}\n'
        )
        with pytest.raises(VocabularyError):
            parse_framegrids(path, vocab4)

    def test_no_records(self, tmp_path, vocab4):
        path = tmp_path / "grids.jsonl"
        path.write_text("\n \n")
        with pytest.raises(ValidationError) as err:
            parse_framegrids(path)
        assert str(err.value) == f"{path}: no records"
        assert parse_framegrids(path, vocab4) == ([], vocab4)

    def test_bit_exact_round_trip(self, tmp_path, vocab10, rng):
        grids = [FrameGrid(f"c{i}", 10 / 512, rng.random((32, 10))) for i in range(3)]
        path = tmp_path / "grids.jsonl"
        write_framegrids(grids, vocab10, path)
        back, _ = parse_framegrids(path, vocab10)
        for a, b in zip(grids, back):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.hop_seconds == b.hop_seconds


    @pytest.mark.parametrize("n_grids", [0, 3, 5])
    @pytest.mark.parametrize("cpus", [None, 1, 2, 3, 4])
    def test_written_bytes_are_one_json_line_per_grid(
        self, tmp_path, vocab4, rng, monkeypatch, cpus, n_grids
    ):
        # One shard per CPU of the affinity mask, at most one per grid; None
        # is a platform without sched_getaffinity.
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        grids = [FrameGrid(f"c{i}", 0.1, rng.random((5, 4))) for i in range(n_grids)]
        path = tmp_path / "grids.jsonl"
        write_framegrids(grids, vocab4, path)
        expected = "".join(
            json.dumps(
                {"clip_id": g.clip_id, "hop_seconds": g.hop_seconds,
                 "classes": list(vocab4.classes), "posteriors": g.values.tolist()},
                separators=(",", ":"),
            ) + "\n"
            for g in grids
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert len(forks) == max(1, min(cpus or 1, n_grids)) - 1
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "module, name, code, failing",
        [(os, "fork", errno.EAGAIN, 1), (os, "fork", errno.EAGAIN, 2),
         (tempfile, "TemporaryFile", errno.ENOSPC, 2), (os, "fork", None, 2)],
        ids=["fork-first", "fork-second", "TemporaryFile-second", "child-exits-1"],
    )
    def test_shards_without_a_child_are_encoded_here(
        self, tmp_path, vocab4, rng, monkeypatch, module, name, code, failing
    ):
        # A shard that gets no process (EAGAIN) or no temp file (ENOSPC), or
        # whose child exits 1 (code None), of 3 shards on 3 CPUs: this process
        # encodes the whole dump, and the bytes are those of a normal write.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        grids = [FrameGrid(f"c{i}", 0.1, rng.random((5, 4))) for i in range(5)]
        write_framegrids(grids, vocab4, tmp_path / "normal.jsonl")
        real, calls = getattr(module, name), []

        def fails(*args, **kwargs):
            calls.append(name)
            if len(calls) != failing:
                return real(*args, **kwargs)
            if code is not None:
                raise OSError(code, os.strerror(code))
            pid = real()
            if pid == 0:
                os._exit(1)
            return pid

        monkeypatch.setattr(module, name, fails)
        path = tmp_path / "grids.jsonl"
        write_framegrids(grids, vocab4, path)
        assert len(calls) == failing
        assert path.read_bytes() == (tmp_path / "normal.jsonl").read_bytes()
        assert sorted(tmp_path.iterdir()) == [path, tmp_path / "normal.jsonl"]

    def test_later_shard_streams_in(self, tmp_path, vocab10, rng, monkeypatch):
        # On 2 CPUs the child's shard, nearly 2 MB of lines, comes back a line
        # at a time: this process never holds it whole.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grids = [FrameGrid(f"c{i}", 0.1, rng.random((1 if i < 20 else 500, 10)))
                 for i in range(40)]
        path = tmp_path / "grids.jsonl"
        tracemalloc.start()
        try:
            write_framegrids(grids, vocab10, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        later = sum(map(len, path.read_bytes().splitlines(keepends=True)[20:]))
        assert later > 1_900_000 and peak < later

    def test_unreaped_children_hold_a_cpu(self, monkeypatch):
        # While a child of _forking runs (the experiment's dump writer), this
        # process counts one CPU less; the child counts all. Each child waits on
        # its own pipe, so it runs until this process has counted.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        first, second = os.pipe(), os.pipe()
        try:
            assert sedfuse.core._cpus() == 3
            with sedfuse.core._forking() as fork:
                done = fork(lambda file: file.write(bytes([sedfuse.core._cpus()]))
                            and os.read(first[0], 1))
                assert sedfuse.core._cpus() == 2
                fork(lambda file: os.read(second[0], 1))  # killed on leaving
                assert sedfuse.core._cpus() == 1
                os.write(first[1], b"x")
                assert done().read() == bytes([3])
                assert sedfuse.core._cpus() == 2
            assert sedfuse.core._cpus() == 3
        finally:
            for fd in (*first, *second):
                os.close(fd)

    def test_exited_child_frees_its_cpu(self, monkeypatch):
        # A child that has exited holds no CPU, though it is not reaped until
        # done(), which still gives its file.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        with sedfuse.core._forking() as fork:
            done = fork(lambda file: file.write(b"written"))
            [pid] = sedfuse.core._unreaped
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            assert sedfuse.core._cpus() == 3
            assert done().read() == b"written"
            assert sedfuse.core._unreaped == set()

    def test_failed_write_leaves_no_file(self, tmp_path, vocab4, rng, monkeypatch):
        # The column check runs before any shard is forked.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before the column check"))
        grids = [FrameGrid("c0", 0.1, rng.random((5, 4))), FrameGrid("c1", 0.1, rng.random((5, 3)))]
        with pytest.raises(ValidationError):
            write_framegrids(grids, vocab4, tmp_path / "grids.jsonl")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing", [1, 3, 0])
    def test_failed_shard_leaves_no_file_and_no_process(
        self, tmp_path, vocab4, rng, monkeypatch, failing
    ):
        # A grid that json cannot encode fails the child that holds it (shards
        # [0, 1), [1, 2), [2, 4) of 4 grids on 3 CPUs), and the serial rewrite
        # then raises json's error; or it fails this process for shard 0.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        grids = [FrameGrid(f"c{i}", 0.1, rng.random((5, 4))) for i in range(4)]
        grids[failing].hop_seconds = object()
        path = tmp_path / "grids.jsonl"
        with pytest.raises(TypeError):
            write_framegrids(grids, vocab4, path)
        assert list(tmp_path.iterdir()) == []

    def test_killed_writer_leaves_no_shard_file(self, tmp_path, vocab4):
        # A process killed before it reaps its first child: the children's shard
        # files have no name, so only atomic_write_text's temp file is left.
        out = tmp_path / "out"
        out.mkdir()
        script = f"""
import os, signal, sys
sys.path.insert(0, {SRC_DIR!r})
import numpy as np
import sedfuse.core as core
os.sched_getaffinity = lambda pid: {{0, 1, 2}}
os.waitpid = lambda pid, options: os.kill(os.getpid(), signal.SIGKILL)
grids = [core.FrameGrid(f"c{{i}}", 0.1, np.full((5, 4), 0.5)) for i in range(3)]
core.write_framegrids(grids, core.ClassVocabulary({vocab4.classes!r}), sys.argv[1])
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out / "grids.jsonl")],
            capture_output=True, timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        left = [p.name for p in out.iterdir()]
        assert len(left) == 1 and left[0].startswith(".tmp-") and left[0].endswith("~"), left

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_outputs_follow_the_umask(self, tmp_path, vocab4, rng, umask):
        grids = [FrameGrid("c0", 0.1, rng.random((5, 4))), FrameGrid("c1", 0.1, rng.random((5, 4)))]
        events = EventList([Event("c0", 0.0, 0.5, "Cat")])
        old = os.umask(umask)
        try:
            write_framegrids(grids, vocab4, tmp_path / "grids.jsonl")
            write_events(events, tmp_path / "events.tsv")
            (tmp_path / "touched").touch()
            assert os.umask(umask) == umask  # the writers set the umask back
        finally:
            os.umask(old)
        for name in ("grids.jsonl", "events.tsv", "touched"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask, name
        assert parse_events(tmp_path / "events.tsv").events == events.events


FOUR = ("Cat", "Dog", "Dishes", "Speech")  # the classes of vocab4


def _grid_record(clip_id: str, values, classes=FOUR) -> str:
    return json.dumps(
        {"clip_id": clip_id, "hop_seconds": 0.1, "classes": list(classes),
         "posteriors": values.tolist()},
        separators=(",", ":"),
    )


def _assert_written_as_tolist(values) -> None:
    """``_json_line`` of ``values`` is ``json.dumps`` of its ``tolist()``; a
    mismatch shows the text around its first differing character, so that no
    diff of a long line is computed."""
    got = sedfuse.core._json_line({"posteriors": values})
    expected = json.dumps({"posteriors": values.tolist()}, separators=(",", ":")) + "\n"
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        assert got[max(0, at - 60):at + 60] == expected[max(0, at - 60):at + 60]
        assert len(got) == len(expected)


class TestGridText:
    """``_json_line`` writes an array of posteriors as ``json.dumps`` writes its
    ``tolist()``, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        elements=st.floats(0.0, 1.0, allow_subnormal=True) | st.just(-0.0),
    ))
    def test_equals_json_dumps(self, values):
        _assert_written_as_tolist(values)

    @pytest.mark.parametrize("x", [
        1e-4, float(np.nextafter(1e-4, 0)), float(np.nextafter(1e-4, 1)), 1e-5, 5e-324,
        2.2250738585072014e-308, 0.5, 1.0, 0.1, 0.3, 0.0, -0.0, float(np.nextafter(1.0, 0)),
        0.1 + 0.2,
    ])
    def test_boundaries_and_specials(self, x):
        values = np.array([[x, 0.25], [0.7, x]])
        _assert_written_as_tolist(values)

    def test_powers_of_two(self):
        values = np.ldexp(1.0, -np.arange(1075)).reshape(5, 215)
        _assert_written_as_tolist(values)

    def test_seeded_sweep(self):
        # 10**6 cells, uniform in [0, 1) and log-uniform over [1e-6, 1), in
        # grids wider and narrower than a block of text (``_TEXT_CELLS``).
        rng = np.random.default_rng(42)
        for values in (rng.random((50_000, 10)), 10 ** rng.uniform(-6, 0, (2, 250_000))):
            _assert_written_as_tolist(values)

    def test_record_fields_keep_their_order(self):
        values = np.array([[0.5, 0.123]])
        record = {"a": "x\u00e9", "posteriors": values, "z": [1.5, None]}
        assert sedfuse.core._json_line(record) == json.dumps(
            {**record, "posteriors": values.tolist()}, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_written_dump_equals_the_tolist_path(self, tmp_path, vocab10, monkeypatch, cpus):
        # Specials in every grid, and a grid of more than one block of text;
        # on 2 CPUs a forked child writes the later shard.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        rng = np.random.default_rng(7)
        specials = [0.0, -0.0, 1.0, 0.5, 1e-4, 5e-324, 3e-5]
        grids = []
        for i, frames in enumerate((1, 40, 2000, 3)):
            values = 10 ** rng.uniform(-6, 0, (frames, 10))
            values.flat[rng.integers(0, values.size, len(specials))] = specials
            grids.append(FrameGrid(f"c{i}", 10 / 512, values))
        path = tmp_path / "grids.jsonl"
        write_framegrids(grids, vocab10, path)
        expected = "".join(
            json.dumps(
                {"clip_id": g.clip_id, "hop_seconds": g.hop_seconds,
                 "classes": list(vocab10.classes), "posteriors": g.values.tolist()},
                separators=(",", ":"),
            ) + "\n"
            for g in grids
        )
        assert path.read_bytes() == expected.encode("utf-8")


class TestShardedParse:
    """A dump parsed in k byte ranges gives the grids and the errors of one range.
    That no process or fd is left behind is checked after every test."""

    @pytest.fixture
    def made(self, monkeypatch):
        """The forks of the test."""
        made = types.SimpleNamespace(forks=0)
        real_fork = os.fork

        def fork():
            made.forks += 1
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return made

    @staticmethod
    def parse(monkeypatch, path, vocab, k):
        """Parse on k CPUs, with no floor on the range size."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(sedfuse.core, "_MIN_RANGE_BYTES", 1)
        return parse_framegrids(path, vocab)[0]

    @staticmethod
    def starts(monkeypatch, path, k):
        """The range starts of the file on k CPUs, with no floor on the range size."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(sedfuse.core, "_MIN_RANGE_BYTES", 1)
        with open(path, "rb") as fh:
            return sedfuse.core._range_starts(fh.fileno(), path.stat().st_size)

    @staticmethod
    def dump(vocab, rng, newline, n=6):
        """n grids of 2 to n + 1 frames, the odd ones with their columns reversed,
        and blank lines; every line ends with ``newline``."""
        lines = ["", "  "]
        for i in range(n):
            classes = vocab.classes[::-1] if i % 2 else vocab.classes
            lines.append(_grid_record(f"c{i}", rng.random((i + 2, len(vocab))), classes))
            if i == 2:
                lines += ["", " \t "]
        return (newline.join(lines) + newline).encode()

    @staticmethod
    def assert_same_grids(got, expected):
        assert [g.clip_id for g in got] == [g.clip_id for g in expected]
        for a, b in zip(got, expected):
            assert a.hop_seconds == b.hop_seconds
            assert np.array_equal(a.values, b.values)
            assert a.values.strides == b.values.strides
            assert a.values.flags.writeable == b.values.flags.writeable is False

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("k", [2, 3, "every line"])
    def test_same_grids_as_one_range(self, tmp_path, vocab4, rng, monkeypatch, made, newline, k):
        path = tmp_path / "grids.jsonl"
        data = self.dump(vocab4, rng, newline)
        path.write_bytes(data)
        serial = self.parse(monkeypatch, path, vocab4, 1)
        assert made.forks == 0
        line_starts = [0] + [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]
        if k == "every line":  # each byte a cut target, so each line starts a range
            k = len(data)
            assert self.starts(monkeypatch, path, k) == line_starts
        grids = self.parse(monkeypatch, path, vocab4, k)
        self.assert_same_grids(grids, serial)
        # A "\r"-only file has no "\n" to cut after: one range, no fork.
        assert made.forks == (0 if newline == "\r" else min(k, len(line_starts)) - 1)

    @pytest.mark.parametrize(
        "bad, shown",
        [
            pytest.param(b'{"clip_id": "x", nope', "invalid JSON", id="invalid-json"),
            pytest.param(b'{"clip_id": "\xff"}', "not UTF-8: byte", id="not-utf8"),
            pytest.param(_grid_record("x", np.full((2, 4), 1.5)).encode(),
                         "value 1.5 outside [0, 1]", id="cell-out-of-range"),
            pytest.param(_grid_record("x", np.full((2, 2), 0.5), ("Cat", "Dog")).encode(),
                         "does not match vocabulary", id="class-set"),
            pytest.param(_grid_record("c0", np.full((2, 4), 0.5)).encode(),
                         "duplicate clip id 'c0'", id="repeated-clip-id"),
        ],
    )
    @pytest.mark.parametrize("k", [2, 3])
    def test_error_in_later_range_is_the_one_range_error(
        self, tmp_path, vocab4, rng, monkeypatch, made, bad, shown, k
    ):
        path = tmp_path / "grids.jsonl"
        good = self.dump(vocab4, rng, "\n")
        tail = _grid_record("last", rng.random((3, 4))).encode() + b"\n"
        path.write_bytes(good + bad + b"\n" + tail)
        bad_line = good.count(b"\n") + 1
        assert self.starts(monkeypatch, path, k)[-1] <= len(good)
        with pytest.raises(SedfuseError) as serial:
            self.parse(monkeypatch, path, vocab4, 1)
        with pytest.raises(SedfuseError) as sharded:
            self.parse(monkeypatch, path, vocab4, k)
        assert made.forks == k - 1
        assert type(sharded.value) is type(serial.value)
        assert str(sharded.value) == str(serial.value)
        assert f"{path}:{bad_line}: " in str(sharded.value) and shown in str(sharded.value)

    def test_error_in_first_range_kills_the_children(
        self, tmp_path, vocab4, rng, monkeypatch, made
    ):
        # This process fails at line 1 while its children still parse their
        # large ranges: they are killed and reaped, not waited for.
        path = tmp_path / "grids.jsonl"
        big = [_grid_record(f"c{i}", rng.random((4000, 4))) for i in range(3)]
        path.write_text("\n".join(["{nope", *big]) + "\n")
        with pytest.raises(ParseError) as serial:
            self.parse(monkeypatch, path, vocab4, 1)
        with pytest.raises(ParseError) as sharded:
            self.parse(monkeypatch, path, vocab4, 3)
        assert made.forks == 2
        assert str(sharded.value) == str(serial.value)
        assert str(sharded.value).startswith(f"{path}:1: invalid JSON")

    def test_failed_child_falls_back_to_one_range(self, tmp_path, vocab4, rng, monkeypatch, made):
        # A child that fails for a reason other than the data: the whole file is
        # parsed again here, and its grids are returned.
        path = tmp_path / "grids.jsonl"
        path.write_bytes(self.dump(vocab4, rng, "\n"))
        serial = self.parse(monkeypatch, path, vocab4, 1)
        parent, parse_range = os.getpid(), sedfuse.core._parse_grid_range

        def child_exits_3(*args):
            if os.getpid() != parent:
                os._exit(3)
            return parse_range(*args)

        monkeypatch.setattr(sedfuse.core, "_parse_grid_range", child_exits_3)
        self.assert_same_grids(self.parse(monkeypatch, path, vocab4, 2), serial)
        assert made.forks == 1

    @pytest.mark.parametrize(
        "module, name, code",
        [(os, "fork", errno.EAGAIN), (tempfile, "TemporaryFile", errno.ENOSPC)],
        ids=["fork", "TemporaryFile"],
    )
    def test_no_file_or_child_falls_back_to_one_range(
        self, tmp_path, vocab4, rng, monkeypatch, made, module, name, code
    ):
        # The second of three ranges gets no temp file (ENOSPC) or no process
        # (EAGAIN): the first child is killed and the whole file is parsed here.
        path = tmp_path / "grids.jsonl"
        path.write_bytes(self.dump(vocab4, rng, "\n"))
        serial = self.parse(monkeypatch, path, vocab4, 1)
        real, calls = getattr(module, name), []

        def second_fails(*args, **kwargs):
            calls.append(name)
            if len(calls) == 2:
                raise OSError(code, os.strerror(code))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, second_fails)
        self.assert_same_grids(self.parse(monkeypatch, path, vocab4, 3), serial)
        assert len(calls) == 2 and made.forks == 1

    def test_range_floor(self, tmp_path, vocab4, rng, monkeypatch, made):
        # k is at most the file's size in units of _MIN_RANGE_BYTES: a small
        # dump is one range, with no fork, on any number of CPUs.
        path = tmp_path / "grids.jsonl"
        data = self.dump(vocab4, rng, "\n")
        path.write_bytes(data)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        serial, _ = parse_framegrids(path, vocab4)
        assert len(data) < 2 * sedfuse.core._MIN_RANGE_BYTES and made.forks == 0
        for floor, forks in [(len(data) // 2 + 1, 0), (len(data) // 2, 1), (len(data) // 3, 2)]:
            monkeypatch.setattr(sedfuse.core, "_MIN_RANGE_BYTES", floor)
            made.forks = 0
            self.assert_same_grids(parse_framegrids(path, vocab4)[0], serial)
            assert made.forks == forks

    def test_child_leaves_when_the_parent_dies(self, tmp_path, vocab4, rng):
        # A process killed before it reaps its children: a child writes only to
        # its own temp file, so it never waits on the dead process and exits once
        # its range is parsed. Its exit closes the stdout it shares with the dead
        # process, which is how this test sees it.
        path = tmp_path / "grids.jsonl"
        path.write_text("\n".join(_grid_record(f"c{i}", rng.random((4000, 4))) for i in range(2)))
        script = f"""
import os, signal, sys
sys.path.insert(0, {SRC_DIR!r})
import sedfuse.core as core
parent, real_fork, parse_range = os.getpid(), os.fork, core._parse_grid_range
def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid
def parse_range_or_die(*args):
    if os.getpid() == parent:  # the first range: die before reaping any child
        os.kill(parent, signal.SIGKILL)
    return parse_range(*args)
os.fork, core._parse_grid_range = fork, parse_range_or_die
os.sched_getaffinity = lambda pid: {{0, 1}}
core._MIN_RANGE_BYTES = 1
core.parse_framegrids(sys.argv[1], core.ClassVocabulary({vocab4.classes!r}))
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        with proc:
            assert proc.wait(timeout=60) == -signal.SIGKILL
            child = int(proc.stdout.readline())
            readable, _, _ = select.select([proc.stdout], [], [], 30)
            if not readable:
                os.kill(child, signal.SIGKILL)
                pytest.fail("the child did not exit")
            assert proc.stdout.read() == b""

    def test_vocabulary_from_the_first_record(self, tmp_path, rng, monkeypatch, made):
        # A dump of 2 MiB on 2 CPUs is parsed in two ranges: the vocabulary,
        # read before the fork, is the first record's, in its order.
        first = FOUR[::-1]
        lines = [_grid_record(f"c{i}", rng.random((4000, 4)), FOUR if i else first)
                 for i in range(8)]
        path = tmp_path / "grids.jsonl"
        path.write_text("\n" + "\n".join(lines) + "\n")
        assert path.stat().st_size >= 2 * sedfuse.core._MIN_RANGE_BYTES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grids, vocab = parse_framegrids(path)
        assert vocab.classes == first and made.forks == 1
        expected, given = parse_framegrids(path, ClassVocabulary(first))
        assert given == vocab
        self.assert_same_grids(grids, expected)

    def test_fifo(self, tmp_path, vocab4, rng, monkeypatch, made):
        data = self.dump(vocab4, rng, "\n")
        path = tmp_path / "grids.jsonl"
        path.write_bytes(data)
        fifo = tmp_path / "grids.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            grids = self.parse(monkeypatch, fifo, vocab4, 2)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert made.forks == 0
        self.assert_same_grids(grids, self.parse(monkeypatch, path, vocab4, 1))


class TestNotUTF8:
    """A byte that is not UTF-8 is a ParseError at its line, in every text format."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_events_line(self, tmp_path, newline):
        path = tmp_path / "events.tsv"
        rows = ["filename\tonset\toffset\tevent_label", "c\t0.0\t1.0\tCat", "c\t1.0\t2.0\tDog"]
        path.write_bytes(newline.join(rows).encode() + newline.encode() + b"c\xff\t0.0\t1.0\tCat\n")
        with pytest.raises(ParseError) as err:
            parse_events(path)
        assert err.value.line_no == 4

    def test_grids_line(self, tmp_path, vocab4, rng):
        path = tmp_path / "grids.jsonl"
        write_framegrids([FrameGrid("c", 0.1, rng.random((3, 4)))], vocab4, path)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe{}\n")
        with pytest.raises(ParseError) as err:
            parse_framegrids(path, vocab4)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_grids_line_ends(self, tmp_path, vocab4, rng, monkeypatch, newline, k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(sedfuse.core, "_MIN_RANGE_BYTES", 1)
        path = tmp_path / "grids.jsonl"
        rows = [_grid_record(f"c{i}", rng.random((3, 4))).encode() for i in range(3)]
        path.write_bytes(newline.encode().join([*rows, b"\xff{}", b""]))
        with pytest.raises(ParseError) as err:
            parse_framegrids(path, vocab4)
        assert err.value.line_no == 4

    def test_weak_labels_and_json_config(self, tmp_path, vocab4):
        weak = tmp_path / "weak.tsv"
        weak.write_bytes(b"filename\tevent_labels\n\xe9\tCat\n")
        with pytest.raises(ParseError) as err:
            parse_weak_labels(weak, vocab4)
        assert err.value.line_no == 2
        config = tmp_path / "config.json"
        config.write_bytes(b'{"default_threshold":\n 0.5\xff}')
        with pytest.raises(ParseError) as err:
            PostProcessConfig.load(config, vocab4)
        assert err.value.line_no == 2


class TestTagsJSONL:
    def test_round_trip(self, tmp_path, vocab4, rng):
        tags = [
            TagPrediction(
                f"s{i}",
                "m1",
                {name: float(p) for name, p in zip(vocab4.with_other(), rng.random(5))},
            )
            for i in range(4)
        ]
        path = tmp_path / "tags.jsonl"
        write_tags(tags, vocab4, path)
        back, _ = parse_tags(path, vocab4)
        assert back == tags

    def test_vocabulary_from_the_first_record(self, tmp_path, vocab4):
        path = tmp_path / "tags.jsonl"
        probs = {"other": 0.1, "Speech": 0.2, "Cat": 0.3, "Dog": 0.4, "Dishes": 0.5}
        path.write_text("".join(
            json.dumps({"source_id": s, "parent_clip_id": "m1", "probs": probs}) + "\n"
            for s in ("s0", "s1")
        ))
        tags, vocab = parse_tags(path)
        assert vocab.classes == ("Speech", "Cat", "Dog", "Dishes")
        assert [tag.source_id for tag in tags] == ["s0", "s1"]
        assert parse_tags(path, vocab4)[1] is vocab4

    def test_no_records(self, tmp_path, vocab4):
        path = tmp_path / "tags.jsonl"
        path.write_text("\n \n")
        with pytest.raises(ValidationError) as err:
            parse_tags(path)
        assert str(err.value) == f"{path}: no records"
        assert parse_tags(path, vocab4) == ([], vocab4)

    def test_missing_other(self, tmp_path, vocab4):
        path = tmp_path / "tags.jsonl"
        path.write_text(
            '{"source_id":"s1","parent_clip_id":"m1","probs":{"Cat":0.5,"Dog":0.1,"Dishes":0.1,"Speech":0.1}}\n'
        )
        with pytest.raises(VocabularyError):
            parse_tags(path, vocab4)

    def test_probs_must_be_an_object_of_numbers(self, tmp_path, vocab4):
        path = tmp_path / "tags.jsonl"
        for probs in ('[0.5, 0.5]', '{"Cat": "high"}'):
            path.write_text(f'{{"source_id":"s1","parent_clip_id":"m1","probs":{probs}}}\n')
            with pytest.raises(ParseError, match="'probs'"):
                parse_tags(path, vocab4)

    def test_probability_range(self):
        with pytest.raises(ValidationError):
            TagPrediction("s", "m", {"Cat": 1.5})


class TestManifestJSONL:
    def test_round_trip(self, tmp_path):
        manifest = SeparationManifest(
            {"m1": ("m1_a", "m1_b"), "m2": ("m2_a", "m2_b")}
        )
        path = tmp_path / "sep_manifest.jsonl"
        write_manifest(manifest, path)
        assert parse_manifest(path).sources == manifest.sources

    def test_duplicate_mixture(self, tmp_path):
        path = tmp_path / "sep_manifest.jsonl"
        path.write_text(
            '{"mixture_id":"m1","sources":["a"]}\n{"mixture_id":"m1","sources":["b"]}\n'
        )
        with pytest.raises(ParseError):
            parse_manifest(path)

    def test_typed_fields(self, tmp_path):
        path = tmp_path / "sep_manifest.jsonl"
        for record in ('{"mixture_id":"m1","sources":"ab"}', '{"mixture_id":["m1"],"sources":[]}'):
            path.write_text(record + "\n")
            with pytest.raises(ParseError) as err:
                parse_manifest(path)
            assert err.value.line_no == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "sep_manifest.jsonl"
        path.write_text("")
        assert len(parse_manifest(path)) == 0


F64 = np.float64
GRID = FrameGrid("c", 0.1, np.full((2, 2), 0.5))
TAG = TagPrediction("s", "m", {"a": 0.5, "other": 0.5})
F1_TABLE = ClassF1Table(("m1", "m2"), ("a",), [[0.5], [0.6]])


@pytest.mark.parametrize(
    "raise_it, shown",
    [
        pytest.param(lambda: PostProcessConfig(default_threshold=F64(1.5)), "threshold 1.5",
                     id="decode-threshold"),
        pytest.param(lambda: PostProcessConfig(default_median_window=np.int64(4)),
                     "median window 4 must", id="decode-window"),
        pytest.param(lambda: PostProcessConfig(default_median_window=F64(7.0)),
                     "median window 7.0 must", id="decode-float-window"),
        pytest.param(lambda: PostProcessConfig(default_median_window="7"),
                     "median window '7' must", id="decode-string-window"),
        pytest.param(lambda: combine_pair(GRID, GRID, F64(1.5)), "alpha 1.5", id="pair-alpha"),
        pytest.param(lambda: classwise_weights(F1_TABLE, F64("nan")), "got nan",
                     id="classwise-beta"),
        pytest.param(lambda: CollarConfig(onset_collar=F64(-0.5)), "collar value -0.5",
                     id="collar"),
        pytest.param(lambda: PSDSConfig(gtc=F64(1.5)), "gtc=1.5", id="psds-gtc"),
        pytest.param(lambda: PseudoLabel(Verdict.OTHER, F64(1.5)), "confidence 1.5",
                     id="spl-confidence"),
        pytest.param(lambda: assign_pseudo_label(TAG, F64(1.5), ClassVocabulary(("a",))),
                     "tau 1.5", id="spl-tau"),
        pytest.param(lambda: ModelSkill((F64(1.5),), (0.0,), (0,), (1.0,)), "rate 1.5",
                     id="synth-rate"),
        pytest.param(lambda: SeparationSkill(clean=F64(1.5)), "probability 1.5",
                     id="synth-probability"),
        pytest.param(lambda: TagPrediction("s", "m", {"a": F64(1.5)}), "probability 1.5",
                     id="tag-probability"),
    ],
)
def test_messages_print_numpy_numbers_plainly(raise_it, shown):
    with pytest.raises(ValidationError) as err:
        raise_it()
    assert shown in str(err.value)
    assert "np." not in str(err.value)
