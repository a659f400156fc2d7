"""Mutation fuzz of the data readers: a valid grid dump, tag file, separation
manifest, event table or weak-label table with a byte flipped, cut short, a
field deleted or a field given a value of another type. Every parser succeeds
or raises ``SedfuseError``; the sharded grid parse and a parse through a FIFO
give the one-range parse's grids or error; a grid dump reads as on the JSON
path, with no line decoded by ``core._grid_values``; the CLI exits 0 or 2,
never 1, and an exit of 2 names an input."""

import contextlib
import copy
import io
import json
import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sedfuse import core
from sedfuse.cli import main
from sedfuse.core import ClassVocabulary, ParseError, SedfuseError

REPLACEMENTS = [None, True, 0, -1, 0.5, 1e308, "x", [], [1], [[0.5, "x"]], {}]


def _encode(lines) -> bytes:
    """One line per item: a dict as compact JSON, a string as it is."""
    return "".join(
        (json.dumps(line, separators=(",", ":")) if isinstance(line, dict) else line) + "\n"
        for line in lines
    ).encode()


@st.composite
def mutants(draw, lines, fields):
    """The bytes of ``lines`` with one byte flipped, cut short, or one of ``fields``
    deleted or (in a JSON record) given a value of another type. A TSV's fields
    are its header's column names."""
    tsv = isinstance(lines[0], str)
    how = draw(st.sampled_from(["flip", "truncate", "delete"] + ([] if tsv else ["retype"])))
    if how in ("flip", "truncate"):
        data = bytearray(_encode(lines))
        at = draw(st.integers(0, len(data) - 1))
        if how == "truncate":
            return bytes(data[:at])
        data[at] ^= draw(st.integers(1, 255))
        return bytes(data)
    lines = copy.deepcopy(lines)
    key = draw(st.sampled_from(sorted(fields)))
    if tsv:
        lines[0] = "\t".join(name for name in lines[0].split("\t") if name != key)
    else:
        record = lines[draw(st.integers(0, len(lines) - 1))]
        if how == "delete":
            del record[key]
        else:
            record[key] = draw(st.sampled_from(REPLACEMENTS))
    return _encode(lines)


def _grid_records() -> list[dict]:
    """Five grids of 2 to 6 frames, every other one with its columns reversed."""
    rng = np.random.default_rng(5)
    classes = ["a", "b", "c"]
    return [
        {"clip_id": f"c{i}", "hop_seconds": 0.1, "classes": classes[::-1] if i % 2 else classes,
         "posteriors": rng.random((i + 2, 3)).round(3).tolist()}
        for i in range(5)
    ]


GRIDS = _grid_records()
LAST_WITHOUT_POSTERIORS = _encode(GRIDS[:-1] + [{**GRIDS[-1], "posteriors": None}])


def _parsed(path, vocab, cpus):
    """The vocabulary and grids of ``path`` parsed on ``cpus`` CPUs in ranges of
    any size, or the type and message of its error."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True), \
            mock.patch.object(core, "_MIN_RANGE_BYTES", 1):
        try:
            grids, got = core.parse_framegrids(path, vocab)
        except SedfuseError as exc:
            return type(exc), str(exc)
    return got.classes, [(g.clip_id, g.hop_seconds, g.values.tolist()) for g in grids]


class TestGridMutations:
    """On 3 CPUs a mutated dump is cut into 3 byte ranges, whose later ones are
    parsed in children; a child's error makes the whole dump be parsed again
    here. That no process or fd is left behind is checked after the test."""

    @settings(max_examples=60, deadline=None)
    @given(data=mutants(GRIDS, core.GRID_FIELDS), given_vocab=st.booleans())
    @example(data=LAST_WITHOUT_POSTERIORS, given_vocab=False)  # fails in the last child
    def test_three_cpus_as_one(self, tmp_path_factory, data, given_vocab):
        path = tmp_path_factory.getbasetemp() / "mutated_grids.jsonl"
        path.write_bytes(data)
        vocab = ClassVocabulary(("a", "b", "c")) if given_vocab else None
        assert _parsed(path, vocab, 3) == _parsed(path, vocab, 1)


def _oracle_records() -> list[dict]:
    """Four grids of full-precision cells with one of 0.0, 1.0, -0.0 and 1e-05
    each, every other one with its columns reversed."""
    rng = np.random.default_rng(6)
    classes = ["a", "b", "c"]
    records = []
    for i, special in enumerate((0.0, 1.0, -0.0, 1e-05)):
        values = rng.random((i + 2, 3))
        values[-1, i % 3] = special
        records.append({"clip_id": f"c{i}", "hop_seconds": 0.1,
                        "classes": classes[::-1] if i % 2 else classes,
                        "posteriors": values.tolist()})
    return records


ORACLE_GRIDS = _oracle_records()
# Valid JSON cells outside the writer's form, and whether the decoder reads a
# line that holds one (else the line is read whole by json).
JSON_CELLS = {
    "1E-5": True, "1": True, "-0.0": True, "0.50000": True, "0.123456789012345678": True,
    "0.1234567890123456789012345": True, "1e400": True, "1" + "0" * 400: False,
    " 0.5": False, "0.5 ": False, "NaN": False,
}


def _with_cell(line: bytes, at: int, cell: bytes) -> bytes:
    """A grid line with the ``at``-th cell of its posteriors written as ``cell``."""
    head, cells = line.split(b'"posteriors":')
    tokens = cells.split(b",")
    tokens[at] = tokens[at].replace(tokens[at].strip(b"[]}\n"), cell, 1)
    return head + b'"posteriors":' + b",".join(tokens)


@st.composite
def json_forms(draw):
    """The oracle dump with one cell written as one of ``JSON_CELLS``, with a
    space after the commas or between the rows of a line, or with "\r\n" line
    ends."""
    data = _encode(ORACLE_GRIDS)
    how = draw(st.sampled_from(["cell", "comma", "row", "crlf"]))
    if how == "crlf":
        return data.replace(b"\n", b"\r\n")
    lines = data.splitlines(keepends=True)
    k = draw(st.integers(0, len(lines) - 1))
    if how == "cell":
        cell = draw(st.sampled_from(sorted(JSON_CELLS))).encode()
        cells = lines[k].split(b'"posteriors":')[1].count(b",")
        lines[k] = _with_cell(lines[k], draw(st.integers(0, cells)), cell)
    else:
        head, cells = lines[k].split(b'"posteriors":')
        old, new = {"comma": (b",", b", "), "row": (b"],[", b"], [")}[how]
        lines[k] = head + b'"posteriors":' + cells.replace(old, new)
    return b"".join(lines)


def _read(path, vocab, json_path):
    """The vocabulary and grids of ``path``, the cells as bits, or the type and
    message of its error. On the JSON path ``_grid_values`` decodes nothing,
    so each line is read by json, its cells type-checked and made an array by
    numpy."""
    decode = (lambda texts: [None] * len(texts)) if json_path else core._grid_values
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True), \
            mock.patch.object(core, "_grid_values", decode):
        try:
            grids, got = core.parse_framegrids(path, vocab)
        except SedfuseError as exc:
            return type(exc), str(exc)
    return got.classes, [(g.clip_id, g.hop_seconds, g.values.shape,
                          g.values.view(np.uint64).tolist()) for g in grids]


class TestGridOracle:
    """A mutated dump, or one with valid JSON cells outside the writer's form,
    reads as on the JSON path: the same grids, bit for bit, or the same error."""

    @settings(max_examples=120, deadline=None)
    @given(data=mutants(ORACLE_GRIDS, core.GRID_FIELDS) | json_forms(), given_vocab=st.booleans())
    def test_as_the_json_path(self, tmp_path_factory, data, given_vocab):
        path = tmp_path_factory.getbasetemp() / "oracle_grids.jsonl"
        path.write_bytes(data)
        vocab = ClassVocabulary(("a", "b", "c")) if given_vocab else None
        assert _read(path, vocab, False) == _read(path, vocab, True)

    @pytest.mark.parametrize("cell", sorted(JSON_CELLS))
    def test_json_cells(self, tmp_path, cell):
        # The second cell of the first line is ``cell``: the decoder reads the
        # line, or leaves it to json, as ``JSON_CELLS`` says.
        lines = _encode(ORACLE_GRIDS).splitlines(keepends=True)
        lines[0] = _with_cell(lines[0], 1, cell.encode())
        path = tmp_path / "grids.jsonl"
        path.write_bytes(b"".join(lines))
        assert _read(path, None, False) == _read(path, None, True)
        text = lines[0].decode().split('"posteriors":')[1].rstrip()[:-1]
        assert (core._grid_values([text])[0] is not None) == JSON_CELLS[cell]


def _feed(fifo, data):
    """Write ``data`` into ``fifo``; a reader that stops early breaks the pipe."""
    try:
        with open(fifo, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:
        pass


class TestFifoGridMutations:
    """A mutated dump read through a FIFO, at the path where the same bytes were
    a regular file, gives that file's grids or error. The writer thread is
    joined before each example ends."""

    @settings(max_examples=30, deadline=None)
    @given(data=mutants(GRIDS, core.GRID_FIELDS), given_vocab=st.booleans())
    def test_fifo_as_regular_file(self, tmp_path_factory, data, given_vocab):
        path = tmp_path_factory.getbasetemp() / "mutated_fifo.jsonl"
        vocab = ClassVocabulary(("a", "b", "c")) if given_vocab else None
        path.write_bytes(data)
        expected = _parsed(path, vocab, 1)
        path.unlink()
        os.mkfifo(path)
        writer = threading.Thread(target=_feed, args=(path, data), daemon=True)
        writer.start()
        try:
            got = _parsed(path, vocab, 3)
        finally:
            writer.join(timeout=10)
            path.unlink()
        assert not writer.is_alive() and got == expected


VOCAB = ClassVocabulary(("a", "b"))
SOURCES = {f"c{i}": [f"c{i}_s{j}" for j in range(2)] for i in range(3)}
BASES = {
    "tags": ([{"source_id": source, "parent_clip_id": clip,
               "probs": {"a": 0.25 * j, "b": 0.5, "other": 1.0 - 0.25 * j}}
              for clip, sources in SOURCES.items() for j, source in enumerate(sources)],
             core.TAG_FIELDS),
    "manifest": ([{"mixture_id": clip, "sources": sources} for clip, sources in SOURCES.items()],
                 core.MANIFEST_FIELDS),
    "weak": (["\t".join(core.WEAK_HEADER), "c0\ta,b", "c1\tb", "c2\ta"], core.WEAK_HEADER),
    "events": (["\t".join(core.EVENTS_HEADER), "c0\t0.0\t1.5\ta", "c0\t1.0\t2.0\tb",
                "c1\t0.5\t2.5\tb", "c2\t0.25\t0.75\ta"], core.EVENTS_HEADER),
}
PARSERS = {
    "tags": core.parse_tags,
    "manifest": core.parse_manifest,
    "weak": lambda path: core.parse_weak_labels(path, VOCAB),
    "events": core.parse_events,
}


@st.composite
def reader_mutants(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    return name, draw(mutants(*BASES[name]))


class TestSmallReaderMutations:
    """One of the four small inputs mutated: its parser succeeds or raises
    ``SedfuseError``, and ``spl`` (tags, manifest, weak labels) or
    ``score --est`` (events) exits 0, or 2 with the parser's error, which
    names the file and, for an error of one line, ``path:line``. Every exit
    of 2 names one of the run's inputs."""

    @settings(max_examples=120, deadline=None)
    @given(mutant=reader_mutants())
    def test_exits_0_or_2(self, mutant):
        name, data = mutant
        with tempfile.TemporaryDirectory() as work:
            files = {key: Path(work, key) for key in BASES}
            for key, path in files.items():
                path.write_bytes(data if key == name else _encode(BASES[key][0]))
            try:
                PARSERS[name](files[name])
                error = None
            except SedfuseError as exc:
                error = exc
            if name == "events":
                argv = ["score", "--ref", Path(work, "ref"), "--est", files["events"],
                        "--metric", "f1"]
                Path(work, "ref").write_bytes(_encode(BASES["events"][0]))
            else:
                argv = ["spl", "--tags", files["tags"], "--weak", files["weak"],
                        "--manifest", files["manifest"]]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([str(arg) for arg in argv + ["--out", Path(work, "out")]])
        err = err.getvalue()
        assert rc in (0, 2) and "Traceback" not in err, err
        if rc == 2:
            assert any(str(arg) in err for arg in argv if isinstance(arg, Path)), err
        if error is not None:
            assert rc == 2 and f"error: {error}" in err, err
            assert str(files[name]) in err
            if isinstance(error, ParseError):
                assert f"{files[name]}:{error.line_no}: " in err
