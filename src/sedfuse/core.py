"""Shared domain types, validation, and file I/O for every pipeline artifact.

Five on-disk formats move data between stages:

* ``events.tsv``        strong labels / decoded detections (4-column TSV)
* ``weak.tsv``          clip-level label sets (2-column TSV, comma-joined)
* ``grids.jsonl``       per-clip frame posteriors, one JSON object per line
* ``tags.jsonl``        clip-level tag probabilities per separated source
* ``sep_manifest.jsonl`` mixture -> ordered source ids

Parsing is strict: malformed rows and out-of-vocabulary labels raise
immediately instead of being coerced or skipped, so label drift cannot
pass silently. All values are immutable after construction and safe to
share across threads. Floats are serialized with the text ``repr`` gives,
a grid's cells from the array encoder, so every write/parse round trip is
value-exact. Grid dumps are encoded and parsed on
every CPU of the process's affinity mask: ``write_framegrids`` deals the
grids in shards and ``reduce_framegrids`` the file in byte ranges
(``_blocks``), and ``_dealt`` forks one child per later part. Each child
streams its items back through an unnamed temp file (``_forking``), and the
bytes, grids and errors are those of one serial pass. A parse keeps of each
block of grids what its caller's reduce makes of it: ``parse_framegrids``
the grids, ``decode.read_reduced`` their runs and PSDS levels, so a dump
can be scored without holding its floats. Every input
is read once, so a pipe or FIFO reads as a regular file.
Every file is written to a temp file and renamed, with the mode a plain
``open`` would give it.

Each format has one owner: ``_json_lines`` encodes every JSONL record (also
``spl``'s selection), ``_grid_texts`` the posteriors of grid records, all of
their cells at once, ``write_json`` writes every indented JSON document, and
``_located`` puts the file or ``path:line`` at fault before a ``ValidationError``.
``_records`` reads every JSONL record; it hands the posteriors of a grid line
to ``_grid_values``, which decodes those of consecutive lines at once and
proves each cell exact with the encoder's own kernel (``_scaled``), and any
line the decoder does not take is read whole by ``json.loads``, so every
value and every error is json's. ``_json_object`` alone makes a ``ParseError``
of a record's or a document's text that json cannot read or that is no object.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import numbers
import os
import pickle
import signal
import stat
import sys
import tempfile
from dataclasses import dataclass, field
from typing import (
    IO, Callable, ClassVar, Iterable, Iterator, Mapping, Sequence, TypeVar,
)

import numpy as np


class SedfuseError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SedfuseError):
    """A domain invariant was violated."""


class VocabularyError(ValidationError):
    """A class name is unknown or a class set does not match the vocabulary."""


class ParseError(SedfuseError):
    """A file could not be parsed; carries the path and offending line."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


# Class names and clip ids are embedded in TSV and comma-joined fields.
_FORBIDDEN_NAME_CHARS = ("\t", "\n", "\r", ",")
_FORBIDDEN_ID_CHARS = ("\t", "\n", "\r")

EVENTS_HEADER = ("filename", "onset", "offset", "event_label")
WEAK_HEADER = ("filename", "event_labels")


def _check_name(name: str, kind: str) -> None:
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{kind} must be a non-empty string, got {name!r}")
    bad = _FORBIDDEN_NAME_CHARS if kind == "class name" else _FORBIDDEN_ID_CHARS
    for ch in bad:
        if ch in name:
            raise ValidationError(f"{kind} {name!r} contains forbidden character {ch!r}")


def fmt_float(x: float) -> str:
    """Shortest decimal string that parses back to the exact same float."""
    return repr(float(x))


@dataclass(frozen=True)
class ClassVocabulary:
    """Ordered set of target class names plus the reserved non-target label."""

    classes: tuple[str, ...]
    other_label: ClassVar[str] = "other"

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if len(self.classes) < 1:
            raise ValidationError("vocabulary needs at least one class")
        for name in self.classes:
            _check_name(name, "class name")
        if len(set(self.classes)) != len(self.classes):
            raise ValidationError("class names must be unique")
        if self.other_label in self.classes:
            raise ValidationError(
                f"reserved label {self.other_label!r} must not be a target class"
            )

    def __len__(self) -> int:
        return len(self.classes)

    def __contains__(self, name: str) -> bool:
        return name in self.classes

    def index(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise VocabularyError(f"unknown class {name!r}") from None

    def with_other(self) -> tuple[str, ...]:
        """Target classes followed by the reserved non-target label."""
        return self.classes + (self.other_label,)


@dataclass(eq=False)
class _Grid:
    """One clip's T x C matrix. Columns follow the :class:`ClassVocabulary`
    order of the run that produced the grid; the grid itself stores no names."""

    clip_id: str
    hop_seconds: float
    values: np.ndarray

    def _set_values(self, arr: np.ndarray, what: str) -> None:
        """Check the clip id, the hop and the shape of ``arr``, then hold it read-only."""
        _check_name(self.clip_id, "clip id")
        if not (0.0 < float(self.hop_seconds) < np.inf):
            raise ValidationError(f"{self.clip_id}: hop_seconds must be finite and > 0")
        self.hop_seconds = float(self.hop_seconds)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"{self.clip_id}: {what} matrix must be 2-D and non-empty")
        arr.setflags(write=False)
        self.values = arr

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


def _check_columns(grid: _Grid, vocab: ClassVocabulary) -> None:
    if grid.n_classes != len(vocab):
        raise ValidationError(
            f"{grid.clip_id}: grid has {grid.n_classes} columns, vocabulary has {len(vocab)}"
        )


@dataclass(eq=False)
class FrameGrid(_Grid):
    """One clip's frame-level class posteriors, each in [0, 1]."""

    def __post_init__(self):
        self._set_values(np.array(self.values, dtype=np.float64, copy=True), "posterior")
        bad = ~((self.values >= 0.0) & (self.values <= 1.0))
        if bad.any():
            t, c = np.argwhere(bad)[0]
            raise ValidationError(
                f"{self.clip_id}: frame {t}, class column {c}: "
                f"value {fmt_float(self.values[t, c])} outside [0, 1]"
            )

    @property
    def duration_seconds(self) -> float:
        return self.n_frames * self.hop_seconds


@dataclass(eq=False)
class BinaryGrid(_Grid):
    """Thresholded frame activity, same layout as the grid it came from."""

    def __post_init__(self):
        arr = np.array(self.values, copy=True)
        self._set_values(arr, "binary")
        if arr.dtype != np.bool_:
            raise ValidationError(f"{self.clip_id}: binary grid must be boolean")


@dataclass(frozen=True)
class Event:
    """A single labeled interval: (clip, onset, offset, class)."""

    clip_id: str
    onset: float
    offset: float
    event_label: str

    def __post_init__(self):
        _check_name(self.clip_id, "clip id")
        _check_name(self.event_label, "class name")
        onset = float(self.onset)
        offset = float(self.offset)
        if not (np.isfinite(onset) and np.isfinite(offset)):
            raise ValidationError(f"{self.clip_id}: non-finite event time")
        if onset < 0.0:
            raise ValidationError(f"{self.clip_id}: onset {onset} < 0")
        if not onset < offset:
            raise ValidationError(
                f"{self.clip_id}: onset {onset} must be strictly before offset {offset}"
            )
        object.__setattr__(self, "onset", onset)
        object.__setattr__(self, "offset", offset)


@dataclass
class EventList:
    """Ordered list of events (strong labels or decoded detections)."""

    events: list[Event] = field(default_factory=list)

    def __post_init__(self):
        self.events = list(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def validate_vocab(self, vocab: ClassVocabulary) -> None:
        for ev in self.events:
            if ev.event_label not in vocab:
                raise VocabularyError(
                    f"{ev.clip_id}: unknown class {ev.event_label!r}"
                )

    def by_clip(self) -> dict[str, list[Event]]:
        out: dict[str, list[Event]] = {}
        for ev in self.events:
            out.setdefault(ev.clip_id, []).append(ev)
        return out

    def label_set(self) -> set[str]:
        return {ev.event_label for ev in self.events}


@dataclass
class WeakLabelSet:
    """Clip-level class presence without timestamps."""

    labels: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        self.labels = {k: frozenset(v) for k, v in self.labels.items()}
        for clip_id, classes in self.labels.items():
            _check_name(clip_id, "clip id")
            if not classes:
                raise ValidationError(f"{clip_id}: weak label set must be non-empty")

    def __getitem__(self, clip_id: str) -> frozenset[str]:
        return self.labels[clip_id]


@dataclass
class TagPrediction:
    """Clip-level tag probabilities for one separated source.

    ``probs`` covers every vocabulary class plus the reserved non-target
    label.
    """

    source_id: str
    parent_clip_id: str
    probs: dict[str, float]

    def __post_init__(self):
        _check_name(self.source_id, "clip id")
        _check_name(self.parent_clip_id, "clip id")
        self.probs = {str(k): float(v) for k, v in self.probs.items()}
        for name, p in self.probs.items():
            if not (0.0 <= p <= 1.0):
                raise ValidationError(
                    f"{self.source_id}: probability {fmt_float(p)} for {name!r} outside [0, 1]"
                )

    def validate_vocab(self, vocab: ClassVocabulary) -> None:
        expected = set(vocab.with_other())
        got = set(self.probs)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise VocabularyError(
                f"{self.source_id}: tag classes do not match vocabulary "
                f"(missing {missing}, unexpected {extra})"
            )


@dataclass
class SeparationManifest:
    """Mixture clip id -> ordered source ids, fixed source count per run."""

    sources: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        self.sources = {k: tuple(v) for k, v in self.sources.items()}
        counts = {len(v) for v in self.sources.values()}
        if len(counts) > 1:
            raise ValidationError(
                f"source count must be identical across mixtures, got {sorted(counts)}"
            )
        seen: set[str] = set()
        for mixture_id, source_ids in self.sources.items():
            _check_name(mixture_id, "clip id")
            for sid in source_ids:
                _check_name(sid, "clip id")
                if sid in seen:
                    raise ValidationError(f"duplicate source id {sid!r}")
                seen.add(sid)

    @property
    def n_sources(self) -> int:
        if not self.sources:
            return 0
        return len(next(iter(self.sources.values())))

    def __len__(self) -> int:
        return len(self.sources)


# ---------------------------------------------------------------------------
# Reading text files
# ---------------------------------------------------------------------------


# A file is read in blocks of this many bytes, so no dump is held whole.
_READ_BLOCK = 1 << 20


def _line_chunks(fd: int, start: int, end: int | None) -> Iterator[bytes]:
    r"""Bytes ``[start, end)`` of ``fd`` in chunks that each end just after a
    ``\n``, the last one excepted. ``end`` None reads on to the end in order
    (a FIFO); otherwise each block is read at its offset, so forked processes
    can read one open file at once."""
    pending: list[bytes] = []  # read since the last "\n"
    while end is None or start < end:
        if end is None:
            block = os.read(fd, _READ_BLOCK)
        else:
            block = os.pread(fd, min(_READ_BLOCK, end - start), start)
        if not block:
            break
        start += len(block)
        cut = block.rfind(b"\n") + 1
        if cut:
            pending.append(block[:cut])
            yield b"".join(pending)
            pending = []
        pending.append(block[cut:])
    yield b"".join(pending)


def _text_lines(
    path: str | os.PathLike, fd: int, start: int, end: int | None
) -> Iterator[tuple[int, str]]:
    r"""The number (1 at ``start``) and text of each line of bytes ``[start, end)``.

    As in text mode, a line ends at ``\n``, ``\r\n`` or ``\r`` and is given
    with that end made ``\n``; the last line may have none. A byte that is not
    UTF-8 raises ``ParseError`` at its line once the lines before it are
    given, so errors come in line order and the first error of a range is the
    first of its lines, whatever the block size. Every text format is read
    through this one reader.
    """
    line_no, offset = 1, start
    for chunk in _line_chunks(fd, start, end):
        try:
            text, bad = chunk.decode("utf-8"), None
        except UnicodeDecodeError as exc:
            bad = exc
            head = chunk[: exc.start]
            text = chunk[: max(head.rfind(b"\n"), head.rfind(b"\r")) + 1].decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        at = 0
        while end_at := text.find("\n", at) + 1:
            yield line_no, text[at:end_at]
            line_no, at = line_no + 1, end_at
        if bad is not None:
            raise ParseError(
                path, line_no, f"not UTF-8: byte {offset + bad.start} ({bad.reason})"
            )
        if at < len(text):  # only the last chunk has text after its last line end
            yield line_no, text[at:]
        offset += len(chunk)


@contextlib.contextmanager
def _lines(path: str | os.PathLike) -> Iterator[Iterator[tuple[int, str]]]:
    """The file's lines (``_text_lines``); the caller's ``with`` closes it, even on a raise."""
    with open(path, "rb") as fh:
        yield _text_lines(path, fh.fileno(), 0, None)


# ---------------------------------------------------------------------------
# Atomic file writing
# ---------------------------------------------------------------------------


def atomic_write_text(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Write via a temp file in the target directory, then rename.

    ``text`` is a string or an iterable of strings, written one at a time.
    The file gets the mode a plain ``open`` would give it (``mkstemp``
    alone would make it 0600 whatever the umask).
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            umask = os.umask(0o077)  # the umask is read by setting it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_line(record: Mapping) -> str:
    """A JSONL record: compact JSON and its line end (``_json_lines``)."""
    return next(_json_lines([record]))


def _json_lines(records: Sequence[Mapping]) -> Iterator[str]:
    """Each record as a JSONL line: compact JSON and its line end. An array
    field, a grid's ``posteriors``, is written by ``_grid_texts``: the text
    ``json.dumps`` gives its ``tolist()``, found for every cell at once, and
    for the small arrays of consecutive records together."""
    texts = _grid_texts([value for record in records for value in record.values()
                         if isinstance(value, np.ndarray)])
    for record in records:
        if not any(isinstance(value, np.ndarray) for value in record.values()):
            yield json.dumps(record, separators=(",", ":")) + "\n"
            continue
        yield "{" + ",".join(
            json.dumps(key) + ":" + (
                next(texts) if isinstance(value, np.ndarray)
                else json.dumps(value, separators=(",", ":"))
            )
            for key, value in record.items()
        ) + "}\n"


# ``_grid_texts`` writes a cell 1e-4 <= x < 1 in fixed notation from the
# shortest digits that round to it, found by Schubfach (R. Giulietti, "The
# Schubfach way to render doubles", 2020) in uint64 arithmetic. Every other
# cell (0.0, -0.0, 1.0, a power of two, x < 1e-4) takes ``repr``.
#
# Such an x is c * 2**q, with c its 53-bit significand and q = e - 1075 for
# its biased exponent e in [1009, 1022], and its text is "0." and the digits
# of D * 10**-m, for m in [16, 20] the least with 10**m >= 2**-q and D < 10**17
# the shortest decimal in x's rounding interval. The tables below, indexed by
# the sign and exponent bits, hold for each e: g = 5**m scaled into
# [2**62, 2**63), exact since 5**20 < 2**47; the shift s for which
# ((2c << s) * g) >> 64 is 4 * x * 10**m; the first word of the cell's text;
# and m. The entries of other exponents only keep the arithmetic in range, and
# their m is 0.
_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_FRACTION = _U((1 << 52) - 1)


def _word(text: bytes) -> int:
    """Up to 8 bytes of text as one little-endian word, padded with NULs."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _exponent_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    g = np.zeros(4096, np.uint64)
    shift = np.full(4096, 2, np.uint64)
    head = np.zeros(4096, np.uint64)
    scale = np.zeros(4096, np.intp)
    for e in range(1009, 1023):
        q = e - 1075
        m = scale[e] = next(m for m in itertools.count() if 10 ** m >= 2 ** -q)
        bits = (5 ** m).bit_length()
        g[e] = 5 ** m << (63 - bits)
        shift[e] = q + m + bits + 2
        # A separator byte, a NUL, "0.", the m - 17 zeros after the point and
        # "0" for D's first digit of 17; with m = 16, D < 10**16 and that
        # first digit, a 0, is not written.
        head[e] = _word(b"\0\0" + b"0." + b"\0" * (20 - m) + b"0" * (m - 16))
    return g, shift, head, scale


_G, _SHIFT, _HEAD, _M = _exponent_tables()
_GRID_START, _ROW_START, _NEXT_GRID, _COMMA = map(_word, (b"[[", b"],[", b"]]\n[[", b","))
# Grids are written in blocks of rows of at most about this many cells (one
# row at least): a block's arrays take about 64 KiB each, and a smaller block
# pays numpy's cost per call on fewer cells. Consecutive grids that fit in one
# block together share it.
_TEXT_CELLS = 1 << 13


def _grid_texts(arrays: Sequence[np.ndarray]) -> Iterator[str]:
    """``json.dumps(values.tolist(), separators=(",", ":"))`` of each of
    ``arrays``, non-empty 2-D float64 arrays of finite cells >= 0 or -0.0, as
    a ``FrameGrid`` holds. Consecutive arrays of one width and at most
    ``_TEXT_CELLS`` cells in all are written in one block, split at the
    "\n" before each but the first; a larger array alone, in blocks."""
    at = 0
    while at < len(arrays):
        group = [arrays[at]]
        cols, cells = group[0].shape[1], group[0].size
        while (at + len(group) < len(arrays) and arrays[at + len(group)].shape[1] == cols
               and cells + arrays[at + len(group)].size <= _TEXT_CELLS):
            cells += arrays[at + len(group)].size
            group.append(arrays[at + len(group)])
        at += len(group)
        values = group[0] if len(group) == 1 else np.concatenate(group)
        starts = list(itertools.accumulate(map(len, group[:-1]), initial=0))
        step = max(1, _TEXT_CELLS // cols)
        text = "".join(
            _grid_rows(values[row:row + step], [s - row for s in starts if row <= s < row + step])
            for row in range(0, len(values), step)
        ) + "]]"
        # str.split reads a character at a time: a lone grid's text is not split.
        yield from text.split("\n") if len(group) > 1 else [text]


def _grid_rows(values: np.ndarray, starts: list[int]) -> str:
    """The text of some rows of grids, each led by "],[", but the first row
    of a grid (``starts``) by "[[", after the "]]\n" that ends the grid before
    it if that is in the block too.

    Each grid row is laid out as one word for its lead and three per cell,
    and each cell's 24 bytes hold its separator ("," but in the first column)
    and its text, padded with NULs, which are then dropped: in fixed notation
    a NUL, "0.", the zeros after the point and D's 17 digits but its
    trailing zeros; otherwise ``repr``, also json's float text."""
    rows, cols = values.shape
    flat = np.ascontiguousarray(values).ravel()
    bits = flat.view(np.uint64)
    top = (bits >> _U(52)).astype(np.intp)
    shortest = _shortest(bits, _G[top], _SHIFT[top])
    words = np.empty((rows, 1 + 3 * cols), np.uint64)
    words[:, 0] = _ROW_START
    words[starts, 0] = _NEXT_GRID
    if starts[:1] == [0]:
        words[0, 0] = _GRID_START
    cells = words[:, 1:].reshape(rows, cols, 3)
    lead = shortest // _U(10 ** 16)
    cells[:, :, 0] = (_HEAD[top] + (lead << _U(56))).reshape(rows, cols)
    cells[:, 1:, 0] |= _COMMA
    cells[:, :, 1:] = _digit_words(shortest - lead * _U(10 ** 16)).reshape(rows, cols, 2)
    fixed = (flat >= 1e-4) & (flat < 1.0) & ((bits & _FRACTION) != 0)
    text = words.view(np.uint8).reshape(rows, -1)
    for t, c in zip(*np.nonzero(~fixed.reshape(rows, cols))):
        cell = (b"," if c else b"") + repr(float(values[t, c])).encode("ascii")
        text[t, 8 + 24 * c:32 + 24 * c] = np.frombuffer(cell.ljust(24, b"\0"), np.uint8)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _shortest(bits: np.ndarray, g: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """D for each cell of ``_grid_texts``' fixed notation: of the decimals
    D * 10**-m in the cell's rounding interval, those with the fewest digits,
    and of those the closest to the cell, an even D on a tie; ``repr`` picks
    the same one. This is figure 7 of Giulietti's paper, with its names
    (``s``, ``sp10``, ``upin``, ...) and the products of its figure 9: x and
    the ends of its interval, scaled by 4 * 10**m and rounded to odd, compare
    exactly with multiples of 4."""
    vb, vbl, vbr = _scaled(bits, g, shift)
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) <= vbr
    uin = vbl <= s << _U(2)
    win = (s << _U(2)) + _U(4) <= vbr
    closer_to_w = (vb & _U(3)) + (s & _U(1)) > _U(2)
    # One of u', w' in the interval has fewer digits; else u or w, whichever is
    # in it, and the closer to x if both are.
    return np.where(upin != wpin, sp10 + wpin * _U(10), s + (win & (~uin | closer_to_w)))


def _scaled(
    bits: np.ndarray, g: np.ndarray, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x and the ends of its rounding interval, scaled by 4 * 10**m and
    rounded to odd (``vb``, ``vbl`` and ``vbr`` of ``_shortest``), for each
    cell x with an exponent of the tables. Unless x is a power of two, whose
    interval is narrower below, a decimal D * 10**-m lies in the interval, and
    so reads as x, if and only if vbl < 4 * D < vbr."""
    two_c = ((bits & _FRACTION) | _U(1 << 52)) << _U(1)
    hi, lo = _product(two_c, g)
    # The ends of the interval, (2c -+ 1) * 2**(q - 1), have over 50 decimals,
    # so no D * 10**-m is one: an odd c's interval, which leaves them out,
    # needs no other test.
    lo_l, lo_r = lo - g, lo + g
    return (_odd_high(hi, lo, shift), _odd_high(hi - (lo < g), lo_l, shift),
            _odd_high(hi + (lo_r < lo), lo_r, shift))


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * b in two words, high and low, for a < 2**54 and b < 2**63, from
    products of 32-bit halves."""
    a0, a1 = a & _M32, a >> _U(32)
    b0, b1 = b & _M32, b >> _U(32)
    low = a0 * b0
    mid = a0 * b1 + a1 * b0  # < 2**63 + 2**54
    mid_low = (mid & _M32) + (low >> _U(32))
    return a1 * b1 + (mid >> _U(32)) + (mid_low >> _U(32)), (mid_low << _U(32)) | (low & _M32)


def _odd_high(hi: np.ndarray, lo: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The high word of (hi, lo) << ``shift``, rounded to odd: its last bit is
    set if a bit below it is."""
    return (hi << shift) | (lo >> (_U(64) - shift)) | ((lo << shift) != 0)


def _digit_words(d: np.ndarray) -> np.ndarray:
    """The 16 digits of each d < 10**16 as two words of ASCII, the first digit
    in the lowest byte, with the trailing zeros made NUL."""
    v = np.empty((d.size, 2), np.uint64)
    v[:, 0] = d // _U(10 ** 8)
    v[:, 1] = d - v[:, 0] * _U(10 ** 8)
    # Each word's 8 digits split in two in every lane: into 32-bit lanes of 4,
    # 16-bit lanes of 2 and bytes of 1. x * 5243 >> 19 is x // 100 for x < 43699,
    # and x * 103 >> 10 is x // 10 for x < 179.
    q = v // _U(10 ** 4)
    v = q | (v - q * _U(10 ** 4)) << _U(32)
    q = (v * _U(5243) >> _U(19)) & _U(0x0000_007F_0000_007F)
    v = q | (v - q * _U(100)) << _U(16)
    q = (v * _U(103) >> _U(10)) & _U(0x000F_000F_000F_000F)
    v = q | (v - q * _U(10)) << _U(8)
    # A digit is written if it or a later one is not 0: OR each byte with the
    # bytes above it, and the first word's with the second word's.
    keep = v | v >> _U(8)
    keep |= keep >> _U(16)
    keep |= keep >> _U(32)
    keep[:, 0] |= (keep[:, 1] & _U(0xFF)) * _U(0x0101_0101_0101_0101)
    return v + ((keep + _U(0x0F0F_0F0F_0F0F_0F0F)) & _U(0x1010_1010_1010_1010)) * _U(3)


def write_json(path: str | os.PathLike, value) -> None:
    """Write ``value`` as an indented JSON document."""
    atomic_write_text(path, json.dumps(value, indent=2) + "\n")


@contextlib.contextmanager
def _located(where: str | os.PathLike) -> Iterator[None]:
    """Raise a ``ValidationError`` of the block again, with its own type, as
    ``<where>: <message>``: ``where`` names the file or ``path:line`` at fault."""
    try:
        yield
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# events.tsv
# ---------------------------------------------------------------------------


def _tsv_rows(
    path: str | os.PathLike, lines: Iterator[tuple[int, str]], header: tuple[str, ...]
) -> Iterator[tuple[int, list[str]]]:
    """The line number and columns of each non-empty row after ``header``."""
    if tuple(next(lines, (1, ""))[1].rstrip("\n").split("\t")) != header:
        expected = "\t".join(header)
        raise ParseError(path, 1, f"expected header {expected!r}")
    for line_no, line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != len(header):
            raise ParseError(path, line_no, f"expected {len(header)} columns, got {len(cols)}")
        yield line_no, cols


def parse_events(path: str | os.PathLike, vocab: ClassVocabulary | None = None) -> EventList:
    """Read a 4-column annotation TSV; row order is preserved. Without ``vocab``
    every label but the reserved one is accepted."""
    events: list[Event] = []
    with _lines(path) as lines:
        for line_no, cols in _tsv_rows(path, lines, EVENTS_HEADER):
            clip_id, onset_s, offset_s, label = cols
            try:
                onset, offset = float(onset_s), float(offset_s)
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric time in {cols[1:3]}") from None
            if vocab is not None and label not in vocab:
                raise VocabularyError(f"{path}:{line_no}: unknown class {label!r}")
            if label == ClassVocabulary.other_label:  # a vocabulary never holds it
                raise VocabularyError(f"{path}:{line_no}: reserved label {label!r} is no class")
            try:
                events.append(Event(clip_id, onset, offset, label))
            except ValidationError as exc:
                raise ParseError(path, line_no, str(exc)) from None
    return EventList(events)


def write_events(events: EventList, path: str | os.PathLike) -> None:
    lines = ["\t".join(EVENTS_HEADER)]
    for ev in events:
        lines.append(
            f"{ev.clip_id}\t{fmt_float(ev.onset)}\t{fmt_float(ev.offset)}\t{ev.event_label}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# weak.tsv
# ---------------------------------------------------------------------------


def parse_weak_labels(path: str | os.PathLike, vocab: ClassVocabulary) -> WeakLabelSet:
    """Read clip-level labels; duplicate class names in a row collapse."""
    labels: dict[str, frozenset[str]] = {}
    with _lines(path) as lines:
        for line_no, (clip_id, joined) in _tsv_rows(path, lines, WEAK_HEADER):
            if clip_id in labels:
                raise ParseError(path, line_no, f"duplicate clip id {clip_id!r}")
            names = joined.split(",")
            if not all(names):
                raise ParseError(path, line_no, "empty class name in label list")
            for name in names:
                if name not in vocab:
                    raise VocabularyError(f"{path}:{line_no}: unknown class {name!r}")
            labels[clip_id] = frozenset(names)
    return WeakLabelSet(labels)


def write_weak_labels(weak: WeakLabelSet, vocab: ClassVocabulary, path: str | os.PathLike) -> None:
    lines = ["\t".join(WEAK_HEADER)]
    for clip_id, classes in weak.labels.items():
        ordered = sorted(classes, key=vocab.index)
        lines.append(f"{clip_id}\t{','.join(ordered)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# JSON kinds, field tables and config files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """A JSON value kind: ``test`` accepts a value, ``words`` name the kind in
    errors and ``convert`` maps an accepted value (a number to ``float``). A list
    or object kind with an ``item`` kind checks each item and reads the list as
    a tuple; an item is named by its list, or as ``<object> '<key>'``."""

    words: str
    test: Callable[[object], bool]
    convert: Callable = lambda value: value
    item: Kind | None = None


def _is_number(value) -> bool:
    # A float first: the ABC test costs about ten times more. A bool is an
    # int, and an integer beyond the float range would not convert.
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and not (isinstance(value, int) and abs(value) > sys.float_info.max))


NUMBER = Kind("a number", _is_number, float)
INTEGER = Kind("an integer",
               lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), int)
STRING = Kind("a string", lambda v: isinstance(v, str))
BOOL = Kind("true or false", lambda v: isinstance(v, bool))
OBJECT = Kind("an object", lambda v: isinstance(v, Mapping))
# A value checked past its table: by a domain constructor, whose messages
# Python callers see too, or against another field.
ANY = Kind("any value", lambda v: True)


def list_of(item: Kind | None, words: str, length: int | None = None) -> Kind:
    """A list (from Python, also a tuple) of ``length`` items, any length if None."""
    return Kind(words, lambda v: isinstance(v, (list, tuple)) and length in (None, len(v)),
                item=item)


def object_of(item: Kind, words: str = "an object") -> Kind:
    return Kind(words, OBJECT.test, item=item)


NAMES = list_of(STRING, "a list of names")


def checked(value, what: str, kind: Kind):
    """``value`` converted to ``kind``; any other value raises ``<what> <value>
    must be <kind>``. Values are checked, not coerced: a bool is no number, nor
    is the string "0.5", and 42.9 is no integer."""
    if not kind.test(value):
        shown = repr(value.item() if isinstance(value, np.generic) else value)
        shown = shown if len(shown) <= 80 else shown[:77] + "..."
        raise ValidationError(f"{what} {shown} must be {kind.words}")
    item = kind.item
    if item is None:
        return kind.convert(value)
    mapping = isinstance(value, Mapping)
    if item.item is None and all(map(item.test, value.values() if mapping else value)):
        # Scalar items that all pass: one pass, no call per item.
        if mapping:
            return dict(zip(value, map(item.convert, value.values())))
        return tuple(map(item.convert, value))
    # Nested items, or a bad item to name.
    if mapping:
        return {key: checked(v, f"{what} {key!r}", item) for key, v in value.items()}
    return tuple(checked(v, what, item) for v in value)


REQUIRED = object()  # the default of a key that must be present


def read_fields(data: Mapping, table: Mapping[str, tuple[Kind, object]], what: str | None) -> dict:
    """Each key of ``table`` (key -> (kind, default)) with its value in ``data``
    checked, or its default where the key is absent (absence raises where the
    default is ``REQUIRED``). A config object, named by ``what``, rejects keys
    outside ``table``, so a misspelt key is reported instead of silently keeping
    its default; a JSONL record (``what`` None) ignores them and names its fields."""
    if what is not None:
        unknown = sorted(set(data) - set(table))
        if unknown:
            raise ValidationError(f"unknown {what} keys {unknown}")
    out = {}
    for key, (kind, default) in table.items():
        if key in data:
            try:
                out[key] = checked(data[key], key, kind)
            except ValidationError:
                if what is not None:
                    raise
                # A record names the field; the label is built only for a failed check.
                checked(data[key], f"field {key!r}", kind)
                raise
        elif default is REQUIRED:
            raise ValidationError(f"missing {'key' if what is not None else 'field'} {key!r}")
        else:
            out[key] = default
    return out


_Built = TypeVar("_Built")
_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def load_json_object(path: str | os.PathLike, build: Callable[[dict], _Built]) -> _Built:
    """Read a JSON file whose top level is an object and ``build`` from it.

    Invalid JSON and a top level that is not an object raise ``ParseError``
    (``_json_object``). ``build`` checks the object against its field table;
    its ``ValidationError`` is raised again naming the file. Nothing else is
    caught: another exception from ``build`` is a bug.
    """
    with _lines(path) as lines:
        data = _json_object(path, 1, "".join(line for _, line in lines), "top level")
    with _located(path):
        return build(data)


def _json_object(path: str | os.PathLike, line_no: int, text: str, what: str) -> dict:
    """The JSON object of ``text``, which starts at line ``line_no`` of ``path``, or a
    ``ParseError`` at the line of json's error (``line_no`` where it has no position)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, line_no + exc.lineno - 1, f"invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # too many digits or too deep
        raise ParseError(path, line_no, f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(path, line_no, f"{what} must be a JSON object")
    return data


# ---------------------------------------------------------------------------
# grids.jsonl
# ---------------------------------------------------------------------------


# ``_grid_values`` reads a cell "0.<L digits>", 1 <= L <= 20, from the 24
# bytes that end with its last digit: three words of 8 digits, the first digit
# in the lowest byte, with the bytes before the cell's first digit made "0"
# (``_DIGIT_MASK``, indexed by L). Each word becomes its 8-digit value in
# three multiply-and-shift steps, as in D. Lemire, "Number parsing at a
# gigabyte per second" (Software: Practice and Experience, 2021).
_NUMBER_CHARS = b"0123456789+-.eE"
_DIGIT_MASK = np.frombuffer(b"".join(
    b"\0" * (24 - digits) + b"\xff" * digits for digits in range(21)), "V24")
_DIGIT_STEPS = [(_U(mask), _U(scale << shift | 1), _U(shift)) for mask, scale, shift in (
    (0x0F0F_0F0F_0F0F_0F0F, 10, 8), (0x00FF_00FF_00FF_00FF, 100, 16), (0x0000_FFFF_0000_FFFF, 10000, 32),
)]
_POW10 = 10.0 ** np.arange(21)  # each one exact
_POW10_U = np.array([10 ** k for k in range(20)], np.uint64)
_POSTERIORS = '"posteriors":'
# ``_records`` decodes the posteriors of consecutive lines together, about
# this many bytes of text at a time (13,000 cells of the writer's text): the
# cost of numpy's calls is spread over many small grids, and a pass's arrays
# stay within a core's cache. Its arrays take about 10 bytes per byte of the
# writer's text (up to 45 for cells as short as "0.0"), against json's 3, so
# ``_grid_values`` leaves a text of over 4 times this to json: however long a
# line, the decoder's arrays stay bounded.
_DECODE_BYTES = 1 << 18


def _grid_values(texts: Sequence[str]) -> list[np.ndarray | None]:
    """``np.asarray(json.loads(text), np.float64)`` of each ``posteriors``
    text that is ``[[`` rows ``]]`` split by ``],[``, each row of as many
    cells split by ``,``, each cell a number json reads, of the characters
    ``0-9+-.eE``; None for any other text and for one of over 4 times
    ``_DECODE_BYTES``. All texts are decoded at once, and no text makes this
    raise.

    A cell "0.<L digits>" whose digits w are below 10**17 is read as w /
    10**L. Where w <= 2**53, that quotient of two exact doubles is correctly
    rounded (Clinger's fast path), so it is the double json's ``float``
    gives. Otherwise it is at most an ulp or so off, and it, or its neighbour
    on the cell's side, is taken once ``_scaled`` shows that the cell lies in
    its rounding interval. The cells left (0.0, 1.0, -0.0, 1e-05, and a cell
    neither shows) are read by ``json.loads``, each distinct text once.
    """
    out: list[np.ndarray | None] = [None] * len(texts)
    kept = [i for i, text in enumerate(texts)
            if text[:2] == "[[" and text[-2:] == "]]" and text.isascii()
            and len(text) <= 4 * _DECODE_BYTES]
    if not kept:
        return out
    # A comma before each text and after the last, so each cell lies between
    # two commas, less the "]" or "[" of a "],[" and the "]]" or "[[" at the
    # ends of a text. The padding keeps each cell's 24 bytes and each comma's
    # neighbours inside the buffer.
    data = ",".join(["0" * 23, *(texts[i] for i in kept), "\0" * 8]).encode("ascii")
    b = np.frombuffer(data, np.uint8)
    commas = np.flatnonzero(b == ord(","))
    sizes = np.array([len(texts[i]) + 1 for i in kept])
    firsts = np.searchsorted(commas, np.cumsum(sizes) - sizes + 23)  # each text's first cell
    brackets = ((b[commas - 1] == ord("]")) & (b[commas + 1] == ord("["))).astype(np.intp)
    brackets[firsts] = 2
    brackets[-1] = 2
    starts = commas[:-1] + 1 + brackets[:-1]
    ends = commas[1:] - brackets[1:]
    text_of = np.cumsum(brackets[:-1] == 2) - 1
    rows = np.flatnonzero(brackets[:-1])  # each row's first cell
    lengths = np.diff(rows, append=ends.size)
    cols = lengths[np.searchsorted(rows, firsts)]
    broken = np.bincount(text_of[rows[lengths != cols[text_of[rows]]]], minlength=len(kept))

    values = np.empty(ends.size)
    digits = ends - starts - 2
    fixed = np.flatnonzero((digits >= 1) & (digits <= 20)
                           & (b[starts] == ord("0")) & (b[starts + 1] == ord(".")))
    x, ok = _fixed_cells(data, ends[fixed], digits[fixed])
    values[fixed[ok]] = x[ok]
    slow = np.ones(ends.size, bool)
    slow[fixed[ok]] = False
    slow = np.flatnonzero(slow)
    tokens = [data[s:e] for s, e in zip(starts[slow].tolist(), ends[slow].tolist())]
    numbers = {token: _number(token) for token in set(tokens)}
    read = [numbers[token] for token in tokens]
    unread = np.array([number is None for number in read], bool)
    values[slow[~unread]] = [number for number in read if number is not None]
    broken += np.bincount(text_of[slow[unread]], minlength=len(kept))
    firsts = np.append(firsts, ends.size)
    for j, i in enumerate(kept):
        if not broken[j]:
            out[i] = values[firsts[j]:firsts[j + 1]].reshape(-1, cols[j])
    return out


def _fixed_cells(
    data: bytes, ends: np.ndarray, digits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The double of each cell "0." and ``digits`` digits that ends at
    ``ends`` in ``data``, and whether it is shown to be the double json reads
    (``_grid_values``): no byte of the digits is another character, they are
    below 10**17, and the quotient is exact or ``_inside`` shows it."""
    windows = np.ndarray((len(data) - 23,), "V24", data, 0, (1,))
    v = windows[ends - 24].view(np.uint64).reshape(-1, 3)
    v ^= _U(0x3030_3030_3030_3030)
    v &= _DIGIT_MASK[digits].view(np.uint64).reshape(-1, 3)
    # Each digit's byte is now 0-9 and each other byte of the cell above 9.
    high = v + _U(0x7676_7676_7676_7676)
    high |= v
    high &= _U(0x8080_8080_8080_8080)
    ok = (high[:, 0] | high[:, 1] | high[:, 2]) == 0
    del high
    for mask, scale, shift in _DIGIT_STEPS:
        v &= mask
        v *= scale
        v >>= shift
    ok &= v[:, 0] < _U(10)  # so w < 10**17 < 2**64
    w = (v[:, 0] * _U(10 ** 8) + v[:, 1]) * _U(10 ** 8) + v[:, 2]
    x = w.astype(np.float64) / _POW10[digits]
    bits = x.view(np.uint64)
    check = np.flatnonzero(ok & (w > _U(1 << 53)))
    inside, above = _inside(bits[check], w[check], digits[check])
    miss = check[~inside]
    near = np.where(above, bits[check] + _U(1), bits[check] - _U(1))[~inside]
    inside, _ = _inside(near, w[miss], digits[miss])
    bits[miss[inside]] = near[inside]
    ok[miss[~inside]] = False
    return x, ok


def _inside(bits: np.ndarray, w: np.ndarray, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each cell w * 10**-digits and a double x, by its ``bits``, within a
    few ulps of it: whether the cell lies in x's rounding interval, so that it
    reads as x, and whether it lies above x. The test holds only where x is
    no power of two and 2**-14 <= x < 1, an exponent of the tables (``_M`` is
    0 elsewhere), and for every cell of at most m digits."""
    e = (bits >> _U(52)).astype(np.intp)
    m = _M[e]
    _, low, high = _scaled(bits, _G[e], _SHIFT[e])
    cell = w * _POW10_U[m - digits] << _U(2)  # 4 * w * 10**(m - digits) < 2**59
    return (digits <= m) & ((bits & _FRACTION) != 0) & (low < cell) & (cell < high), cell > high


def _number(token: bytes) -> float | None:
    """The float of ``json.loads(token)`` for a token of ``_NUMBER_CHARS``;
    None for any other token, one json does not read, or an integer beyond
    the float range."""
    if not token or token.translate(None, _NUMBER_CHARS):
        return None
    try:
        return float(json.loads(token))
    except (ValueError, OverflowError):  # json.JSONDecodeError is a ValueError
        return None


def _batched(lines: Iterable[tuple[int, str]]) -> Iterator[list[tuple[int, str]]]:
    """The non-blank ``lines``, stripped, in runs of consecutive lines of about
    ``_DECODE_BYTES`` in all. An error of ``lines`` is raised after the lines
    before it are given, so the caller meets a line's own error first."""
    batch: list[tuple[int, str]] = []
    size = 0
    try:
        for line_no, line in lines:
            line = line.strip()
            if line:
                batch.append((line_no, line))
                size += len(line)
            if size >= _DECODE_BYTES:
                yield batch
                batch, size = [], 0
    except SedfuseError:
        yield batch
        raise
    yield batch


def _records(
    path: str | os.PathLike, lines: Iterable[tuple[int, str]], table: Mapping
) -> Iterator[tuple[int, dict]]:
    """Each record's line number and the fields of ``table``, in table order,
    from the non-blank ``lines`` of ``path``.

    If ``table`` has ``posteriors``, a record's ``posteriors`` is the text
    after its line's first ``"posteriors":`` up to the closing ``}``, decoded
    by ``_grid_values`` with those of the lines around it, and the rest of
    the line is read with ``[]`` in its place. A decoded text holds no quote,
    so that key is also the last, as json keeps the last of a repeated key,
    and if the rest reads as JSON, the key is in no string. A line with no
    decoded posteriors, or whose rest does not read as a record of ``table``,
    is read whole, so every error is json's and ``read_fields``' on the
    whole line."""
    cut = "posteriors" in table
    for batch in _batched(lines):
        keys = [line.find(_POSTERIORS) if cut and line[-1] == "}" else -1 for _, line in batch]
        decoded = _grid_values([line[key + len(_POSTERIORS):-1] if key >= 0 else ""
                                for (_, line), key in zip(batch, keys)])
        for (line_no, line), key, values in zip(batch, keys, decoded):
            fields = None
            if values is not None:
                try:  # JSON that ends with "}" is an object
                    fields = read_fields(json.loads(line[:key] + _POSTERIORS + "[]}"), table, None)
                    fields["posteriors"] = values
                except (ValueError, RecursionError, ValidationError):  # JSONDecodeError too
                    fields = None
            if fields is None:
                record = _json_object(path, line_no, line, "record")
                try:
                    fields = read_fields(record, table, None)
                except ValidationError as exc:
                    raise ParseError(path, line_no, str(exc)) from None
            yield line_no, fields


# The field tables of the JSONL records. Deeper checks (names, ranges,
# posterior cells) belong to the domain types and to ``parse_framegrids``.
GRID_FIELDS = {
    "clip_id": (STRING, REQUIRED), "hop_seconds": (NUMBER, REQUIRED), "classes": (NAMES, REQUIRED),
    "posteriors": (list_of(None, "a list of frame rows"), REQUIRED),
}
TAG_FIELDS = {
    "source_id": (STRING, REQUIRED), "parent_clip_id": (STRING, REQUIRED),
    "probs": (object_of(NUMBER, "an object of numbers"), REQUIRED),
}
MANIFEST_FIELDS = {"mixture_id": (STRING, REQUIRED), "sources": (NAMES, REQUIRED)}


def _vocab_first(
    path: str | os.PathLike, records: Iterator[tuple[int, dict]]
) -> tuple[ClassVocabulary, Iterator[tuple[int, dict]]]:
    """The first record's classes, with the checks of the serial pass, and the
    records again from the first; a file with no record raises."""
    first = next(records, None)
    if first is None:
        raise ValidationError(f"{path}: no records")
    with _located(f"{path}:{first[0]}"):
        vocab = ClassVocabulary(first[1]["classes"])
    return vocab, itertools.chain([first], records)


def _parse_grid_range(
    path: str | os.PathLike, fd: int, start: int, end: int | None, vocab: ClassVocabulary | None,
    reduce: Callable[[list[FrameGrid], ClassVocabulary], _Item], cells: int,
) -> tuple[Iterator[tuple[tuple[str, ...], _Item]], ClassVocabulary]:
    """The blocks of bytes ``[start, end)`` and ``vocab`` or the first record's:
    (clip ids, ``reduce(grids, vocab)``) for each block of consecutive grids,
    at most ``cells`` cells each (one grid at least). Clip ids are unique
    within the range; an error names its line from ``start``."""
    records = _records(path, _text_lines(path, fd, start, end), GRID_FIELDS)
    if vocab is None:
        vocab, records = _vocab_first(path, records)
    return _grid_blocks(path, records, vocab, reduce, cells), vocab


def _grid_blocks(
    path: str | os.PathLike, records: Iterable[tuple[int, dict]], vocab: ClassVocabulary,
    reduce: Callable[[list[FrameGrid], ClassVocabulary], _Item], cells: int,
) -> Iterator[tuple[tuple[str, ...], _Item]]:
    """The blocks of ``_parse_grid_range``; a grid's floats live until its block is reduced."""
    block: list[FrameGrid] = []
    held = 0  # cells of ``block``
    seen: set[str] = set()
    for line_no, fields in records:
        clip_id, hop, classes, posteriors = fields.values()
        with _located(f"{path}:{line_no}"):
            if clip_id in seen:
                raise ParseError(path, line_no, f"duplicate clip id {clip_id!r}")
            seen.add(clip_id)
            if sorted(classes) != sorted(vocab.classes):
                raise VocabularyError(f"class set {list(classes)} does not match vocabulary")
            arr = posteriors  # an array if ``_grid_values`` decoded it
            if not isinstance(arr, np.ndarray):
                try:
                    # Exact cell types: numpy would read "0.9" and true as numbers.
                    if not set(map(type, itertools.chain.from_iterable(arr))) <= {float, int}:
                        raise TypeError
                    arr = np.asarray(arr, dtype=np.float64)
                except (TypeError, ValueError, OverflowError):
                    raise ParseError(
                        path, line_no, "posteriors must be a rectangular matrix of numbers"
                    ) from None
            if arr.ndim != 2 or arr.shape[1] != len(classes):
                raise ParseError(
                    path, line_no, f"posteriors must be T x {len(classes)}, got shape {arr.shape}"
                )
            perm = [classes.index(name) for name in vocab.classes]
            grid = FrameGrid(clip_id, hop, arr[:, perm])
        if block and held + grid.values.size > cells:
            yield tuple(g.clip_id for g in block), reduce(block, vocab)
            block, held = [], 0
        block.append(grid)
        held += grid.values.size
    if block:
        yield tuple(g.clip_id for g in block), reduce(block, vocab)


def _line_start(fd: int, at: int, size: int) -> int:
    r"""The first line start at or after ``at`` > 0: just after a ``\n``;
    ``size`` if there is none."""
    at -= 1  # a "\n" just before ``at`` makes ``at`` itself a line start
    while at < size:
        block = os.pread(fd, _READ_BLOCK, at)
        found = block.find(b"\n")
        if found >= 0:
            return at + found + 1
        if not block:
            break
        at += len(block)
    return size


def _range_starts(fd: int, size: int) -> list[int]:
    r"""The start of each range of a ``size``-byte file: the first line start
    at or after the start of each of its ``_blocks``, at most one per
    ``_MIN_RANGE_BYTES``, each one once. A line starts after a ``\n``, which
    is never part of a UTF-8 sequence nor the ``\r`` of a ``\r\n``."""
    starts = [0]
    for block in _blocks(size, size // _MIN_RANGE_BYTES)[1:]:
        start = _line_start(fd, block.start, size)
        if starts[-1] < start < size:
            starts.append(start)
    return starts


# A file is cut into no more ranges than it holds of these: forking a child,
# passing its grids back through a temp file and reaping it took 2.5 to 3 ms
# in a 62 MB process on a 2-vCPU host, and parsing 1 MiB about 11 ms, so each
# child pays for itself over three times, and a dump under 2 MiB is parsed as
# one range on any host.
_MIN_RANGE_BYTES = 1 << 20


def parse_framegrids(
    path: str | os.PathLike, vocab: ClassVocabulary | None = None
) -> tuple[list[FrameGrid], ClassVocabulary]:
    """Read posterior grids with unique clip ids, and their vocabulary: ``vocab``,
    or if None the first record's ``classes`` in their order (a file with no
    record then raises ``ValidationError``). Columns follow the vocabulary.
    The file is read as ``reduce_framegrids`` reads it, one grid per block."""
    blocks, vocab = reduce_framegrids(path, lambda grids, _: grids, 1, vocab)
    return [grid for block in blocks for grid in block], vocab


def reduce_framegrids(
    path: str | os.PathLike,
    reduce: Callable[[list[FrameGrid], ClassVocabulary], _Item],
    cells: int,
    vocab: ClassVocabulary | None = None,
) -> tuple[list[_Item], ClassVocabulary]:
    """Read a grid dump as ``parse_framegrids`` does, but keep only
    ``reduce(grids, vocab)`` of each block of consecutive grids, at most
    ``cells`` cells each (one grid at least): a grid's floats are dropped once
    its block is reduced, in the process that parsed it. ``reduce`` must not
    raise for valid grids, so the errors are the parse's alone.

    A regular file is parsed on every CPU of the process's affinity mask
    (``_blocks``), in no more ranges than it holds MiB (``_MIN_RANGE_BYTES``).
    This process cuts the file into byte ranges at line starts
    (``_range_starts``), reads the first record if it needs the vocabulary,
    and deals the ranges with ``_dealt``: it parses and reduces the first
    range itself, and an error there is raised as is, and a child parses and
    reduces each later one with the checks of a serial pass, and ships back
    only its reduced blocks. If a later range fails or no temp file or child
    can be made, ``_dealt`` parses the whole file again as one range, and so
    does this function if a clip id repeats across ranges. So every message
    is the serial pass's, without lines counted across ranges. A FIFO, a file
    with one range and a single CPU take the one-range parse from the start.
    The reduced blocks are in file order; where ranges cut the blocks
    differently from one range, a ``reduce`` whose output is per grid gives the
    serial pass's output.
    """
    with open(path, "rb") as fh:
        fd = fh.fileno()
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode):
            starts = _range_starts(fd, info.st_size)
            if len(starts) > 1:
                if vocab is None:
                    records = _records(path, _text_lines(path, fd, 0, info.st_size), GRID_FIELDS)
                    vocab, _ = _vocab_first(path, records)
                ranges = list(map(range, starts, starts[1:] + [info.st_size]))
                blocks = _dealt(
                    lambda r: _parse_grid_range(path, fd, r.start, r.stop, vocab, reduce, cells)[0],
                    ranges,
                )
                ids = [clip_id for block_ids, _ in blocks for clip_id in block_ids]
                if len(set(ids)) == len(ids):
                    return [item for _, item in blocks], vocab
        blocks, vocab = _parse_grid_range(path, fd, 0, None, vocab, reduce, cells)
        return [item for _, item in blocks], vocab


def _blocks(n: int, most: int) -> list[range]:
    """``range(n)`` dealt in k contiguous blocks for ``_dealt``: k is the
    CPUs of the process's affinity mask (1 where that does not exist), read
    at each call, but at most ``most`` and n, and at least 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    k = max(1, min(len(affinity(0)) if affinity else 1, n, most))
    return [range(n * i // k, n * (i + 1) // k) for i in range(k)]


@contextlib.contextmanager
def _forking() -> Iterator[Callable[[Callable[[IO[bytes]], None]], Callable[[], IO[bytes] | None]]]:
    """Give ``fork(work) -> done``; on leaving, kill and reap every child not
    yet reaped, then close every file.

    ``fork`` makes an unnamed temp file in the system's temp directory
    (``O_TMPFILE`` on Linux; a dump's own directory may be read-only) and
    forks a child that runs ``work(file)``, flushes the file and leaves by
    ``os._exit``, 0 if ``work`` returned and 1 if it raised, so no
    ``finally``, ``atexit`` or buffer flush of this process runs in it.
    ``done()`` waits for that child and gives its file at offset 0, or None
    if the child failed. A child writes only to its own file, so it never
    waits on this process; a child still running when this process leaves
    (it raised first) is killed, so no work outlives the call. The files
    have no name, so nothing is left on disk, even if this process is
    killed.

    Two callers fork: ``_dealt``, whose children run the later parts of a
    job (the shards of ``write_framegrids``, the byte ranges of
    ``reduce_framegrids``, the parameter blocks of ``fusion._dev_curve`` and
    the class blocks of ``fusion.fit_logistic_fusion`` and
    ``metrics.psds_counted``); and the CLI's ``_write_dataset``, whose one child
    writes the dataset's dumps while the experiment scores. That caller waits
    for its child before it leaves, also when it raises, so its child is
    never killed: a killed writer would leave its dump unwritten and its
    temp file behind. The deals of ``_blocks`` do not count the writer, so
    the experiment's fits and PSDS fork beside it.

    The process that forks may have threads: importing numpy starts
    OpenBLAS's pool, idle while this process forks. A child runs ``json``,
    ``pickle``, numpy and file I/O; the one BLAS caller on whole dumps, the
    logistic fit's ``fusion._newton_terms``, makes each product on one block
    of ``fusion._row_blocks``, below OpenBLAS's threading size, so a child
    never needs the pool. Python 3.11 is quiet, but Python 3.12 and later
    emit a ``DeprecationWarning`` for ``os.fork`` in a process with threads.
    """
    pids: list[int] = []  # children not yet reaped
    with contextlib.ExitStack() as files:

        def fork(work: Callable[[IO[bytes]], None]) -> Callable[[], IO[bytes] | None]:
            file = files.enter_context(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    work(file)
                    file.flush()
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)

            def done() -> IO[bytes] | None:
                _, status = os.waitpid(pid, 0)
                pids.remove(pid)
                if os.waitstatus_to_exitcode(status) != 0:
                    return None
                file.seek(0)
                return file

            return done

        try:
            yield fork
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class _NoChild(Exception):
    """A part of ``_dealt`` got no temp file or child, or its child failed."""


def _dealt(
    work: Callable[[range], Iterable[_Item]],
    parts: Sequence[range],
    consume: Callable[[Iterable[_Item]], _Result] = list,
) -> _Result:
    """``consume`` of the items of ``work(part)`` for each of the contiguous
    ``parts`` in turn: this process runs the first part and a child forked
    through ``_forking`` each later one, which pickles its items one at a
    time into its temp file, to be loaded here one at a time, so no part's
    output is held whole. An error in the first part is raised as is. If a
    part gets no temp file or child, or its child fails, every child still
    running is killed and ``consume(work(whole))`` runs in this process over
    the whole span of ``parts``, so the results and errors are the serial
    pass's. One part forks nothing.

    Each caller deals its parts with ``_blocks``, as many as its work pays
    for: a fork, its transfer and its reap cost about 2 to 3 ms.
    ``write_framegrids`` deals its grids and ``reduce_framegrids`` (for
    ``parse_framegrids`` and ``decode.read_reduced``) the byte ranges of a
    dump, each at least ``_MIN_RANGE_BYTES``;
    ``fusion._dev_curve`` (``fit_alpha`` and ``sweep_beta``),
    ``fusion.fit_logistic_fusion`` and ``metrics.psds_counted`` deal their
    parameters and classes above the floors ``fusion._MIN_SWEEP_CELLS``,
    ``fusion._MIN_FIT_ROWS`` and ``metrics._MIN_PSDS_CELLS``.
    """

    def run(part: range, file: IO[bytes]) -> None:
        for item in work(part):
            pickle.dump(item, file, pickle.HIGHEST_PROTOCOL)

    def items(later: list[Callable[[], IO[bytes] | None]]) -> Iterator[_Item]:
        yield from work(parts[0])
        for done in later:
            file = done()
            if file is None:
                raise _NoChild
            while file.peek(1):
                yield pickle.load(file)

    try:
        with _forking() as fork:
            try:
                later = [fork(functools.partial(run, part)) for part in parts[1:]]
            except OSError:  # EMFILE, ENOSPC, EAGAIN, ENOMEM: no more files or processes
                raise _NoChild from None
            return consume(items(later))
    except _NoChild:
        return consume(work(range(parts[0].start, parts[-1].stop)))


def write_framegrids(
    grids: Sequence[FrameGrid], vocab: ClassVocabulary, path: str | os.PathLike
) -> None:
    """One line per grid, encoded on every CPU of the process's affinity mask.

    The grids are dealt in consecutive shards (``_blocks``), one per CPU
    but at most one per grid, and their lines streamed into the file
    through ``_dealt``: this process encodes the first shard and a child
    each later one. So a dump is never one string, and the bytes are those
    of one serial pass. If a shard gets no temp file or child, or its child
    fails, ``_dealt`` writes the whole dump again in this process, so an
    error is that of the serial pass. No child or shard file outlives the
    call.
    """
    for grid in grids:
        _check_columns(grid, vocab)

    def encode(block: range) -> Iterator[str]:
        return _json_lines([{
            "clip_id": grid.clip_id,
            "hop_seconds": grid.hop_seconds,
            "classes": list(vocab.classes),
            "posteriors": grid.values,
        } for grid in map(grids.__getitem__, block)])

    _dealt(encode, _blocks(len(grids), len(grids)), lambda lines: atomic_write_text(path, lines))


# ---------------------------------------------------------------------------
# tags.jsonl
# ---------------------------------------------------------------------------


def parse_tags(
    path: str | os.PathLike, vocab: ClassVocabulary | None = None
) -> tuple[list[TagPrediction], ClassVocabulary]:
    """Read tag predictions, and their vocabulary as ``parse_framegrids`` does,
    from the ``probs`` keys but the reserved label."""
    tags: list[TagPrediction] = []
    with _lines(path) as lines:
        for line_no, fields in _records(path, lines, TAG_FIELDS):
            source_id, parent, probs = fields.values()
            with _located(f"{path}:{line_no}"):
                if vocab is None:
                    vocab = ClassVocabulary(k for k in probs if k != ClassVocabulary.other_label)
                tag = TagPrediction(source_id, parent, probs)
                tag.validate_vocab(vocab)
            tags.append(tag)
    if vocab is None:
        raise ValidationError(f"{path}: no records")
    return tags, vocab


def write_tags(
    tags: Sequence[TagPrediction], vocab: ClassVocabulary, path: str | os.PathLike
) -> None:
    order = vocab.with_other()
    for tag in tags:
        tag.validate_vocab(vocab)
    atomic_write_text(path, (
        _json_line({
            "source_id": tag.source_id,
            "parent_clip_id": tag.parent_clip_id,
            "probs": {name: tag.probs[name] for name in order},
        })
        for tag in tags
    ))


# ---------------------------------------------------------------------------
# sep_manifest.jsonl
# ---------------------------------------------------------------------------


def parse_manifest(path: str | os.PathLike) -> SeparationManifest:
    sources: dict[str, tuple[str, ...]] = {}
    with _lines(path) as lines:
        for line_no, fields in _records(path, lines, MANIFEST_FIELDS):
            mixture_id, source_ids = fields.values()
            if mixture_id in sources:
                raise ParseError(path, line_no, f"duplicate mixture id {mixture_id!r}")
            sources[mixture_id] = source_ids
    with _located(path):
        return SeparationManifest(sources)


def write_manifest(manifest: SeparationManifest, path: str | os.PathLike) -> None:
    atomic_write_text(path, (
        _json_line({"mixture_id": mid, "sources": list(sids)})
        for mid, sids in manifest.sources.items()
    ))
