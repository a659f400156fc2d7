"""Turn frame posteriors into event lists.

One kernel, ``_smoothed_levels``, decodes every dump: each cell counts the
operating points its posterior reaches (``>=``, so 0.5 is active at the 0.5
operating point), and a centered running median of the class window smooths
the counts (frames beyond the clip edges count 0, which biases against
spurious clip-edge events); counts of one threshold are 0 and 1, and their
median is a majority vote (``_majority``). Runs are then read from the
smoothed counts: count > 0 at one threshold (``_active_runs``), count > k at
the k-th of a sweep such as PSDS (``_level_runs``). Counting is
non-decreasing in the posterior and maps the zero padding to 0, so it
commutes with the median (threshold decomposition: Fitch, Coyle &
Gallagher, IEEE TASSP 32(6), 1984): the runs equal those of smoothing the
posteriors and thresholding them after, and ``decode`` equals
``extract_events(median_smooth(binarize(grid)))``.
Every dump is decoded in blocks of whole clips of one frame count, each at
most ``_BLOCK_CELLS`` cells, so no float64 copy of a whole dump is made;
``_level_runs`` reads a sweep's runs in blocks of levels bounded the same way.
``_reduced`` runs the kernel once per block for both readers and keeps a
``ReducedDump``: the runs ``decode_many`` turns into events, and the smoothed
PSDS levels, one byte per cell up to 255 operating points. ``read_reduced``
applies it to each block of consecutive clips in the process that parses
the block (``core.reduce_framegrids``), so ``sedfuse score`` and ``sedfuse
decode`` never hold a dump's floats; the result is ``_reduced``'s over the
whole dump, since each clip is smoothed and read on its own.
``rasterize`` inverts ``extract_events`` for frame-aligned events and
produces frame targets for fusion fitting.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    BinaryGrid,
    ClassVocabulary,
    Event,
    EventList,
    FrameGrid,
    ANY,
    INTEGER,
    NUMBER,
    OBJECT,
    Kind,
    ValidationError,
    _check_columns,
    checked,
    fmt_float,
    load_json_object,
    read_fields,
    reduce_framegrids,
)


# decode_cfg.json, in the order of PostProcessConfig's fields.
_DECODE_FIELDS = {
    "default_threshold": (ANY, 0.5), "default_median_window": (ANY, 7),
    "thresholds": (OBJECT, {}), "median_windows": (OBJECT, {}),
}
_WINDOW = Kind("a positive integer", lambda w: INTEGER.test(w) and w >= 1, int)


@dataclass(frozen=True)
class PostProcessConfig:
    """Per-class decision thresholds and median-filter windows.

    Classes absent from the override maps fall back to the defaults.
    Windows must be odd so the filter is centered.
    """

    default_threshold: float = 0.5
    default_median_window: int = 7
    class_thresholds: Mapping[str, float] = field(default_factory=dict)
    class_median_windows: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "class_thresholds", dict(self.class_thresholds))
        object.__setattr__(self, "class_median_windows", dict(self.class_median_windows))
        for t in [self.default_threshold, *self.class_thresholds.values()]:
            if not (0.0 < checked(t, "threshold", NUMBER) < 1.0):
                raise ValidationError(f"threshold {fmt_float(t)} outside (0, 1)")
        for w in [self.default_median_window, *self.class_median_windows.values()]:
            if checked(w, "median window", _WINDOW) % 2 == 0:
                raise ValidationError(f"median window {int(w)} must be odd")

    def threshold_for(self, class_name: str) -> float:
        return float(self.class_thresholds.get(class_name, self.default_threshold))

    def window_for(self, class_name: str) -> int:
        return int(self.class_median_windows.get(class_name, self.default_median_window))

    def threshold_vector(self, vocab: ClassVocabulary) -> np.ndarray:
        return np.array([self.threshold_for(c) for c in vocab.classes], dtype=np.float64)

    def window_vector(self, vocab: ClassVocabulary) -> np.ndarray:
        return np.array([self.window_for(c) for c in vocab.classes], dtype=np.int64)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PostProcessConfig":
        return cls(*read_fields(data, _DECODE_FIELDS, "decode config").values())

    @classmethod
    def load(cls, path: str | os.PathLike, vocab: ClassVocabulary) -> "PostProcessConfig":
        """Read decode_cfg.json; its class overrides must name classes of ``vocab``."""
        return load_json_object(path, lambda data: cls.from_dict(data)._known_classes(vocab))

    def _known_classes(self, vocab: ClassVocabulary) -> "PostProcessConfig":
        unknown = sorted({*self.class_thresholds, *self.class_median_windows} - {*vocab.classes})
        if unknown:
            raise ValidationError(f"class overrides for classes not in the vocabulary: {unknown}")
        return self


def binarize(grid: FrameGrid, cfg: PostProcessConfig, vocab: ClassVocabulary) -> BinaryGrid:
    """Activate cells whose posterior is >= the class threshold."""
    _check_columns(grid, vocab)
    active = grid.values >= cfg.threshold_vector(vocab)[None, :]
    return BinaryGrid(grid.clip_id, grid.hop_seconds, active)


# Cells per block of every dump-wide working set: the stacks of ``decode_many``,
# ``psds_many`` and the development sweeps, and the (k, position) pairs of a PSDS
# block of operating points. A float64 block is 2 MB, so it stays in cache.
_BLOCK_CELLS = 1 << 18


def _frame_groups(grids: Sequence[FrameGrid]) -> list[np.ndarray]:
    """Indices of the clips of each frame count, in input order, cut into blocks
    of whole clips holding at most ``_BLOCK_CELLS`` cells (one clip at least)."""
    groups: dict[int, list[int]] = {}
    for k, grid in enumerate(grids):
        groups.setdefault(grid.n_frames, []).append(k)
    blocks = []
    for idx in groups.values():
        size = max(1, _BLOCK_CELLS // grids[idx[0]].values.size)
        blocks += [np.asarray(idx[i : i + size]) for i in range(0, len(idx), size)]
    return blocks


@functools.lru_cache(maxsize=None)
def _median_network(window: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """Batcher's odd-even merge sort on ``window`` lanes, cut to what the middle lane needs.

    (i, j, keep_min, keep_max): lane i takes the pair's min, lane j its max."""
    pairs = []
    p = 1
    while p < window:
        k = p
        while k >= 1:
            for j in range(k % p, window - k, 2 * k):
                for i in range(min(k, window - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    needed, kept = {window // 2}, []
    for i, j in reversed(pairs):
        if i in needed or j in needed:
            kept.append((i, j, i in needed, j in needed))
            needed |= {i, j}
    return tuple(reversed(kept))


def _running_median(stack: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Centered, zero-padded running median along T of an (N, T, C) stack of counts, in place.

    Column c uses ``windows[c]``, one column at a time, so no (N, T, C, w) array. Any
    window of 2T + 1 or more holds more padding zeros than counts and gives 0: clamp it."""
    n, t = stack.shape[:2]
    for c, window in enumerate(windows.tolist()):
        window = min(window, 2 * t + 1)
        if window == 1:
            continue
        pad = window // 2
        padded = np.zeros((n, t + 2 * pad), dtype=stack.dtype)
        padded[:, pad : pad + t] = stack[:, :, c]
        lanes = [padded[:, s : s + t] for s in range(window)]
        for i, j, keep_min, keep_max in _median_network(window):
            a, b = lanes[i], lanes[j]
            if keep_min:
                lanes[i] = np.minimum(a, b)
            if keep_max:
                lanes[j] = np.maximum(a, b)
        stack[:, :, c] = lanes[pad]
    return stack


def _majority(stack: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """``_running_median`` of an (N, T, C) stack of 0s and 1s, in place. The median
    of 0s and 1s is 1 where the window holds more 1s than 0s, so each window's
    1s are summed by w - 1 shifted adds, where the sorting network compares
    more: 0.24 against 0.54 ms at w = 7 on a block of 2^18 cells."""
    n, t = stack.shape[:2]
    for c, window in enumerate(windows.tolist()):
        window = min(window, 2 * t + 1)
        if window == 1:
            continue
        pad = window // 2
        # A clamped window reaches 2T + 1 cells, 1,025 at T = 512: no uint8 for it.
        padded = np.zeros((n, t + 2 * pad), dtype=np.min_scalar_type(window))
        padded[:, pad : pad + t] = stack[:, :, c]
        count = padded[:, :t].copy()
        for s in range(1, window):
            count += padded[:, s : s + t]
        stack[:, :, c] = count > pad
    return stack


def _smoothed_levels(stack: np.ndarray, ops: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """The decode kernel: per cell of an (N, T, C) posterior stack, how many rows of
    the increasing operating points ``ops`` ((K, C) or (K, 1)) it reaches, then
    median-smoothed along T (module docstring)."""
    if len(ops) == 1:  # levels 0 and 1, whose median is a majority vote
        return _majority((stack >= ops[0]).view(np.uint8), windows)
    # zeros_like keeps the stack's layout: parsed grids are column-major.
    levels = np.zeros_like(stack, dtype=np.min_scalar_type(len(ops)))
    for row in ops:
        levels += stack >= row
    return _running_median(levels, windows)


def _active_runs(active: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(clip, class, start, end_exclusive) of the maximal runs of the nonzero cells
    of an (N, T, C) stack, ordered by clip, then class, then start.

    The reader for one level: there it is about 3.5x faster than ``_level_runs``,
    and the development sweeps read hundreds of one-threshold blocks."""
    n, t, n_classes = active.shape
    rows = np.zeros((n, n_classes, t + 1), dtype=bool)  # a False after each row ends its runs
    rows[:, :, :t] = active.transpose(0, 2, 1)
    flat = rows.reshape(-1)
    change = flat.copy()
    change[1:] ^= flat[:-1]
    edge = np.flatnonzero(change)  # rises and falls alternate: each run's start, then its end
    rise, fall = edge[0::2], edge[1::2]
    row = rise // (t + 1)
    return row // n_classes, row % n_classes, rise - row * (t + 1), fall - row * (t + 1)


def _level_runs(
    levels: np.ndarray, n_levels: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]], Callable]:
    """(up, down, blocks, block_runs) for the maximal runs of ``levels > k`` along a
    1-D array of levels in [0, n_levels] with 0 beyond both ends, for each k in
    [0, n_levels).

    A step up from lo to hi at up[i] starts a run for each k in [lo, hi); a step
    down ends one, so the n-th start and the n-th end of one k bound the same run.
    ``blocks`` cuts [0, n_levels) into [k0, k1) whose runs expand to at most
    ``_BLOCK_CELLS`` (k, position) pairs, one level at least, and
    ``block_runs(k0, k1)`` gives (k - k0, i, j) for block [k0, k1), by k, then i:
    run n spans [up[i[n]], down[j[n]]). It clips the steps to [k0, k1], and makes
    a block's arrays only when asked, so a caller holds one block at a time. k
    keeps the dtype of ``levels``: a 16-bit or narrower one gets numpy's radix sort."""
    edges = np.zeros(len(levels) + 2, dtype=levels.dtype)
    edges[1:-1] = levels
    before, after = edges[:-1], edges[1:]
    up = np.flatnonzero(after > before)
    down = np.flatnonzero(after < before)
    up_lo, up_hi, down_lo, down_hi = before[up], after[up], after[down], before[down]
    runs = np.bincount(up_lo, minlength=n_levels + 1) - np.bincount(up_hi, minlength=n_levels + 1)
    reach = np.cumsum(2 * np.cumsum(runs[:n_levels]))  # (k, position) pairs of the levels [0, k]
    blocks, k0 = [], 0
    while k0 < n_levels:
        below = reach[k0 - 1] if k0 else 0
        k1 = max(k0 + 1, int(np.searchsorted(reach, below + _BLOCK_CELLS, side="right")))
        blocks.append((k0, k1))
        k0 = k1

    def block_runs(k0: int, k1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k, start = _steps_by_level(np.clip(up_lo, k0, k1) - k0, np.clip(up_hi, k0, k1) - k0)
        _, end = _steps_by_level(np.clip(down_lo, k0, k1) - k0, np.clip(down_hi, k0, k1) - k0)
        return k, start, end

    return up, down, blocks, block_runs


def _steps_by_level(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, step) for every k in [lo, hi) of each step, stably sorted by k."""
    counts = (hi - lo).astype(np.int64)
    step = np.repeat(np.arange(len(lo)), counts)
    first = np.cumsum(counts) - counts
    k = (lo[step] + (np.arange(len(step)) - first[step])).astype(lo.dtype)
    order = np.argsort(k, kind="stable")
    return k[order], step[order]


def _run_times(
    hops: np.ndarray, clip: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run [a, b) of clip k spans (a*hop_k, b*hop_k) seconds."""
    onset, offset = start * hops[clip], end * hops[clip]
    if not np.isfinite(offset).all():
        i = np.flatnonzero(~np.isfinite(offset))[0]
        raise ValidationError(
            f"non-finite event time: frame {end[i]} at hop {fmt_float(hops[clip[i]])} s"
        )
    return onset, offset


def _events(clip_ids: Sequence[str], hops: np.ndarray, vocab: ClassVocabulary,
            clip, cls, start, end) -> EventList:
    """Run [a, b) of clip k becomes the event (a*hop_k, b*hop_k)."""
    onset, offset = _run_times(hops, clip, start, end)
    runs = zip(clip.tolist(), cls.tolist(), onset.tolist(), offset.tolist())
    return EventList([Event(clip_ids[k], a, b, vocab.classes[c]) for k, c, a, b in runs])


def median_smooth(bgrid: BinaryGrid, cfg: PostProcessConfig, vocab: ClassVocabulary) -> BinaryGrid:
    """Per-class binary median (= majority) filter with the class window."""
    _check_columns(bgrid, vocab)
    values = _majority(bgrid.values[None].copy(), cfg.window_vector(vocab))[0]
    return BinaryGrid(bgrid.clip_id, bgrid.hop_seconds, values)


def extract_events(bgrid: BinaryGrid, vocab: ClassVocabulary) -> EventList:
    """Run-length decode: run [a, b] becomes the event (a*hop, (b+1)*hop)."""
    _check_columns(bgrid, vocab)
    return _events([bgrid.clip_id], np.array([bgrid.hop_seconds]), vocab,
                   *_active_runs(bgrid.values[None]))


def decode(grid: FrameGrid, cfg: PostProcessConfig, vocab: ClassVocabulary) -> EventList:
    """Threshold, median-smooth and extract events for one clip."""
    return decode_many([grid], cfg, vocab)


def decode_many(
    grids: Sequence[FrameGrid], cfg: PostProcessConfig, vocab: ClassVocabulary
) -> EventList:
    """Decode a whole dump; events follow clip order, then class order, then onset."""
    return _reduced(grids, vocab, cfg, events=True, ops=None).events(vocab)


@dataclass
class ReducedDump:
    """A dump reduced to what decoding and PSDS read of it, in clip order: each
    clip's id, hop and frame count; if asked, the runs of ``decode_many``,
    (clip, class, start, end) arrays ordered by clip, class and start; and if
    asked, the PSDS levels: ``level_row(c)`` holds clip j's smoothed levels of
    class c at [first_j, first_j + frames_j), then a 0 that ends its runs
    (``first_j`` the sum of frames_i + 1 over the clips before j)."""

    clip_ids: list[str]
    hops: np.ndarray
    frames: np.ndarray
    runs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
    levels: list[np.ndarray] | None  # in parts of consecutive clips, joined by ``level_row``

    @property
    def durations(self) -> list[float]:
        """Each clip's ``FrameGrid.duration_seconds``."""
        return (self.frames * self.hops).tolist()

    def events(self, vocab: ClassVocabulary) -> EventList:
        return _events(self.clip_ids, self.hops, vocab, *self.runs)

    def level_row(self, c: int) -> np.ndarray:
        """Row c of the levels, the parts joined only here: so the levels of a
        whole dump are never held twice."""
        return np.concatenate([part[c] for part in self.levels])


def _reduced(
    grids: Sequence[FrameGrid], vocab: ClassVocabulary, cfg: PostProcessConfig,
    events: bool, ops: Sequence[float] | None,
) -> ReducedDump:
    """``grids`` reduced: the runs decoded at the thresholds of ``cfg`` if
    ``events``, the levels at the increasing operating points ``ops`` (one row
    for every class) unless None, each median-smoothed with the windows of ``cfg``.
    Each block of ``_frame_groups`` is stacked once for both."""
    for grid in grids:
        _check_columns(grid, vocab)
    windows = cfg.window_vector(vocab)
    thresholds = cfg.threshold_vector(vocab)[None]
    frames = np.array([g.n_frames for g in grids], dtype=np.int64)
    first = np.cumsum(frames + 1) - (frames + 1)
    levels = None
    if ops is not None:
        levels = np.zeros((len(vocab), int(np.sum(frames + 1))), dtype=np.min_scalar_type(len(ops)))
        op_column = np.asarray(ops)[:, None]  # one pass per operating point covers every class
    parts = []
    for idx in _frame_groups(grids):
        stack = np.stack([grids[k].values for k in idx])
        if events:
            clip, cls, start, end = _active_runs(_smoothed_levels(stack, thresholds, windows))
            parts.append((idx[clip], cls, start, end))
        if levels is not None:
            pos = first[idx][:, None] + np.arange(stack.shape[1])
            levels[:, pos] = _smoothed_levels(stack, op_column, windows).transpose(2, 0, 1)
    runs = None
    if events:
        if not parts:  # no grid
            parts = [(np.zeros(0, np.int64),) * 4]
        clip, cls, start, end = (np.concatenate(arrays) for arrays in zip(*parts))
        order = np.argsort(clip, kind="stable")
        runs = clip[order], cls[order], start[order], end[order]
    hops = np.array([g.hop_seconds for g in grids])
    return ReducedDump([g.clip_id for g in grids], hops, frames, runs,
                       None if levels is None else [levels])


def _joined(blocks: Sequence[ReducedDump]) -> ReducedDump:
    """The ``ReducedDump`` of the consecutive clips of ``blocks``, one at least."""
    runs = levels = None
    if blocks[0].runs is not None:
        parts, first = [], 0  # ``first``: the index of the block's first clip
        for b in blocks:
            clip, *rest = b.runs
            parts.append((clip + first, *rest))
            first += len(b.clip_ids)
        runs = tuple(map(np.concatenate, zip(*parts)))
    if blocks[0].levels is not None:
        levels = [part for b in blocks for part in b.levels]
    return ReducedDump(
        [clip_id for b in blocks for clip_id in b.clip_ids],
        np.concatenate([b.hops for b in blocks]),
        np.concatenate([b.frames for b in blocks]),
        runs, levels,
    )


def read_reduced(
    path: str | os.PathLike, cfg: PostProcessConfig, events: bool, ops: Sequence[float] | None
) -> tuple[ReducedDump, ClassVocabulary]:
    """A grid dump and its vocabulary (``parse_framegrids``), each block of at
    most ``_BLOCK_CELLS`` cells reduced (``_reduced``) in the process that
    parsed it, so no float of the dump is held past its block. The dump is
    that of ``_reduced`` over the parsed grids."""
    blocks, vocab = reduce_framegrids(
        path, lambda grids, vocab: _reduced(grids, vocab, cfg, events=events, ops=ops),
        _BLOCK_CELLS,
    )
    return _joined(blocks), vocab


def rasterize(
    events: EventList,
    hop_seconds: float,
    frames: int,
    vocab: ClassVocabulary,
    clip_id: str | None = None,
) -> BinaryGrid:
    """Frame f is active iff f*hop lies inside [onset, offset) of an event.

    All events must belong to one clip; pass ``clip_id`` explicitly when
    the list may be empty.
    """
    if frames < 1:
        raise ValidationError("frames must be >= 1")
    clip_ids = {ev.clip_id for ev in events}
    if len(clip_ids) > 1:
        raise ValidationError(f"events span multiple clips: {sorted(clip_ids)}")
    if clip_id is None:
        if not clip_ids:
            raise ValidationError("empty event list needs an explicit clip_id")
        clip_id = next(iter(clip_ids))
    elif clip_ids and next(iter(clip_ids)) != clip_id:
        raise ValidationError(f"events belong to {next(iter(clip_ids))!r}, not {clip_id!r}")

    clip_end = frames * hop_seconds
    times = np.arange(frames, dtype=np.float64) * hop_seconds
    values = np.zeros((frames, len(vocab)), dtype=bool)
    for ev in events:
        if ev.offset > clip_end + 1e-9:
            raise ValidationError(
                f"{clip_id}: event ending at {ev.offset} extends past clip end {clip_end}"
            )
        values[(times >= ev.onset) & (times < ev.offset), vocab.index(ev.event_label)] = True
    return BinaryGrid(clip_id, hop_seconds, values)
