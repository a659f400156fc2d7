"""Scoring: collar-based event F1 and polyphonic detection scores (PSDS).

Collar F1 matches detections to references per (clip, class) with a
maximum-cardinality bipartite matching, so the score is order-independent
and checkable against brute force. One matcher, ``_collar_matches``, works
on ``(key, onset, offset)`` event arrays; ``match_events`` and ``event_f1``
wrap it, and the development sweeps of :mod:`sedfuse.fusion` call it on
decoded runs directly. PSDS sweeps decision thresholds,
classifies detections with intersection criteria (detection tolerance,
ground-truth coverage, cross-trigger tolerance), builds per-class ROC
staircases of true-positive rate against effective false-positive rate
per hour, and integrates the across-class effective curve up to ``e_max``.

The sweep decodes each dump once with the decode kernel of
:mod:`sedfuse.decode` (``decode._reduced``, or ``decode.read_reduced`` as the
dump is parsed): each cell counts the operating points it reaches,
the class median smooths the counts, and since ``ops`` is strictly
increasing, a smoothed count exceeds ``k`` exactly where decoding at
``ops[k]`` is active. A step up from count ``lo`` to ``hi`` starts a run at
every operating point in ``[lo, hi)`` and a step down ends one, so one pass
per class gives each operating point the detections that decoding at its
threshold would give, in (clip, onset) order. ``psds_many`` smooths the grids
to those levels and ``psds_counted`` counts from levels alone, so scoring a
dump parsed to its levels takes the same path. Operating points are swept in
blocks of at most ``decode._BLOCK_CELLS`` (operating point, position) pairs;
a block's per-run arrays are made when it is counted and released before the
next block's.

Counting has no loop over operating points or detections. A run's onset and
offset are the times of its level steps, so a class's own coverage is read
once per step. Within each ``k`` runs are disjoint and in onset order, so one
search of the keys ``k * m + step`` serves a whole block: ``tp`` keeps one
sequential prefix sum per ``k`` (``np.add.accumulate`` along a padded array,
as one ``_Coverage`` per ``k`` would), and cross-triggers score only runs that
touch a merged reference piece of the other class (offset >= start, onset <
end; at offset == start the prefix entry is rounded). Any other run has both
ends in one gap, where ``covered_before`` gives one prefix entry for both: its
ratio is exactly 0, below any ``cttc > 0``.

Each class writes only its own counts, and everything the sweep reads of the
reference is built before it. So ``psds_counted`` deals its classes in
contiguous blocks to every free CPU (``core._dealt``), each block at least
``_MIN_PSDS_CELLS`` cells times operating points, and each child counts its own
classes' rows of the levels it shares with this process. The counts are
integers, so the reports are the serial pass's; if no child can be had or one
fails, the whole count runs again in this process, and an error is the serial
pass's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ClassVocabulary,
    EventList,
    FrameGrid,
    ANY,
    NUMBER,
    ValidationError,
    _blocks,
    _dealt,
    checked,
    fmt_float,
    list_of,
    read_fields,
)
from . import decode
from .decode import (
    PostProcessConfig,
    ReducedDump,
    _level_runs,
)


# ---------------------------------------------------------------------------
# Collar-based event F1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollarConfig:
    """Onset/offset tolerances for event matching.

    The offset tolerance is the larger of a fixed collar and a fraction
    of the reference event's length.
    """

    onset_collar: float = 0.2
    offset_collar_min: float = 0.2
    offset_collar_ratio: float = 0.2

    def __post_init__(self):
        for v in (self.onset_collar, self.offset_collar_min, self.offset_collar_ratio):
            if v < 0:
                raise ValidationError(f"collar value {fmt_float(v)} must be >= 0")


def events_compatible(ref_onset, ref_offset, est_onset, est_offset, cfg: CollarConfig):
    """Collar predicate for a (reference, estimate) pair; elementwise on arrays."""
    offset_collar = np.maximum(
        cfg.offset_collar_min, cfg.offset_collar_ratio * (ref_offset - ref_onset)
    )
    return (np.abs(est_onset - ref_onset) <= cfg.onset_collar) & (
        np.abs(est_offset - ref_offset) <= offset_collar
    )


def _kuhn_matching(adjacency: Sequence[Sequence[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching; returns right-side partner per left node.

    Kuhn's augmenting paths, found by depth-first search in adjacency order
    on an explicit stack, so long paths cannot hit the recursion limit.
    """
    match_right = [-1] * n_right
    for root in range(len(adjacency)):
        visited = [False] * n_right
        stack = [iter(adjacency[root])]
        path = [root]  # left and right nodes alternate along the search path
        while stack:
            v = next((x for x in stack[-1] if not visited[x]), -1)
            if v == -1:
                stack.pop()
                del path[-2:]
                continue
            visited[v] = True
            if match_right[v] == -1:
                path.append(v)
                for u, x in zip(path[::2], path[1::2]):
                    match_right[x] = u
                break
            path += [v, match_right[v]]
            stack.append(iter(adjacency[match_right[v]]))
    match_left = [-1] * len(adjacency)
    for v, u in enumerate(match_right):
        if u != -1:
            match_left[u] = v
    return match_left


# Events as arrays: (key, onset, offset), where the key numbers the (clip, class) group.
_EventArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _event_arrays(
    events: EventList, clips: dict[str, int], classes: dict[str, int]
) -> _EventArrays:
    """Key ``events`` by the class numbers and by clip numbers, which a new clip extends."""
    clip = [clips.setdefault(ev.clip_id, len(clips)) for ev in events]
    cls = [classes[ev.event_label] for ev in events]
    return (
        np.array(clip, dtype=np.int64) * len(classes) + np.array(cls, dtype=np.int64),
        np.array([ev.onset for ev in events], dtype=np.float64),
        np.array([ev.offset for ev in events], dtype=np.float64),
    )


def _lex(key: np.ndarray, value: np.ndarray) -> np.ndarray:
    """(key, value) pairs as complex numbers, which numpy sorts and searches
    lexicographically: by real part, then imaginary part."""
    out = np.empty(len(key), dtype=np.complex128)
    out.real, out.imag = key, value
    return out


def _collar_matches(
    ref: _EventArrays, est: _EventArrays, cfg: CollarConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-cardinality one-to-one matching within each key: (ref, est) index arrays.

    Each reference is joined to the estimates of its key whose onset lies
    within twice the onset collar, with slack for rounding, and
    ``events_compatible`` keeps the edges. An edge whose two ends have no
    other edge is matched; Kuhn's algorithm matches each key's other edges.
    """
    ref_key, ref_on, ref_off = ref
    est_key, est_on, est_off = est
    est_pos = _lex(est_key, est_on)
    by_key = np.argsort(est_pos, kind="stable")
    sorted_est = est_pos[by_key]
    reach = 2.0 * cfg.onset_collar + 1e-9 * np.abs(ref_on)
    lo = np.searchsorted(sorted_est, _lex(ref_key, ref_on - reach), side="left")
    counts = np.searchsorted(sorted_est, _lex(ref_key, ref_on + reach), side="right") - lo
    # Candidate i of reference r sits at sorted position lo[r] + i.
    r = np.repeat(np.arange(len(ref_key)), counts)
    e = by_key[np.arange(len(r)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    keep = events_compatible(ref_on[r], ref_off[r], est_on[e], est_off[e], cfg)
    r, e = r[keep], e[keep]

    alone = (np.bincount(r)[r] == 1) & (np.bincount(e)[e] == 1)
    pairs = [(r[alone], e[alone])]
    r, e = r[~alone], e[~alone]
    order = np.argsort(ref_key[r], kind="stable")
    r, e = r[order], e[order]
    cuts = np.flatnonzero(np.diff(ref_key[r])) + 1
    for group_r, group_e in zip(np.split(r, cuts), np.split(e, cuts)):
        if not len(group_r):
            continue
        left, u = np.unique(group_r, return_inverse=True)
        right, v = np.unique(group_e, return_inverse=True)
        adjacency: list[list[int]] = [[] for _ in left]
        for a, b in zip(u.tolist(), v.tolist()):
            adjacency[a].append(b)
        match = np.array(_kuhn_matching(adjacency, len(right)))
        pairs.append((left[match >= 0], right[match[match >= 0]]))
    return np.concatenate([p[0] for p in pairs]), np.concatenate([p[1] for p in pairs])


def match_events(
    ref: EventList, est: EventList, cfg: CollarConfig = CollarConfig()
) -> list[tuple[int, int]]:
    """Maximum-cardinality one-to-one matching within each (clip, class).

    Returns (ref_index, est_index) pairs into the two input lists; each
    event is matched at most once.
    """
    clips: dict[str, int] = {}
    classes = {name: c for c, name in enumerate(sorted(ref.label_set() | est.label_set()))}
    matched = _collar_matches(
        _event_arrays(ref, clips, classes), _event_arrays(est, clips, classes), cfg
    )
    return sorted(zip(*(m.tolist() for m in matched)))


@dataclass(frozen=True)
class ClassScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


def _prf(tp: int, fp: int, fn: int) -> ClassScore:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassScore(tp, fp, fn, precision, recall, f1)


@dataclass
class F1Report:
    """Per-class counts and scores plus the unweighted macro F1."""

    per_class: dict[str, ClassScore]
    macro_f1: float

    def to_dict(self) -> dict:
        return asdict(self)


def event_f1(
    ref: EventList,
    est: EventList,
    cfg: CollarConfig = CollarConfig(),
    vocab: ClassVocabulary | None = None,
) -> F1Report:
    """Collar-based event F1; macro averages over every vocabulary class."""
    if vocab is None:
        vocab = ClassVocabulary(tuple(sorted(ref.label_set() | est.label_set())))
    ref.validate_vocab(vocab)
    est.validate_vocab(vocab)
    clips: dict[str, int] = {}
    classes = {name: c for c, name in enumerate(vocab.classes)}
    return _collar_f1(
        _event_arrays(ref, clips, classes), _event_arrays(est, clips, classes), cfg, vocab
    )


def _collar_f1(
    ref: _EventArrays, est: _EventArrays, cfg: CollarConfig, vocab: ClassVocabulary
) -> F1Report:
    """``event_f1`` of event arrays keyed ``clip * len(vocab) + class``."""
    n_classes = len(vocab)
    matched, _ = _collar_matches(ref, est, cfg)
    tp = np.bincount(ref[0][matched] % n_classes, minlength=n_classes).tolist()
    n_ref = np.bincount(ref[0] % n_classes, minlength=n_classes).tolist()
    n_est = np.bincount(est[0] % n_classes, minlength=n_classes).tolist()
    per_class = {
        name: _prf(tp[c], n_est[c] - tp[c], n_ref[c] - tp[c])
        for c, name in enumerate(vocab.classes)
    }
    macro = sum(s.f1 for s in per_class.values()) / len(per_class)
    return F1Report(per_class, macro)


# ---------------------------------------------------------------------------
# PSDS
# ---------------------------------------------------------------------------


DEFAULT_OPERATING_POINTS = tuple(float(t) for t in np.linspace(0.01, 0.99, 50))
_POINTS = list_of(None, "a list of numbers")


@dataclass(frozen=True)
class PSDSConfig:
    """Detection/ground-truth/cross-trigger criteria and ROC parameters.

    The two conventional parameterizations are provided as ``PSDS1`` and
    ``PSDS2`` below; both are plain config, not constants of the scorer.
    """

    dtc: float = 0.7
    gtc: float = 0.7
    cttc: float = 0.3
    alpha_ct: float = 0.0
    alpha_st: float = 1.0
    e_max: float = 100.0
    operating_points: tuple[float, ...] = DEFAULT_OPERATING_POINTS

    def __post_init__(self):
        for name in ("dtc", "gtc", "cttc", "alpha_ct", "alpha_st", "e_max"):
            checked(getattr(self, name), name, NUMBER)
        points = checked(self.operating_points, "operating_points", _POINTS)
        pts = tuple(checked(t, "operating point", NUMBER) for t in points)
        object.__setattr__(self, "operating_points", pts)
        for name, v in (("dtc", self.dtc), ("gtc", self.gtc), ("cttc", self.cttc)):
            if not (0.0 < v <= 1.0):
                raise ValidationError(f"{name}={fmt_float(v)} outside (0, 1]")
        if self.alpha_ct < 0 or self.alpha_st < 0:
            raise ValidationError("alpha_ct and alpha_st must be >= 0")
        if not self.e_max > 0:
            raise ValidationError("e_max must be > 0")
        if not pts:
            raise ValidationError("operating_points must be non-empty")
        if any(not (0.0 < t < 1.0) for t in pts):
            raise ValidationError("operating points must lie in (0, 1)")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValidationError("operating points must be strictly increasing")

    @classmethod
    def from_dict(cls, data: Mapping) -> "PSDSConfig":
        return cls(**read_fields(data, _PSDS_FIELDS, "PSDS config"))

    def to_dict(self) -> dict:
        return {**asdict(self), "operating_points": list(self.operating_points)}


# psds_cfg.json: PSDSConfig checks every value itself.
_PSDS_FIELDS = {f.name: (ANY, f.default) for f in fields(PSDSConfig)}
PSDS1 = PSDSConfig(dtc=0.7, gtc=0.7, cttc=0.3, alpha_ct=0.0, alpha_st=1.0, e_max=100.0)
PSDS2 = PSDSConfig(dtc=0.1, gtc=0.1, cttc=0.3, alpha_ct=0.5, alpha_st=1.0, e_max=100.0)


@dataclass
class PSDSReport:
    """PSDS value with the effective curve and per-class ROC points."""

    psds: float
    effective_curve: list[tuple[float, float, float]]
    class_rocs: dict[str, list[tuple[float, float, float]]]

    def to_dict(self) -> dict:
        return asdict(self)


class _Coverage:
    """Total covered time of sorted disjoint intervals, vectorized queries."""

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        self.starts = starts
        self.ends = ends
        self.prefix = np.concatenate([[0.0], np.cumsum(ends - starts)])

    @classmethod
    def from_intervals(cls, starts: np.ndarray, ends: np.ndarray) -> "_Coverage":
        """Build from possibly overlapping intervals by merging."""
        if len(starts) == 0:
            return cls(np.empty(0), np.empty(0))
        order = np.argsort(starts, kind="stable")
        # An interval starts a new union piece where it begins after every earlier end.
        starts, reach = starts[order], np.maximum.accumulate(ends[order])
        first = np.flatnonzero(np.r_[True, starts[1:] > reach[:-1]])
        return cls(starts[first], reach[np.r_[first[1:], len(starts)] - 1])

    def covered_before(self, x: np.ndarray) -> np.ndarray:
        if not len(self.starts):
            return np.zeros(len(x))
        j = np.searchsorted(self.starts, x, side="right")
        return self.prefix[j] - np.where(j >= 1, np.maximum(0.0, self.ends[j - 1] - x), 0.0)


def _reference_clips(dump: ReducedDump, ref: EventList) -> np.ndarray:
    """The clip index of each reference event's clip, which must hold the event."""
    clip_index = {clip_id: k for k, clip_id in enumerate(dump.clip_ids)}
    if len(clip_index) != len(dump.clip_ids):
        raise ValidationError("duplicate clip ids in grids")
    missing = {ev.clip_id for ev in ref} - set(clip_index)
    if missing:
        raise ValidationError(f"reference clips without grids: {sorted(missing)}")
    clip = np.array([clip_index[ev.clip_id] for ev in ref])
    durations = dump.durations
    for ev, k in zip(ref, clip.tolist()):
        if ev.offset > durations[k] + 1e-9:
            raise ValidationError(
                f"{ev.clip_id}: reference event ending at {ev.offset} extends "
                f"past the clip's {durations[k]}s"
            )
    return clip


def _check_lengths(lengths: np.ndarray, clip_of) -> None:
    """Name the clip ``clip_of(i)`` of the first event i the time line left no length."""
    if not (lengths > 0).all():
        raise ValidationError(
            f"{clip_of(np.argmin(lengths > 0))}: an event has no length once its clip is "
            "placed on the dataset's time line; clip durations are too large to score"
        )


def _row_coverage(on_key, on, off, m, r0, r1, up_t, gt_on, gt_off) -> np.ndarray:
    """(r1 - r0, refs): share of [gt_on, gt_off) covered by the runs of each row k in
    [r0, r1), keyed as in _touching; the runs given are those of these rows."""
    op = on_key // m - r0
    counts = np.bincount(op, minlength=r1 - r0)
    row = np.cumsum(counts) - counts
    prefix = np.zeros((r1 - r0, counts.max() + 1))
    prefix[op, np.arange(len(op)) - row[op] + 1] = off - on
    np.add.accumulate(prefix, axis=1, out=prefix)  # one sequential sum per row
    x, first = np.concatenate([gt_off, gt_on]), row[:, None]
    # Row k's detections that start at or before x are keyed below k * m + (steps up to x).
    j = np.searchsorted(on_key, np.arange(r0, r1)[:, None] * m + np.searchsorted(up_t, x, "right"))
    j -= first
    overshoot = off[first + j - 1] - x
    overshoot[(j < 1) | (overshoot < 0.0)] = 0.0
    before = np.take_along_axis(prefix, j, axis=1) - overshoot
    return (before[:, : len(gt_off)] - before[:, len(gt_off) :]) / (gt_off - gt_on)


def _touching(on_key, off_key, m, up_t, down_t, cov: _Coverage, n_rows: int) -> np.ndarray:
    """Ascending indices of the detections with offset >= s and onset < e for a piece [s, e)
    of ``cov``. Row k's run from step i to step j has the keys k * m + i and k * m + j."""
    row = np.repeat(np.arange(n_rows) * m, len(cov.starts))
    lo = np.searchsorted(off_key, row + np.tile(np.searchsorted(down_t, cov.starts), n_rows))
    hi = np.searchsorted(on_key, row + np.tile(np.searchsorted(up_t, cov.ends), n_rows))
    lo[1:] = np.maximum(lo[1:], hi[:-1])  # merge overlapping ranges: no detection twice
    counts = np.maximum(hi - lo, 0)
    return np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


# A sweep is dealt to no more parts than it holds of these cells times operating
# points. A fork, its transfer and its reap took about 3 ms in a process holding
# a 600-clip dump on a 2-vCPU host, where a class of that dump (3.1e5 cells
# times 50 points) took 47 to 54 ms with its smoothing, about 3.3 ns per cell
# per point. So each part holds about 55 ms of work or more, and the 8-clip
# sets (2.0e6 cells times operating points) are not dealt.
_MIN_PSDS_CELLS = 1 << 24


def psds_many(
    grids: Sequence[FrameGrid],
    ref: EventList,
    decode_cfg: PostProcessConfig,
    psds_cfgs: Sequence[PSDSConfig],
    vocab: ClassVocabulary,
) -> list[PSDSReport]:
    """Score several PSDS parameterizations sharing one detection sweep.

    All configs must use the same operating points (they share the decoded
    detections; only the counting criteria differ). The grids are smoothed to
    their levels at those points (``decode._reduced``), then counted by
    ``psds_counted`` (module docstring).
    """
    ops = psds_cfgs[0].operating_points if psds_cfgs else None
    dump = decode._reduced(grids, vocab, decode_cfg, events=False, ops=ops)
    return psds_counted(dump, ref, psds_cfgs, vocab)


def psds_counted(
    dump: ReducedDump,
    ref: EventList,
    psds_cfgs: Sequence[PSDSConfig],
    vocab: ClassVocabulary,
) -> list[PSDSReport]:
    """``psds_many`` of a dump reduced to its levels at the configs' operating
    points: the classes are counted on every free CPU (module docstring)."""
    if not ref.events:
        raise ValidationError("reference event list is empty")
    if not dump.clip_ids:
        raise ValidationError("no posterior grids given")
    if not psds_cfgs:
        raise ValidationError("no PSDS configs given")
    if len({cfg.operating_points for cfg in psds_cfgs}) > 1:
        raise ValidationError("all PSDS configs must share operating points")
    ref.validate_vocab(vocab)
    durations = dump.durations
    total_dur = float(sum(durations))
    if not total_dur > 0:
        raise ValidationError("dataset duration must be > 0")

    ref_clip = _reference_clips(dump, ref)

    # Disjoint global bands, one per clip, so coverage queries span the dataset.
    band = max(durations) + 1.0
    bases = np.arange(len(durations), dtype=np.float64) * band

    n_classes = len(vocab)
    ref_cls = np.array([vocab.index(ev.event_label) for ev in ref])
    ref_base = bases[ref_clip]
    ref_on = np.array([ev.onset for ev in ref]) + ref_base
    ref_off = np.array([ev.offset for ev in ref]) + ref_base
    _check_lengths(ref_off - ref_on, lambda i: ref.events[i].clip_id)
    gt_on_arr = [ref_on[ref_cls == c] for c in range(n_classes)]
    gt_off_arr = [ref_off[ref_cls == c] for c in range(n_classes)]
    gt_cov = [_Coverage.from_intervals(on, off) for on, off in zip(gt_on_arr, gt_off_arr)]
    n_ref = np.bincount(ref_cls, minlength=n_classes)
    gt_dur = np.array([float(np.sum(off - on)) for on, off in zip(gt_on_arr, gt_off_arr)])
    evaluated = np.flatnonzero(n_ref > 0)

    ops = psds_cfgs[0].operating_points
    n_cfg, n_op = len(psds_cfgs), len(ops)

    # Sweep level crossings (module docstring). Clip j's levels sit at
    # dump.level_row(c)[first[j]:first[j] + frames[j]], then a 0 that ends its runs.
    frames, hops = dump.frames, dump.hops
    first = np.cumsum(frames + 1) - (frames + 1)
    cross = evaluated if any(cfg.alpha_ct > 0 for cfg in psds_cfgs) else evaluated[:0]

    def clip_of(at):  # the clip of each position of a row of levels
        return np.searchsorted(first, at, side="right") - 1

    def class_counts(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tp[:, :, c], fp[:, :, c], ct[:, :, c, :]) from class c's row of levels."""
        tp = np.zeros((n_cfg, n_op), dtype=np.int64)
        fp = np.zeros((n_cfg, n_op), dtype=np.int64)
        ct = np.zeros((n_cfg, n_op, n_classes), dtype=np.int64)
        up, down, blocks, block_runs = _level_runs(dump.level_row(c), n_op)
        up_t, down_t = (
            (at - first[k]) * hops[k] + bases[k]
            for at, k in ((up, clip_of(up)), (down, clip_of(down)))
        )
        up_cov, down_cov = gt_cov[c].covered_before(up_t), gt_cov[c].covered_before(down_t)
        m = max(len(up), len(down))  # keys k * m + step order a block's runs

        def count_block(k0: int, k1: int, op, start, end) -> None:
            """The counts of the levels [k0, k1); the block's per-run arrays are
            released on return, before the next block's are made."""
            n_block = k1 - k0
            on, off = up_t[start], down_t[end]
            lengths = off - on
            _check_lengths(lengths, lambda i: dump.clip_ids[clip_of(up[start[i]])])
            ratio_same = (down_cov[end] - up_cov[start]) / lengths
            passing = [ratio_same >= cfg.dtc for cfg in psds_cfgs]
            on_key, off_key = (op.astype(np.int64) * m + at for at in (start, end))
            for gi, cfg in enumerate(psds_cfgs):
                fp[gi, k0:k1] = np.bincount(op[~passing[gi]], minlength=n_block)
                kept = np.flatnonzero(passing[gi])
                if n_ref[c] > 0:  # row groups whose (rows, 2 * refs) searches fit the budget
                    rows = max(1, decode._BLOCK_CELLS // (2 * int(n_ref[c])))
                    keys = on_key[kept]
                    cut = np.searchsorted(keys, np.arange(0, n_block + rows, rows) * m)
                    for r0, i, j in zip(range(0, n_block, rows), cut[:-1], cut[1:]):
                        if j > i:
                            r1, d = min(r0 + rows, n_block), kept[i:j]
                            share = _row_coverage(keys[i:j], on[d], off[d], m, r0, r1,
                                                  up_t, gt_on_arr[c], gt_off_arr[c])
                            tp[gi, k0 + r0 : k0 + r1] = np.sum(share >= cfg.gtc, axis=1)
            # Only detections that touch c2's coverage can cross-trigger (module docstring).
            for c2 in cross[cross != c]:
                cov = gt_cov[c2]
                d = _touching(on_key, off_key, m, up_t, down_t, cov, n_block)
                covered = cov.covered_before(off[d]) - cov.covered_before(on[d])
                ratio_cross = covered / lengths[d]
                for gi, cfg in enumerate(psds_cfgs):
                    if cfg.alpha_ct > 0:
                        hit = d[~passing[gi][d] & (ratio_cross >= cfg.cttc)]
                        ct[gi, k0:k1, c2] = np.bincount(op[hit], minlength=n_block)

        for k0, k1 in blocks:
            count_block(k0, k1, *block_runs(k0, k1))
        return tp, fp, ct

    cells = int(np.sum(frames)) * n_classes
    counts = _dealt(lambda part: map(class_counts, part),
                    _blocks(n_classes, cells * n_op // _MIN_PSDS_CELLS))
    tp, fp, ct = (np.stack(arrays, axis=2) for arrays in zip(*counts))
    return [
        _roc_report(cfg, ops, vocab, evaluated, n_ref, gt_dur, total_dur, tp[gi], fp[gi], ct[gi])
        for gi, cfg in enumerate(psds_cfgs)
    ]


def _roc_report(
    cfg: PSDSConfig,
    ops: Sequence[float],
    vocab: ClassVocabulary,
    evaluated: np.ndarray,
    n_ref: np.ndarray,
    gt_dur: np.ndarray,
    total_dur: float,
    tp: np.ndarray,
    fp: np.ndarray,
    ct: np.ndarray,
) -> PSDSReport:
    """Per-class monotone ROC staircases and the integrated effective curve."""
    n_op = len(ops)
    tpr = np.zeros((n_op, len(evaluated)))
    efpr = np.zeros((n_op, len(evaluated)))
    for j, c in enumerate(evaluated):
        tpr[:, j] = tp[:, c] / n_ref[c]
        rate = fp[:, c] * 3600.0 / total_dur
        if cfg.alpha_ct > 0 and len(evaluated) > 1:
            others = [c2 for c2 in evaluated if c2 != c]
            ctr = np.stack(
                [ct[:, c, c2] * 3600.0 / gt_dur[c2] for c2 in others], axis=1
            )
            rate = rate + cfg.alpha_ct * ctr.mean(axis=1)
        efpr[:, j] = rate

    # Monotone non-decreasing upper staircase per class.
    stairs = []
    for j in range(len(evaluated)):
        order = np.lexsort((tpr[:, j], efpr[:, j]))
        stairs.append((efpr[order, j], np.maximum.accumulate(tpr[order, j])))
    grid = np.unique(np.concatenate([[0.0, cfg.e_max], *(x[x <= cfg.e_max] for x, _ in stairs)]))

    step_tpr = np.zeros((len(grid), len(evaluated)))
    for j, (x, y) in enumerate(stairs):
        idx = np.searchsorted(x, grid, side="right") - 1
        step_tpr[:, j] = np.where(idx >= 0, y[np.maximum(idx, 0)], 0.0)

    mean_tpr = step_tpr.mean(axis=1)
    std_tpr = step_tpr.std(axis=1)
    etpr = np.maximum(mean_tpr - cfg.alpha_st * std_tpr, 0.0)
    area = float(np.sum(np.diff(grid) * etpr[:-1]))
    value = area / cfg.e_max

    effective_curve = list(zip(grid.tolist(), mean_tpr.tolist(), std_tpr.tolist()))
    class_rocs = {
        vocab.classes[c]: list(zip(ops, efpr[:, j].tolist(), tpr[:, j].tolist()))
        for j, c in enumerate(evaluated)
    }
    return PSDSReport(value, effective_curve, class_rocs)


def psds(
    grids: Sequence[FrameGrid],
    ref: EventList,
    decode_cfg: PostProcessConfig,
    psds_cfg: PSDSConfig,
    vocab: ClassVocabulary,
) -> PSDSReport:
    """Polyphonic detection score over the configured operating points."""
    return psds_many(grids, ref, decode_cfg, [psds_cfg], vocab)[0]


# ---------------------------------------------------------------------------
# Report tables
# ---------------------------------------------------------------------------


@dataclass
class ReportTables:
    """System-level metric grid plus the class-by-system F1 breakdown."""

    systems: list[str]
    overall: dict[str, dict[str, float | None]]
    classwise: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "systems": list(self.systems),
            "overall": {k: dict(v) for k, v in self.overall.items()},
            "classwise_f1": {k: dict(v) for k, v in self.classwise.items()},
        }

    def to_text(self) -> str:
        def pct(x: float | None) -> str:
            return "-" if x is None else f"{100.0 * x:.1f}"

        lines = []
        headers = ["System", "Collar-based F1", "PSDS1", "PSDS2"]
        rows = [
            [name, pct(m.get("collar_f1")), pct(m.get("psds1")), pct(m.get("psds2"))]
            for name, m in self.overall.items()
        ]
        lines.extend(_aligned(headers, rows))
        if self.classwise:
            lines.append("")
            headers = ["Event class", *self.systems]
            rows = [
                [name, *[pct(per_system.get(s)) for s in self.systems]]
                for name, per_system in self.classwise.items()
            ]
            lines.extend(_aligned(headers, rows))
        return "\n".join(lines) + "\n"


def _aligned(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    out.extend(fmt.format(*row) for row in rows)
    return out


def report_tables(
    f1_reports: Mapping[str, F1Report],
    psds1_reports: Mapping[str, PSDSReport] | None = None,
    psds2_reports: Mapping[str, PSDSReport] | None = None,
) -> ReportTables:
    """Assemble the systems x metrics grid and the class-wise F1 table."""
    psds1_reports = psds1_reports or {}
    psds2_reports = psds2_reports or {}
    systems = list(f1_reports)
    for extra in (psds1_reports, psds2_reports):
        for name in extra:
            if name not in systems:
                systems.append(name)
    overall: dict[str, dict[str, float | None]] = {}
    for name in systems:
        f1 = f1_reports.get(name)
        p1 = psds1_reports.get(name)
        p2 = psds2_reports.get(name)
        overall[name] = {
            "collar_f1": f1.macro_f1 if f1 else None,
            "psds1": p1.psds if p1 else None,
            "psds2": p2.psds if p2 else None,
        }
    classwise: dict[str, dict[str, float]] = {}
    for name in systems:
        f1 = f1_reports.get(name)
        if not f1:
            continue
        for cls, score in f1.per_class.items():
            classwise.setdefault(cls, {})[name] = score.f1
    return ReportTables(systems, overall, classwise)
