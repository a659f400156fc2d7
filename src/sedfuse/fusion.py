"""Prediction-combination mathematics for frame-level posteriors.

Three fusion families over M aligned model dumps:

* pair blending: ``alpha * p_a + (1 - alpha) * p_b`` with ``alpha`` fitted
  post-hoc by grid search on a development set;
* class-wise discriminative fusion: per class, a softmax over the models'
  development-set F1 scores (scaled by ``beta``) weights the posteriors.
  ``normalized`` mode makes the weights a convex combination; ``faithful``
  mode additionally divides by M, which scales every output by 1/M and is
  kept for fidelity (binarizing faithful output at t/M equals binarizing
  normalized output at t);
* baselines: equal-weight average and per-class logistic regression fused
  at frame level, trained with deterministic damped Newton (IRLS).

Pair (weights ``[alpha, 1 - alpha]``) and class-wise fusion share one kernel,
``_fuse_into``, and ``fit_alpha`` and ``sweep_beta`` one development loop,
``_dev_curve``, whose one objective is the development macro collar F1. It
works block by block, each block at most ``decode._BLOCK_CELLS`` cells: it
stacks a block once, then every parameter fuses it into one reused buffer
and decodes it with the decode kernel, so the block stays in cache across
the sweep. Each parameter's runs are scored
with the array matcher of :mod:`sedfuse.metrics`, so no ``Event`` object is
built. The logistic fit holds one class's design matrix at a time, built
from the per-clip grids, with boolean targets, and sums its products over
fixed row blocks. The sweeps deal their parameters and the logistic fit its
classes to forked children (``_in_blocks``, on ``core._map_forked``), with
the serial pass's results. The average keeps ``np.mean``: through the
kernel, 44% of seed-42 cells move by up to 2.2e-16, and the frozen average
F1 rests on ``np.mean``.

All math is pure and deterministic with fixed summation order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from .core import (
    ANY,
    NAMES,
    NUMBER,
    REQUIRED,
    ClassVocabulary,
    EventList,
    FrameGrid,
    ValidationError,
    _blocks,
    _check_columns,
    _map_forked,
    _NoChild,
    atomic_write_text,
    checked,
    fmt_float,
    list_of,
    load_json_object,
    read_fields,
)
from .decode import (
    _BLOCK_CELLS,
    PostProcessConfig,
    _active_runs,
    _frame_groups,
    _run_times,
    _smoothed_levels,
    rasterize,
)
from .metrics import CollarConfig, F1Report, _collar_f1, _event_arrays

DEFAULT_BETA_SWEEP = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)

_BCE_EPS = 1e-12

_LOGISTIC_MAX_ITER = 10000  # Newton steps per class, at most
_LOGISTIC_TOL = 1e-8


def _require_aligned(grids: Sequence[FrameGrid]) -> FrameGrid:
    if not grids:
        raise ValidationError("need at least one grid")
    first = grids[0]
    for g in grids[1:]:
        if (
            g.clip_id != first.clip_id
            or g.values.shape != first.values.shape
            or g.hop_seconds != first.hop_seconds
        ):
            raise ValidationError(
                f"grids not aligned: ({first.clip_id}, {first.values.shape}, "
                f"{first.hop_seconds}) vs ({g.clip_id}, {g.values.shape}, {g.hop_seconds})"
            )
    return first


# ---------------------------------------------------------------------------
# The weighted-fusion kernel
# ---------------------------------------------------------------------------


def _fuse_weighted(
    clips: Sequence[Sequence[FrameGrid]], weights: np.ndarray
) -> list[FrameGrid]:
    """Fuse aligned clip groups with ``(M, C)`` weights whose columns sum to one.

    Anchored form ``g_1 + sum_{m>1} W[m] * (g_m - g_1)``, clipped to [0, 1]:
    it equals the convex sum ``sum_m W[m] * g_m`` and fuses M copies of one
    grid back to that grid bit-exactly. A model whose weight row is exactly
    1.0 everywhere (alpha 0 or 1, a single model) is returned as is.
    """
    sole = _sole_model(weights)
    fused = []
    for group in clips:
        first = group[0]
        _check_weights(weights, len(group), first.n_classes)
        if sole is not None:
            values = group[sole].values
        else:
            diffs = [g.values - first.values for g in group[1:]]
            values = _fuse_into(np.empty_like(first.values), first.values, diffs, weights)
            np.clip(values, 0.0, 1.0, out=values)
        fused.append(FrameGrid(first.clip_id, first.hop_seconds, values))
    return fused


def _sole_model(weights: np.ndarray) -> int | None:
    """The model whose weight row is exactly 1.0 everywhere, if any."""
    if len(weights) == 1:  # the anchored form is g_1, whatever the weight
        return 0
    sole = np.flatnonzero((weights == 1.0).all(axis=1))
    return int(sole[0]) if sole.size else None


def _check_weights(weights: np.ndarray, n_models: int, n_classes: int) -> None:
    if weights.shape != (n_models, n_classes):
        raise ValidationError(
            f"{weights.shape[0]} x {weights.shape[1]} weights for "
            f"{n_models} grids of {n_classes} classes"
        )


def _fuse_into(
    out: np.ndarray, base: np.ndarray, diffs: Sequence[np.ndarray], weights: np.ndarray
) -> np.ndarray:
    """The kernel: ``out = base + W[1] * diffs[0] + W[2] * diffs[1] + ...``, summed
    left to right; ``diffs[m - 1]`` is ``g_{m+1} - g_1``, classes on the last axis.
    Unclipped: a cell that rounding puts above 1 or below 0 reaches the levels of
    1.0 or 0.0 at the sweeps' thresholds, all in (0, 1); ``_fuse_weighted`` clips."""
    np.multiply(diffs[0], weights[1], out=out)
    np.add(base, out, out=out)
    for m in range(2, len(weights)):
        out += weights[m] * diffs[m - 1]
    return out


# ---------------------------------------------------------------------------
# Pair combination
# ---------------------------------------------------------------------------


def _pair_weights(alpha: float, n_classes: int) -> np.ndarray:
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha {fmt_float(alpha)} outside [0, 1]")
    return np.array([[alpha] * n_classes, [1.0 - alpha] * n_classes])


def combine_pair(p_a: FrameGrid, p_b: FrameGrid, alpha: float) -> FrameGrid:
    """Elementwise convex combination ``alpha * p_a + (1 - alpha) * p_b``."""
    first = _require_aligned([p_a, p_b])
    return _fuse_weighted([(p_a, p_b)], _pair_weights(alpha, first.n_classes))[0]


@dataclass
class CurveFit:
    """A parameter fitted on a development set with its (value, score) curve (higher = better)."""

    parameter: str
    best: float
    curve: list[tuple[float, float]]
    objective: ClassVar[str] = "macro-collar-f1"

    def save(self, path: str | os.PathLike) -> None:
        """curves.json: the fitted parameter with its (value, score) sweep."""
        record = {
            "parameter": self.parameter,
            "objective": self.objective,
            "best": self.best,
            "curve": [[p, s] for p, s in self.curve],
        }
        atomic_write_text(path, json.dumps(record, indent=2) + "\n")


def frame_bce(grids: Sequence[FrameGrid], truth: EventList, vocab: ClassVocabulary) -> float:
    """Mean binary cross-entropy of posteriors against rasterized truth."""
    if not grids:
        raise ValidationError("no frames to score")
    y = _frame_targets(grids, truth, vocab)
    p = np.clip(np.concatenate([g.values for g in grids]), _BCE_EPS, 1.0 - _BCE_EPS)
    return float(-np.mean(np.where(y, np.log(p), np.log1p(-p))))


def _frame_targets(
    grids: Sequence[FrameGrid], truth: EventList, vocab: ClassVocabulary
) -> np.ndarray:
    """The rasterized truth of every frame of ``grids``, clip after clip: (frames, C) booleans."""
    by_clip = truth.by_clip()
    return np.concatenate([
        rasterize(EventList(by_clip.get(g.clip_id, [])), g.hop_seconds, g.n_frames, vocab,
                  clip_id=g.clip_id).values
        for g in grids
    ])


def _dev_curve(
    clips: Sequence[Sequence[FrameGrid]], params: Sequence[float],
    weights_for: Callable[[float], np.ndarray], dev_truth: EventList,
    decode_cfg: PostProcessConfig, vocab: ClassVocabulary, collar: CollarConfig,
) -> list[tuple[float, float]]:
    """The development macro collar F1 of fusing with ``weights_for(p)``, for each parameter.

    Blocks go outside and parameters inside: each block of
    at most ``decode._BLOCK_CELLS`` cells, clips of one frame count, is
    stacked once with each ``g_m - g_1``; every parameter fuses it into one
    reused buffer and decodes it with the decode kernel. Each parameter's
    runs, concatenated in block order, are then matched as arrays: the score
    equals decoding and matching the grids of ``_fuse_weighted``.

    The callers are ``fit_alpha`` and ``sweep_beta``. The parameters are
    dealt in contiguous blocks to every free CPU (``core._cpus``), each block
    at least ``_MIN_SWEEP_CELLS`` cells of the M stacked models times
    parameters (``_in_blocks``), and each block is swept on its own; the
    curves join in parameter order.
    """
    if not clips:
        raise ValidationError("development set is empty")
    if not dev_truth.events:
        raise ValidationError("development truth is empty")
    firsts = [group[0] for group in clips]
    for grid in firsts:
        _check_columns(grid, vocab)
    n_models = len(clips[0])
    all_weights = [weights_for(p) for p in params]
    for weights in all_weights:
        _check_weights(weights, n_models, len(vocab))
    thresholds, windows = decode_cfg.threshold_vector(vocab)[None], decode_cfg.window_vector(vocab)
    clip_numbers: dict[str, int] = {}
    dump_clip = np.array([clip_numbers.setdefault(g.clip_id, len(clip_numbers)) for g in firsts])
    truth = _event_arrays(dev_truth, clip_numbers, {c: i for i, c in enumerate(vocab.classes)})
    hops = np.array([g.hop_seconds for g in firsts])

    def curve(part: range) -> list[tuple[float, float]]:
        part_weights = [all_weights[i] for i in part]
        runs: list[list[tuple[np.ndarray, ...]]] = [[] for _ in part]
        for idx in _frame_groups(firsts):
            base = np.stack([clips[k][0].values for k in idx])
            diffs = [np.stack([clips[k][m].values for k in idx]) for m in range(1, n_models)]
            for diff in diffs:
                np.subtract(diff, base, out=diff)
            buffer = np.empty_like(base)  # parsed grids are column-major: fuse in their order
            for weights, param_runs in zip(part_weights, runs):
                sole = _sole_model(weights)
                if sole is None:
                    stack = _fuse_into(buffer, base, diffs, weights)
                else:
                    stack = np.stack([clips[k][sole].values for k in idx])
                clip, cls, start, end = _active_runs(_smoothed_levels(stack, thresholds, windows))
                param_runs.append((idx[clip], cls, start, end))
        points = []
        for i, param_runs in zip(part, runs):
            clip, cls, start, end = (np.concatenate(arrays) for arrays in zip(*param_runs))
            onset, offset = _run_times(hops, clip, start, end)
            detected = (dump_clip[clip] * len(vocab) + cls, onset, offset)
            points.append((params[i], _collar_f1(truth, detected, collar, vocab).macro_f1))
        return points

    cells = sum(grid.values.size for grid in firsts) * n_models
    return _in_blocks(curve, len(params), cells * len(params) // _MIN_SWEEP_CELLS)


# A sweep is dealt to no more parts than it holds of these model cells times
# parameters, and a logistic fit to no more than it holds of these rows times
# classes. A fork, its transfer and its reap took about 3 ms in a process
# holding three 200-clip dumps on a 2-vCPU host, where a model cell cost a
# sweep about 3 ns per parameter and a row cost the logistic fit about 0.3 us
# per class. So each part holds about 50 and 40 ms of work or more, and the
# 8-clip sets (8.3e6 model cells times parameters for an alpha fit, 4.1e4 rows
# times classes) are not dealt.
_MIN_SWEEP_CELLS = 1 << 24
_MIN_FIT_ROWS = 1 << 17


def _in_blocks(work: Callable[[range], list], n: int, most: int) -> list:
    """``work(range(n))``, one result per item, with the items dealt in at
    most ``most`` blocks (``core._blocks``) to ``core._map_forked``. If no
    child can be made or one fails, ``work(range(n))`` runs here."""
    try:
        with _map_forked(work, _blocks(n, most)) as results:
            return list(results)
    except _NoChild:
        return work(range(n))


def fit_alpha(
    dev_pairs: Sequence[tuple[FrameGrid, FrameGrid]],
    dev_truth: EventList,
    decode_cfg: PostProcessConfig,
    vocab: ClassVocabulary,
    collar: CollarConfig = CollarConfig(),
) -> CurveFit:
    """Grid-search alpha over {0.00, 0.01, ..., 1.00} on a development set.

    Ties are broken toward 0.5, then toward the smaller alpha, so a flat
    curve lands on the balanced blend.
    """
    for pair in dev_pairs:
        _require_aligned(pair)
    curve = _dev_curve(
        dev_pairs, [i / 100.0 for i in range(101)],
        lambda alpha: _pair_weights(alpha, len(vocab)),
        dev_truth, decode_cfg, vocab, collar,
    )
    best_score = max(s for _, s in curve)
    candidates = [a for a, s in curve if s == best_score]
    alpha = min(candidates, key=lambda a: (abs(a - 0.5), a))
    return CurveFit("alpha", alpha, curve)


# ---------------------------------------------------------------------------
# Class-wise discriminative fusion
# ---------------------------------------------------------------------------


@dataclass
class ClassF1Table:
    """Development-set class-wise F1 per model: the fusion's skill matrix."""

    models: tuple[str, ...]
    classes: tuple[str, ...]
    values: np.ndarray  # (M, C)

    def __post_init__(self):
        self.models = tuple(self.models)
        self.classes = tuple(self.classes)
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.shape != (len(self.models), len(self.classes)):
            raise ValidationError(
                f"F1 table shape {arr.shape} does not match "
                f"{len(self.models)} models x {len(self.classes)} classes"
            )
        if len(self.models) < 1:
            raise ValidationError("F1 table needs at least one model")
        if not ((arr >= 0.0) & (arr <= 1.0)).all():
            raise ValidationError("F1 values must lie in [0, 1]")
        arr.setflags(write=False)
        self.values = arr

    @classmethod
    def from_reports(
        cls, reports: Mapping[str, F1Report], vocab: ClassVocabulary
    ) -> "ClassF1Table":
        models = tuple(reports)
        values = np.array(
            [[reports[m].per_class[c].f1 for c in vocab.classes] for m in models]
        )
        return cls(models, vocab.classes, values)

    def save(self, path: str | os.PathLike) -> None:
        record = {
            "models": list(self.models),
            "classes": list(self.classes),
            "f1": self.values.tolist(),
        }
        atomic_write_text(path, json.dumps(record, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ClassF1Table":
        def build(data: dict) -> ClassF1Table:
            models, classes, f1 = read_fields(data, _F1_FIELDS, "F1 table").values()
            row = list_of(NUMBER, f"a list of {len(classes)} numbers", len(classes))
            return cls(models, classes, checked(f1, "f1", list_of(row, "a list of rows")))

        return load_json_object(path, build)


# f1_table.json; ``f1`` is checked against the class count.
_F1_FIELDS = {"models": (NAMES, REQUIRED), "classes": (NAMES, REQUIRED), "f1": (ANY, REQUIRED)}


@dataclass
class FusionWeights:
    """Per-class softmax weights over models; columns sum to one."""

    values: np.ndarray  # (M, C)
    mode: str = "normalized"

    def __post_init__(self):
        if self.mode not in ("normalized", "faithful"):
            raise ValidationError(f"unknown fusion mode {self.mode!r}")
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValidationError("weights must be an M x C matrix")
        if not np.isfinite(arr).all():
            raise ValidationError("weights must be finite")
        if (arr < 0.0).any():
            raise ValidationError("weights must be non-negative")
        sums = arr.sum(axis=0)
        off = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
        if off.size:
            raise ValidationError(
                f"weight column {off[0]} sums to {fmt_float(sums[off[0]])}, not 1"
            )
        arr.setflags(write=False)
        self.values = arr


def classwise_weights(
    table: ClassF1Table, beta: float, mode: str = "normalized"
) -> FusionWeights:
    """Per-class softmax of ``beta * F1`` over models (max-subtracted)."""
    if not np.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {fmt_float(beta)}")
    scaled = beta * table.values
    scaled = scaled - scaled.max(axis=0, keepdims=True)
    expd = np.exp(scaled)
    weights = expd / expd.sum(axis=0, keepdims=True)
    return FusionWeights(weights, mode)


def fuse_classwise(grids: Sequence[FrameGrid], weights: FusionWeights) -> FrameGrid:
    """Weighted per-class combination of M aligned grids.

    ``normalized`` mode is the convex combination (fusing identical grids
    returns the grid unchanged); ``faithful`` mode divides the result by M.
    """
    _require_aligned(grids)
    fused = _fuse_weighted([grids], weights.values)[0]
    if weights.mode == "faithful":
        return FrameGrid(fused.clip_id, fused.hop_seconds, fused.values / len(grids))
    return fused


def fuse_average(grids: Sequence[FrameGrid]) -> FrameGrid:
    """Elementwise equal-weight average of M aligned grids."""
    first = _require_aligned(grids)
    mean = np.clip(np.mean([g.values for g in grids], axis=0), 0.0, 1.0)
    return FrameGrid(first.clip_id, first.hop_seconds, mean)


def sweep_beta(
    model_grids: Sequence[Sequence[FrameGrid]],
    f1_table: ClassF1Table,
    dev_truth: EventList,
    betas: Sequence[float],
    decode_cfg: PostProcessConfig,
    vocab: ClassVocabulary,
    collar: CollarConfig = CollarConfig(),
) -> CurveFit:
    """Decode and score each beta on the development set; ties pick min beta."""
    if not betas:
        raise ValidationError("beta list is empty")
    curve = _dev_curve(
        _aligned_clip_sets(model_grids), [float(b) for b in betas],
        lambda beta: classwise_weights(f1_table, beta).values,
        dev_truth, decode_cfg, vocab, collar,
    )
    best_score = max(s for _, s in curve)
    best_beta = min(b for b, s in curve if s == best_score)
    return CurveFit("beta", best_beta, curve)


def _aligned_clip_sets(
    model_grids: Sequence[Sequence[FrameGrid]],
) -> list[list[FrameGrid]]:
    """Transpose the models x clips structure into per-clip model groups."""
    if not model_grids:
        raise ValidationError("need at least one model")
    n_clips = len(model_grids[0])
    for grids in model_grids:
        if len(grids) != n_clips:
            raise ValidationError("models carry different clip counts")
    clips = []
    for k in range(n_clips):
        group = [grids[k] for grids in model_grids]
        _require_aligned(group)
        clips.append(group)
    return clips


# ---------------------------------------------------------------------------
# Logistic-regression fusion
# ---------------------------------------------------------------------------


def logistic_loss_and_grad(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Mean BCE of sigmoid(x @ w + b) against 0/1 targets, with gradients.

    Uses the softplus identity BCE = softplus(z) - y*z, which needs no
    probability clipping and stays exact for large |z|.
    """
    return _loss_grad_p(w, b, x, y)[:3]


def _loss_grad_p(w, b, x, y) -> tuple[float, np.ndarray, float, np.ndarray]:
    """``logistic_loss_and_grad`` and the probabilities p it computed on the way.
    Its products run on the row blocks of ``_row_blocks``."""
    blocks = _row_blocks(x)
    z = np.empty(len(x))
    for rows in blocks:
        np.matmul(x[rows], w, out=z[rows])
    z += b
    t = np.exp(-np.abs(z))
    p = np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    loss = float(np.mean(np.maximum(z, 0.0) - y * z + np.log1p(t)))
    err = p - y
    grad_w = sum((x[rows].T @ err[rows] for rows in blocks), np.zeros(x.shape[1])) / len(y)
    grad_b = float(np.mean(err))
    return loss, grad_w, grad_b, p


def _hessian(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``(x.T * (p * (1 - p))) @ x``, summed over the row blocks of ``_row_blocks``."""
    return sum(
        ((x[rows].T * (p[rows] * (1.0 - p[rows]))) @ x[rows] for rows in _row_blocks(x)),
        np.zeros((x.shape[1], x.shape[1])),
    )


def _row_blocks(x: np.ndarray) -> list[slice]:
    """Slices of at most ``decode._BLOCK_CELLS // x.shape[1]`` rows of x (65,536
    for M = 3 models and the bias): the logistic products run block by block,
    summed in block order. Each block's product stays below OpenBLAS's
    threading size, so the sums, and the fit's bytes, do not depend on the
    BLAS thread count, and a forked fit runs BLAS on its own thread."""
    size = max(1, _BLOCK_CELLS // max(1, x.shape[1]))
    return [slice(i, i + size) for i in range(0, len(x), size)]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


@dataclass
class LogisticFusionModel:
    """Per-class frame-level logistic fusion of M model posteriors.

    Classes whose development targets were degenerate (all active or all
    inactive) are flagged and fall back to the equal-weight average.
    """

    model_names: tuple[str, ...]
    classes: tuple[str, ...]
    weights: np.ndarray  # (C, M)
    bias: np.ndarray  # (C,)
    iterations: np.ndarray  # (C,)
    final_loss: np.ndarray  # (C,)
    fallback: np.ndarray  # (C,) bool
    grad_norm: np.ndarray  # (C,) final gradient norm over (w, b)

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValidationError("logistic fusion parameters must be finite")

    def metadata(self) -> dict:
        return {
            "models": list(self.model_names),
            "classes": list(self.classes),
            "iterations": self.iterations.tolist(),
            "final_loss": self.final_loss.tolist(),
            "fallback": self.fallback.tolist(),
            "grad_norm": self.grad_norm.tolist(),
        }


def _design_matrix(clips: Sequence[Sequence[FrameGrid]], c: int) -> np.ndarray:
    """Class ``c``'s C-ordered (frames, M + 1) features: each model's posteriors,
    clip after clip, then a column of ones; the bias is its weight, theta = (w, b)."""
    x = np.empty((sum(group[0].n_frames for group in clips), len(clips[0]) + 1))
    for m in range(len(clips[0])):
        np.concatenate([group[m].values[:, c] for group in clips], out=x[:, m])
    x[:, -1] = 1.0
    return x


def fit_logistic_fusion(
    model_grids: Sequence[Sequence[FrameGrid]],
    dev_truth: EventList,
    vocab: ClassVocabulary,
    model_names: Sequence[str] | None = None,
) -> LogisticFusionModel:
    """Per-class logistic regression on frame posteriors.

    Deterministic damped Newton (IRLS) on the weights and bias from zero
    initialization: each step solves the Hessian system, then halves until
    the loss does not rise, so descent is monotone. A class converges when
    its loss improves by less than ``_LOGISTIC_TOL``. The products with the
    (frames, M + 1) design matrix (``x @ w``, the gradient's ``x.T @ err``
    and the Hessian) are summed over the row blocks of ``_row_blocks``.

    The classes are dealt in contiguous blocks to every free CPU
    (``core._cpus``), each block at least ``_MIN_FIT_ROWS`` rows times classes
    (``_in_blocks``). Each process fits its classes one at a time, so it
    holds one class's design matrix at once.
    """
    if not dev_truth.events:
        raise ValidationError("development truth is empty")
    n_models = len(model_grids)
    if model_names is None:
        model_names = tuple(f"model_{m + 1}" for m in range(n_models))
    clips = _aligned_clip_sets(model_grids)
    y_all = _frame_targets([group[0] for group in clips], dev_truth, vocab)
    # Step damping only: keeps the Hessian solvable where p(1 - p) vanishes.
    ridge = 1e-10 * np.eye(n_models + 1)

    def fit(c: int) -> tuple[np.ndarray, float, int, float, bool, float]:
        """Class c's weights, bias, iterations, final loss, fallback and grad norm."""
        y = y_all[:, c]
        if y.min() == y.max():
            return np.full(n_models, 1.0 / n_models), 0.0, 0, float("nan"), True, float("nan")
        x = _design_matrix(clips, c)
        theta = np.zeros(n_models + 1)
        # p is sigmoid(x @ theta) of the call that accepted theta: x @ theta + 0.0 is x @ theta.
        loss, grad, _, p = _loss_grad_p(theta, 0.0, x, y)
        for it in range(1, _LOGISTIC_MAX_ITER + 1):
            step = np.linalg.solve(_hessian(x, p) / len(y) + ridge, grad)
            del p  # the line search sets p again; its trials can reuse this memory
            # Halve the Newton step until the loss does not rise; a step
            # that underflows to zero passes, so the loop ends.
            while True:
                new_loss, new_grad, _, p = _loss_grad_p(theta - step, 0.0, x, y)
                if new_loss <= loss:
                    break
                step *= 0.5
            improvement = loss - new_loss
            theta, loss, grad = theta - step, new_loss, new_grad
            if improvement < _LOGISTIC_TOL:
                break
        return theta[:-1], theta[-1], it, loss, False, float(np.linalg.norm(grad))

    n_classes = len(vocab)
    fits = _in_blocks(
        lambda part: [fit(c) for c in part], n_classes,
        y_all.shape[0] * n_classes // _MIN_FIT_ROWS,
    )
    weights, bias, iterations, final_loss, fallback, grad_norm = map(np.array, zip(*fits))
    return LogisticFusionModel(
        tuple(model_names), vocab.classes, weights, bias, iterations, final_loss, fallback,
        grad_norm,
    )


def apply_logistic_fusion(
    model: LogisticFusionModel, grids: Sequence[FrameGrid]
) -> FrameGrid:
    """Per-class sigmoid(w . p + b) per frame; fallback classes average."""
    first = _require_aligned(grids)
    if len(grids) != model.weights.shape[1]:
        raise ValidationError(
            f"model fuses {model.weights.shape[1]} inputs, got {len(grids)}"
        )
    if first.n_classes != len(model.classes):
        raise ValidationError(
            f"model covers {len(model.classes)} classes, grids have {first.n_classes}"
        )
    stack = np.stack([g.values for g in grids], axis=1)  # (T, M, C)
    out = np.empty((first.n_frames, first.n_classes))
    for c in range(first.n_classes):
        if model.fallback[c]:
            out[:, c] = stack[:, :, c].mean(axis=1)
        else:
            out[:, c] = _sigmoid(stack[:, :, c] @ model.weights[c] + model.bias[c])
    return FrameGrid(first.clip_id, first.hop_seconds, out)
