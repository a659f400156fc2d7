"""Fusion math: pair blending, class-wise softmax weights, logistic fusion."""

import dataclasses
import errno
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sedfuse import decode, fusion, metrics
from sedfuse.core import ClassVocabulary, Event, EventList, FrameGrid, ValidationError
from sedfuse.decode import PostProcessConfig, decode_many, rasterize
from sedfuse.fusion import (
    DEFAULT_BETA_SWEEP,
    ClassF1Table,
    FusionWeights,
    _fuse_weighted,
    _pair_weights,
    apply_logistic_fusion,
    classwise_weights,
    combine_pair,
    fit_alpha,
    fit_logistic_fusion,
    frame_bce,
    fuse_average,
    fuse_classwise,
    logistic_loss_and_grad,
    sweep_beta,
)
from sedfuse.metrics import CollarConfig, event_f1
from sedfuse.synth import ModelSkill, ScenarioConfig, gen_truth, simulate_model

VOCAB2 = ClassVocabulary(("a", "b"))


def grid(values, clip="c", hop=0.1):
    return FrameGrid(clip, hop, np.asarray(values, dtype=float))


def random_grid(rng, t=16, c=2, clip="c", hop=0.1):
    return FrameGrid(clip, hop, rng.random((t, c)))


class TestCombinePair:
    def test_alpha_one_returns_first_bit_exact(self, rng):
        a, b = random_grid(rng), random_grid(rng)
        out = combine_pair(a, b, 1.0)
        assert np.array_equal(out.values, a.values)

    def test_alpha_zero_returns_second_bit_exact(self, rng):
        a, b = random_grid(rng), random_grid(rng)
        out = combine_pair(a, b, 0.0)
        assert np.array_equal(out.values, b.values)

    def test_midpoint(self):
        out = combine_pair(grid([[0.2]]), grid([[0.6]]), 0.5)
        assert out.values[0, 0] == pytest.approx(0.4)

    def test_idempotent_on_equal_inputs(self, rng):
        a = random_grid(rng)
        same = FrameGrid(a.clip_id, a.hop_seconds, a.values)
        for alpha in (0.0, 0.3, 0.5, 0.77, 1.0):
            assert np.array_equal(combine_pair(a, same, alpha).values, a.values)

    def test_output_within_input_envelope(self, rng):
        for _ in range(50):
            a, b = random_grid(rng), random_grid(rng)
            alpha = float(rng.random())
            out = combine_pair(a, b, alpha).values
            lo = np.minimum(a.values, b.values)
            hi = np.maximum(a.values, b.values)
            assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_alpha_out_of_range(self, rng):
        with pytest.raises(ValidationError):
            combine_pair(random_grid(rng), random_grid(rng), 1.5)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValidationError):
            combine_pair(random_grid(rng, t=8), random_grid(rng, t=9), 0.5)


class TestClasswiseWeights:
    def test_beta_zero_uniform(self):
        table = ClassF1Table(("m1", "m2", "m3"), ("a", "b"), np.random.rand(3, 2))
        w = classwise_weights(table, 0.0)
        np.testing.assert_allclose(w.values, 1 / 3, atol=1e-15)

    def test_two_model_hand_value(self):
        # independent softmax evaluation of the (0.4, 0.6) column at beta=1
        table = ClassF1Table(("m1", "m2"), ("a",), [[0.4], [0.6]])
        w = classwise_weights(table, 1.0)
        denom = math.exp(0.4) + math.exp(0.6)
        assert w.values[0, 0] == pytest.approx(math.exp(0.4) / denom, abs=1e-12)
        assert w.values[0, 0] == pytest.approx(0.4502, abs=1e-4)
        assert w.values[1, 0] == pytest.approx(0.5498, abs=1e-4)

    def test_large_beta_concentrates(self, rng):
        # gaps are kept >= 0.4 so the softmax can saturate past 1 - 1e-6
        for _ in range(50):
            m = int(rng.integers(2, 6))
            best = rng.integers(0, m)
            column = rng.random(m) * 0.3
            column[best] = 0.7 + rng.random() * 0.3
            table = ClassF1Table(
                tuple(f"m{i}" for i in range(m)), ("a",), column.reshape(-1, 1)
            )
            w = classwise_weights(table, 50.0)
            assert w.values[best, 0] >= 1 - 1e-6

    def test_columns_sum_to_one(self, rng):
        for beta in (-3.0, 0.0, 1.0, 17.0, 50.0):
            table = ClassF1Table(
                ("m1", "m2", "m3", "m4"), ("a", "b", "c"), rng.random((4, 3))
            )
            w = classwise_weights(table, beta)
            np.testing.assert_allclose(w.values.sum(axis=0), 1.0, atol=1e-12)
            assert (w.values > 0).all()

    def test_shift_invariance(self, rng):
        values = rng.random((3, 2)) * 0.5
        table = ClassF1Table(("m1", "m2", "m3"), ("a", "b"), values)
        shifted = values.copy()
        shifted[:, 0] += 0.4  # constant shift of one full column
        table2 = ClassF1Table(("m1", "m2", "m3"), ("a", "b"), shifted)
        w1 = classwise_weights(table, 3.0)
        w2 = classwise_weights(table2, 3.0)
        np.testing.assert_allclose(w1.values, w2.values, atol=1e-12)

    def test_monotone_concentration(self, rng):
        column = np.array([0.3, 0.5, 0.8])
        table = ClassF1Table(("m1", "m2", "m3"), ("a",), column.reshape(-1, 1))
        w1 = classwise_weights(table, 2.0)
        w2 = classwise_weights(table, 5.0)
        assert w2.values[2, 0] > w1.values[2, 0]

    def test_nonfinite_beta_rejected(self):
        table = ClassF1Table(("m1",), ("a",), [[0.5]])
        with pytest.raises(ValidationError):
            classwise_weights(table, float("inf"))


class TestFuseClasswise:
    def test_identical_grids_identity(self, rng):
        g = random_grid(rng)
        table = ClassF1Table(("m1", "m2", "m3"), ("a", "b"), rng.random((3, 2)))
        for beta in (0.0, 1.0, 9.0):
            out = fuse_classwise([g, g, g], classwise_weights(table, beta))
            assert np.array_equal(out.values, g.values)

    def test_beta_zero_equals_mean(self, rng):
        grids = [random_grid(rng) for _ in range(4)]
        table = ClassF1Table(tuple("mnop"), ("a", "b"), rng.random((4, 2)))
        out = fuse_classwise(grids, classwise_weights(table, 0.0))
        mean = np.mean([g.values for g in grids], axis=0)
        np.testing.assert_allclose(out.values, mean, atol=1e-12)

    def test_faithful_hand_case(self):
        table = ClassF1Table(("m1", "m2"), ("a",), [[0.5], [0.5]])
        out = fuse_classwise(
            [grid([[0.4]]), grid([[0.8]])],
            classwise_weights(table, 0.0, mode="faithful"),
        )
        assert out.values[0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_faithful_equals_normalized_over_m(self, rng):
        grids = [random_grid(rng) for _ in range(3)]
        table = ClassF1Table(("m1", "m2", "m3"), ("a", "b"), rng.random((3, 2)))
        normalized = fuse_classwise(grids, classwise_weights(table, 2.0))
        faithful = fuse_classwise(grids, classwise_weights(table, 2.0, mode="faithful"))
        np.testing.assert_allclose(faithful.values, normalized.values / 3, atol=1e-15)

    def test_threshold_scaling_relation(self, rng):
        # binarized decisions agree when the faithful threshold is t / M
        # (M a power of two keeps the division exact)
        grids = [random_grid(rng, t=64) for _ in range(4)]
        table = ClassF1Table(tuple("mnop"), ("a", "b"), rng.random((4, 2)))
        normalized = fuse_classwise(grids, classwise_weights(table, 3.0))
        faithful = fuse_classwise(grids, classwise_weights(table, 3.0, mode="faithful"))
        t = 0.5
        np.testing.assert_array_equal(
            faithful.values >= t / 4, normalized.values >= t
        )

    def test_normalized_bounded_by_inputs(self, rng):
        grids = [random_grid(rng) for _ in range(3)]
        table = ClassF1Table(("m1", "m2", "m3"), ("a", "b"), rng.random((3, 2)))
        out = fuse_classwise(grids, classwise_weights(table, 4.0)).values
        stack = np.stack([g.values for g in grids])
        assert (out >= stack.min(axis=0) - 1e-12).all()
        assert (out <= stack.max(axis=0) + 1e-12).all()

    def test_misalignment_rejected(self, rng):
        table = ClassF1Table(("m1", "m2"), ("a", "b"), rng.random((2, 2)))
        with pytest.raises(ValidationError):
            fuse_classwise(
                [random_grid(rng, clip="c1"), random_grid(rng, clip="c2")],
                classwise_weights(table, 0.0),
            )

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([[0.5], [0.5], [0.5]], id="column-sums-to-1.5"),
            pytest.param([[0.5], [0.5 + 1e-8]], id="column-off-by-1e-8"),
            pytest.param([[float("nan")], [1.0]], id="nan"),
            pytest.param([[float("inf")], [1.0]], id="inf"),
            pytest.param([[-0.5], [1.5]], id="negative"),
        ],
    )
    def test_weights_must_be_convex(self, values):
        with pytest.raises(ValidationError):
            FusionWeights(values)

    def test_weights_sum_tolerance(self):
        FusionWeights([[0.5], [0.5 + 1e-12]])

    def test_single_model_within_tolerance_is_returned(self, rng):
        g = random_grid(rng, c=1)
        out = fuse_classwise([g], FusionWeights([[1.0 - 1e-12]]))
        assert np.array_equal(out.values, g.values)


@st.composite
def _fusion_case(draw):
    """M aligned grids and (M, C) weights on the simplex, sometimes one model's alone."""
    m, c, t = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    cells = hnp.arrays(np.float64, (t, c), elements=st.floats(0.0, 1.0))
    grids = [FrameGrid("c", 0.1, draw(cells)) for _ in range(m)]
    sole = draw(st.none() | st.integers(0, m - 1))
    if sole is None:
        # integer draws make zero weights and one-hot columns common
        raw = draw(hnp.arrays(np.int64, (m, c), elements=st.integers(0, 4))).astype(float)
        raw[draw(st.integers(0, m - 1))] += 1.0
        weights = raw / raw.sum(axis=0)
    else:
        weights = np.zeros((m, c))
        weights[sole] = 1.0
    return grids, weights, sole


class TestFusionKernel:
    @settings(max_examples=200, deadline=None)
    @given(case=_fusion_case(), alpha=st.floats(0.0, 1.0))
    def test_kernel_properties(self, case, alpha):
        grids, weights, sole = case
        out = fuse_classwise(grids, FusionWeights(weights)).values
        t, c = out.shape
        oracle = np.zeros((t, c))
        for m, g in enumerate(grids):
            for i in range(t):
                for j in range(c):
                    oracle[i, j] += weights[m, j] * g.values[i, j]
        np.testing.assert_allclose(out, oracle, rtol=0.0, atol=1e-12)
        assert ((out >= 0.0) & (out <= 1.0)).all()
        if sole is not None:
            assert np.array_equal(out, grids[sole].values)
        a, b = grids[0], grids[-1]
        pair = FusionWeights([[alpha] * c, [1.0 - alpha] * c])
        assert np.array_equal(
            combine_pair(a, b, alpha).values, fuse_classwise([a, b], pair).values
        )


class TestFuseAverage:
    def test_single_grid_identity(self, rng):
        g = random_grid(rng)
        assert np.array_equal(fuse_average([g]).values, g.values)

    def test_midpoint(self):
        out = fuse_average([grid([[0.0]]), grid([[1.0]])])
        assert out.values[0, 0] == pytest.approx(0.5)

    def test_matches_classwise_beta_zero(self, rng):
        grids = [random_grid(rng) for _ in range(3)]
        table = ClassF1Table(("m1", "m2", "m3"), ("a", "b"), rng.random((3, 2)))
        avg = fuse_average(grids)
        cw = fuse_classwise(grids, classwise_weights(table, 0.0))
        np.testing.assert_allclose(avg.values, cw.values, atol=1e-12)


def _oracle_pair_setup(rng, n_clips=6, t=64):
    """Truth plus (noise, oracle) grid pairs: best blend weight is 0."""
    vocab = VOCAB2
    hop = 0.1
    truth_events = []
    oracle_grids, noise_grids = [], []
    for k in range(n_clips):
        clip = f"c{k}"
        values = np.zeros((t, 2))
        start = int(rng.integers(0, t - 10))
        values[start : start + 8, 0] = 1.0
        truth_events.append(Event(clip, start * hop, (start + 8) * hop, "a"))
        oracle_grids.append(FrameGrid(clip, hop, values))
        noise_grids.append(FrameGrid(clip, hop, rng.random((t, 2))))
    return EventList(truth_events), oracle_grids, noise_grids


class TestFitAlpha:
    def test_flat_curve_tie_breaks_to_half(self, rng):
        truth, oracle, _ = _oracle_pair_setup(rng)
        fit = fit_alpha(
            [(g, FrameGrid(g.clip_id, g.hop_seconds, g.values)) for g in oracle],
            truth, PostProcessConfig(default_median_window=1), VOCAB2,
        )
        scores = {s for _, s in fit.curve}
        assert len(scores) == 1
        assert fit.best == 0.5

    def test_alpha_attains_curve_max(self, rng):
        truth, oracle, noise = _oracle_pair_setup(rng)
        fit = fit_alpha(
            list(zip(oracle, noise)), truth,
            PostProcessConfig(default_median_window=1), VOCAB2,
        )
        best = max(s for _, s in fit.curve)
        got = dict(fit.curve)[fit.best]
        assert got == best

    def test_empty_dev_set(self):
        with pytest.raises(ValidationError):
            fit_alpha([], EventList([]), PostProcessConfig(), VOCAB2)


class TestLogisticFusion:
    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            n = int(rng.integers(5, 40))
            m = int(rng.integers(1, 4))
            x = rng.random((n, m))
            y = (rng.random(n) < 0.5).astype(float)
            if y.min() == y.max():
                continue
            w = rng.normal(size=m)
            b = float(rng.normal())
            loss, gw, gb = logistic_loss_and_grad(w, b, x, y)
            eps = 1e-6
            for i in range(m):
                dw = np.zeros(m)
                dw[i] = eps
                lp, _, _ = logistic_loss_and_grad(w + dw, b, x, y)
                lm, _, _ = logistic_loss_and_grad(w - dw, b, x, y)
                fd = (lp - lm) / (2 * eps)
                assert gw[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)
            lp, _, _ = logistic_loss_and_grad(w, b + eps, x, y)
            lm, _, _ = logistic_loss_and_grad(w, b - eps, x, y)
            assert gb == pytest.approx((lp - lm) / (2 * eps), rel=1e-6, abs=1e-9)

    def test_fit_beats_equal_average(self, rng):
        truth, oracle, noise = _oracle_pair_setup(rng)
        model_grids = [oracle, noise]
        model = fit_logistic_fusion(model_grids, truth, VOCAB2)
        fused = [apply_logistic_fusion(model, [a, b]) for a, b in zip(*model_grids)]
        avg = [fuse_average([a, b]) for a, b in zip(*model_grids)]
        assert frame_bce(fused, truth, VOCAB2) <= frame_bce(avg, truth, VOCAB2)

    def test_single_perfect_model_auc(self, rng):
        truth, oracle, _ = _oracle_pair_setup(rng)
        model = fit_logistic_fusion([oracle], truth, VOCAB2)
        fused = [apply_logistic_fusion(model, [g]) for g in oracle]
        # class "a": every positive frame must outscore every negative frame
        scores_pos, scores_neg = [], []
        by_clip = truth.by_clip()
        for g in fused:
            target = rasterize(
                EventList(by_clip.get(g.clip_id, [])), g.hop_seconds, g.n_frames,
                VOCAB2, clip_id=g.clip_id,
            ).values[:, 0]
            scores_pos.extend(g.values[target, 0].tolist())
            scores_neg.extend(g.values[~target, 0].tolist())
        assert min(scores_pos) > max(scores_neg)

    def test_degenerate_class_falls_back_to_average(self, rng):
        # class "b" never occurs: all-zero targets
        truth, oracle, noise = _oracle_pair_setup(rng)
        model = fit_logistic_fusion([oracle, noise], truth, VOCAB2)
        assert bool(model.fallback[1])
        assert not bool(model.fallback[0])
        fused = apply_logistic_fusion(model, [oracle[0], noise[0]])
        expected = (oracle[0].values[:, 1] + noise[0].values[:, 1]) / 2
        np.testing.assert_allclose(fused.values[:, 1], expected, atol=1e-15)

    def test_separable_class_converges_with_finite_weights(self, rng):
        # a perfect oracle separates class "a" exactly: the optimum lies at
        # infinity, so only the loss-based stop can end the fit
        truth, oracle, noise = _oracle_pair_setup(rng)
        for model_grids in ([oracle], [oracle, noise]):
            model = fit_logistic_fusion(model_grids, truth, VOCAB2)
            assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()
            assert model.iterations[0] <= 25
            assert model.final_loss[0] <= 1e-6
            assert model.grad_norm[0] <= 1e-6

    def test_newton_reaches_gradient_descent_loss(self):
        vocab = ClassVocabulary(("a", "b", "c"))
        cfg = ScenarioConfig(
            seed=7, n_clips=12, frames_per_clip=128, classes=vocab.classes,
            events_per_clip=(1, 3), duration_seconds=(0.25, 3.0),
        )
        truth, _ = gen_truth(cfg)
        skills = [
            ModelSkill.uniform(3, miss_rate=0.1, false_alarm_rate=0.02,
                               jitter_frames=2, sharpness=6.0),
            ModelSkill.uniform(3, miss_rate=0.3, false_alarm_rate=0.01,
                               jitter_frames=0, sharpness=3.0),
            ModelSkill.uniform(3, miss_rate=0.05, false_alarm_rate=0.05,
                               jitter_frames=4, sharpness=10.0),
        ]
        model_grids = [
            simulate_model(truth, skill, cfg, seed=11 + m) for m, skill in enumerate(skills)
        ]
        model = fit_logistic_fusion(model_grids, truth, vocab)
        # final losses of the earlier full-batch gradient-descent fitter
        # (97, 141 and 160 iterations) on this fixture
        gradient_descent = [0.05654017531242072, 0.07100542765012696, 0.06781436730099756]
        assert not model.fallback.any()
        assert (model.final_loss <= gradient_descent).all()
        assert (model.grad_norm <= 1e-6).all()

    @pytest.mark.parametrize("args, events_per_clip", [((4, 8, 3), (0, 2)), ((3, 5, 1), (1, 1))])
    def test_newton_equals_loop_that_recomputes_p(self, args, events_per_clip):
        models, truth, vocab = _synthetic_dev_set(*args, events_per_clip=events_per_clip)
        model = fit_logistic_fusion(models, truth, vocab)
        assert model.fallback.any() and not model.fallback.all()
        expected = _newton_recomputing_p(models, truth, vocab)
        got = (model.weights, model.bias, model.iterations, model.final_loss, model.grad_norm)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b, equal_nan=True)

    def test_metadata_reports_convergence(self, rng):
        truth, oracle, noise = _oracle_pair_setup(rng)
        meta = fit_logistic_fusion([oracle, noise], truth, VOCAB2).metadata()
        assert set(meta) >= {"iterations", "final_loss", "grad_norm", "fallback"}
        assert meta["grad_norm"][0] <= 1e-6
        assert math.isnan(meta["grad_norm"][1])  # class "b" fell back

    def test_apply_zero_model_gives_half(self, rng):
        from sedfuse.fusion import LogisticFusionModel

        lm = LogisticFusionModel(
            ("m1", "m2"), VOCAB2.classes,
            np.zeros((2, 2)), np.zeros(2),
            np.zeros(2, dtype=np.int64), np.zeros(2), np.zeros(2, dtype=bool), np.zeros(2),
        )
        out = apply_logistic_fusion(lm, [random_grid(rng), random_grid(rng)])
        np.testing.assert_allclose(out.values, 0.5, atol=1e-15)

    def test_apply_matches_manual_sigmoid(self, rng):
        from sedfuse.fusion import LogisticFusionModel

        w = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        lm = LogisticFusionModel(
            ("m1", "m2", "m3"), VOCAB2.classes, w, b,
            np.zeros(2, dtype=np.int64), np.zeros(2), np.zeros(2, dtype=bool), np.zeros(2),
        )
        grids = [random_grid(rng) for _ in range(3)]
        out = apply_logistic_fusion(lm, grids)
        stack = np.stack([g.values for g in grids], axis=1)
        for c in range(2):
            z = stack[:, :, c] @ w[c] + b[c]
            np.testing.assert_allclose(
                out.values[:, c], 1 / (1 + np.exp(-z)), atol=1e-12
            )


class TestSweepBeta:
    def _setup(self, rng):
        truth, oracle, noise = _oracle_pair_setup(rng)
        table = ClassF1Table(("m1", "m2"), VOCAB2.classes, [[0.9, 0.5], [0.3, 0.5]])
        return truth, [oracle, noise], table

    def test_singleton(self, rng):
        truth, model_grids, table = self._setup(rng)
        cfg = PostProcessConfig(default_median_window=1)
        sweep = sweep_beta(model_grids, table, truth, [0.0], cfg, VOCAB2)
        assert sweep.best == 0.0
        avg = [fuse_average(list(pair)) for pair in zip(*model_grids)]
        from sedfuse.metrics import CollarConfig, event_f1

        avg_f1 = event_f1(truth, decode_many(avg, cfg, VOCAB2), CollarConfig(), VOCAB2).macro_f1
        assert sweep.curve[0][1] == pytest.approx(avg_f1, abs=1e-12)

    def test_identical_columns_flat_min_beta(self, rng):
        truth, model_grids, _ = self._setup(rng)
        table = ClassF1Table(("m1", "m2"), VOCAB2.classes, [[0.6, 0.6], [0.6, 0.6]])
        cfg = PostProcessConfig(default_median_window=1)
        sweep = sweep_beta(model_grids, table, truth, [4.0, 0.0, 2.0], cfg, VOCAB2)
        assert len({s for _, s in sweep.curve}) == 1
        assert sweep.best == 0.0

    def test_empty_betas(self, rng):
        truth, model_grids, table = self._setup(rng)
        with pytest.raises(ValidationError):
            sweep_beta(model_grids, table, truth, [], PostProcessConfig(), VOCAB2)


@st.composite
def _sweep_case(draw):
    """A development set for the sweeps: 1-3 models, clips of mixed frame counts,
    per-class thresholds and odd windows, truth events that may overlap, and truth
    on a clip that is absent from the dump."""
    n_models, n_classes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vocab = ClassVocabulary(tuple("abc"[:n_classes]))
    frames = draw(st.lists(st.sampled_from((6, 9, 16)), min_size=1, max_size=4))
    # A 0.1 grid, so that posteriors and fused values meet the thresholds exactly.
    cells = st.integers(0, 10).map(lambda k: k / 10)
    clips = [
        [FrameGrid(f"clip{k}", 0.1, draw(hnp.arrays(np.float64, (t, n_classes), elements=cells)))
         for _ in range(n_models)]
        for k, t in enumerate(frames)
    ]
    where = st.sampled_from([(f"clip{k}", t) for k, t in enumerate(frames)] + [("absent", 12)])
    truth = []
    for clip_id, t in draw(st.lists(where, min_size=1, max_size=10)):
        start = draw(st.integers(0, t - 1))
        end = draw(st.integers(start + 1, t))
        truth.append(Event(clip_id, start * 0.1, end * 0.1, draw(st.sampled_from(vocab.classes))))
    threshold, window = st.integers(1, 9).map(lambda k: k / 10), st.sampled_from((1, 3, 5))
    overridden = draw(st.lists(st.sampled_from(vocab.classes), unique=True))
    cfg = PostProcessConfig(
        default_threshold=draw(threshold), default_median_window=draw(window),
        class_thresholds={c: draw(threshold) for c in overridden},
        class_median_windows={c: draw(window) for c in overridden},
    )
    collar = draw(st.sampled_from((CollarConfig(), CollarConfig(0.35, 0.35, 0.5))))
    return clips, EventList(truth), cfg, vocab, collar


def _composed_score(clips, weights, truth, cfg, vocab, collar):
    """The sweep's score of one weight matrix, by the slow composition."""
    fused = _fuse_weighted(clips, weights)
    return event_f1(truth, decode_many(fused, cfg, vocab), collar, vocab).macro_f1


def _check_fit_alpha(case):
    clips, truth, cfg, vocab, collar = case
    pairs = [(group[0], group[-1]) for group in clips]
    fit = fit_alpha(pairs, truth, cfg, vocab, collar)
    expected = [
        (alpha, _composed_score(pairs, _pair_weights(alpha, len(vocab)), truth, cfg, vocab,
                                collar))
        for alpha in (i / 100.0 for i in range(101))
    ]
    assert fit.curve == expected


def _check_sweep_beta(case, data):
    clips, truth, cfg, vocab, collar = case
    n_models = len(clips[0])
    f1 = data.draw(hnp.arrays(np.float64, (n_models, len(vocab)), elements=st.floats(0, 1)))
    table = ClassF1Table(tuple(f"m{m}" for m in range(n_models)), vocab.classes, f1)
    model_grids = [[group[m] for group in clips] for m in range(n_models)]
    sweep = sweep_beta(model_grids, table, truth, DEFAULT_BETA_SWEEP, cfg, vocab, collar)
    expected = [
        (beta, _composed_score(clips, classwise_weights(table, beta).values, truth, cfg,
                               vocab, collar))
        for beta in DEFAULT_BETA_SWEEP
    ]
    assert sweep.curve == expected


# From one clip per block (1 cell) to blocks of a few short clips: the multi-block path.
SMALL_BLOCKS = st.integers(1, 32)


class TestSweepEqualsComposition:
    """The stacked sweeps score each parameter exactly as fusing, decoding and
    matching ``Event`` lists would."""

    @settings(max_examples=25, deadline=None)
    @given(case=_sweep_case())
    def test_fit_alpha(self, case):
        _check_fit_alpha(case)

    @settings(max_examples=25, deadline=None)
    @given(case=_sweep_case(), block_cells=SMALL_BLOCKS)
    def test_fit_alpha_in_small_blocks(self, case, block_cells):
        with mock.patch.object(decode, "_BLOCK_CELLS", block_cells):
            _check_fit_alpha(case)

    @settings(max_examples=60, deadline=None)
    @given(case=_sweep_case(), data=st.data())
    def test_sweep_beta(self, case, data):
        _check_sweep_beta(case, data)

    @settings(max_examples=30, deadline=None)
    @given(case=_sweep_case(), data=st.data(), block_cells=SMALL_BLOCKS)
    def test_sweep_beta_in_small_blocks(self, case, data, block_cells):
        with mock.patch.object(decode, "_BLOCK_CELLS", block_cells):
            _check_sweep_beta(case, data)

    def test_shared_candidates_go_through_kuhn(self, monkeypatch):
        # One detection lies within the collar of two overlapping references, so
        # the matcher must resolve a component of degree 2 with Kuhn's algorithm.
        values = np.zeros((40, 1))
        values[10:20] = 1.0
        grids = [FrameGrid("c", 0.1, values), FrameGrid("c", 0.1, values)]
        truth = EventList([Event("c", 1.0, 2.0, "a"), Event("c", 1.1, 2.1, "a")])
        vocab = ClassVocabulary(("a",))
        cfg = PostProcessConfig(default_median_window=3)
        calls = []

        def counting(adjacency, n_right):
            calls.append((len(adjacency), n_right))
            return kuhn(adjacency, n_right)

        kuhn = metrics._kuhn_matching
        monkeypatch.setattr(metrics, "_kuhn_matching", counting)
        fit = fit_alpha([tuple(grids)], truth, cfg, vocab)
        assert set(calls) == {(2, 1)}  # two references, one detection
        precision, recall = 1.0, 0.5
        assert {s for _, s in fit.curve} == {2 * precision * recall / (precision + recall)}
        assert fit.curve == [
            (a, _composed_score([grids], _pair_weights(a, 1), truth, cfg, vocab, CollarConfig()))
            for a, _ in fit.curve
        ]


def _synthetic_dev_set(n_clips, n_classes, n_models, **scenario):
    cfg = ScenarioConfig(
        seed=3, n_clips=n_clips, frames_per_clip=512,
        classes=tuple(f"c{i}" for i in range(n_classes)), **scenario,
    )
    truth, _ = gen_truth(cfg)
    skill = ModelSkill.uniform(n_classes, miss_rate=0.1, false_alarm_rate=0.02,
                               jitter_frames=2, sharpness=6.0)
    models = [simulate_model(truth, skill, cfg, seed=11 + m) for m in range(n_models)]
    return models, truth, cfg.vocab


def _newton_recomputing_p(model_grids, truth, vocab):
    """fit_logistic_fusion's damped Newton loop as it was when each step recomputed
    p = sigmoid(x @ theta): (weights, bias, iterations, final loss, grad norm)."""
    clips = fusion._aligned_clip_sets(model_grids)
    y_all = fusion._frame_targets([group[0] for group in clips], truth, vocab)
    n_models, n_classes = len(model_grids), len(vocab)
    weights, bias = np.zeros((n_classes, n_models)), np.zeros(n_classes)
    iterations = np.zeros(n_classes, dtype=np.int64)
    final_loss, grad_norm = np.zeros(n_classes), np.zeros(n_classes)
    ridge = 1e-10 * np.eye(n_models + 1)
    for c in range(n_classes):
        y = y_all[:, c]
        if y.min() == y.max():
            weights[c] = 1.0 / n_models
            final_loss[c] = grad_norm[c] = float("nan")
            continue
        x = fusion._design_matrix(clips, c)
        theta = np.zeros(n_models + 1)
        loss, grad, _ = logistic_loss_and_grad(theta, 0.0, x, y)
        for it in range(1, fusion._LOGISTIC_MAX_ITER + 1):
            p = fusion._sigmoid(x @ theta)
            step = np.linalg.solve((x.T * (p * (1.0 - p))) @ x / len(y) + ridge, grad)
            while True:
                new_loss, new_grad, _ = logistic_loss_and_grad(theta - step, 0.0, x, y)
                if new_loss <= loss:
                    break
                step *= 0.5
            improvement = loss - new_loss
            theta, loss, grad = theta - step, new_loss, new_grad
            iterations[c] = it
            if improvement < fusion._LOGISTIC_TOL:
                break
        weights[c], bias[c] = theta[:-1], theta[-1]
        final_loss[c], grad_norm[c] = loss, float(np.linalg.norm(grad))
    return weights, bias, iterations, final_loss, grad_norm


def _traced_peak(fn, *args):
    """Peak bytes traced during ``fn(*args)``; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSetMemory:
    """Working sets are bounded by one block or one class, not by the dump. The
    fits run on one CPU: tracemalloc sees only this process, not a forked child."""

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def test_logistic_fit_holds_one_class_at_a_time(self):
        peaks = []
        for n_classes in (2, 8):  # the same frames
            models, truth, vocab = _synthetic_dev_set(20, n_classes, 3)
            peaks.append(_traced_peak(fit_logistic_fusion, models, truth, vocab))
        assert peaks[1] < 1.5 * peaks[0]

    def test_alpha_sweep_holds_one_block_at_a_time(self):
        peaks = []
        for n_clips in (60, 240):  # about 1.2 and 4.7 blocks of 2^18 cells
            models, truth, vocab = _synthetic_dev_set(n_clips, 10, 2)
            pairs = list(zip(*models))
            peaks.append(_traced_peak(fit_alpha, pairs, truth, PostProcessConfig(), vocab))
        assert peaks[1] < 2.2 * peaks[0]

    def test_psds_cross_triggers_hold_one_class_pair_at_a_time(self):
        # About 3.5 overlapping references per class and clip, so most detections
        # touch references of most other classes. The levels and level steps of
        # psds_many are dump-wide, so its peak grows about 4x from 60 to 240 clips
        # whatever the cross-triggers hold; they are measured against the same
        # sweep without them. Holding every other class's pairs at once costs 1.4x.
        without = dataclasses.replace(metrics.PSDS2, alpha_ct=0.0)
        for n_clips in (60, 240):
            [grids], truth, vocab = _synthetic_dev_set(
                n_clips, 10, 1, events_per_clip=(30, 40), duration_seconds=(1.0, 3.0)
            )
            peaks = [
                _traced_peak(metrics.psds_many, grids, truth, PostProcessConfig(), [cfg], vocab)
                for cfg in (without, metrics.PSDS2)
            ]
            assert peaks[1] < 1.2 * peaks[0]


def _fits(n_clips, n_classes):
    """The three dealt fits, each a call on one synthetic development set:
    ``fit_alpha`` over its first two models, ``sweep_beta`` and
    ``fit_logistic_fusion`` over all three; with the work each deals, in the
    units of its fork floor."""
    models, truth, vocab = _synthetic_dev_set(n_clips, n_classes, 3, events_per_clip=(0, 3))
    table = ClassF1Table(("m1", "m2", "m3"), vocab.classes,
                         np.random.default_rng(7).random((3, n_classes)))
    cells = sum(g.values.size for g in models[0])
    return {
        "alpha": (lambda: fit_alpha(list(zip(*models[:2])), truth, PostProcessConfig(), vocab),
                  "_MIN_SWEEP_CELLS", cells * 2 * 101),
        "beta": (lambda: sweep_beta(models, table, truth, DEFAULT_BETA_SWEEP,
                                    PostProcessConfig(), vocab),
                 "_MIN_SWEEP_CELLS", cells * 3 * len(DEFAULT_BETA_SWEEP)),
        "logistic": (lambda: fit_logistic_fusion(models, truth, vocab),
                     "_MIN_FIT_ROWS", cells),
    }


def _same_fit(a, b) -> bool:
    """Equal curves, or bitwise-equal logistic arrays of one dtype."""
    if isinstance(a, fusion.LogisticFusionModel):
        fields = ("weights", "bias", "iterations", "final_loss", "fallback", "grad_norm")
        return all(
            getattr(a, f).dtype == getattr(b, f).dtype
            and np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
            for f in fields
        )
    return a == b


class TestForkedFits:
    """The sweeps deal their parameters and the logistic fit its classes to
    forked children: whatever fails, the results are the serial pass's. That
    no process or fd is left behind is checked after every test."""

    @pytest.fixture(scope="class")
    def small(self):
        """Fits on 3 clips of 4 classes (one falls back), and each one's serial result."""
        fits = _fits(3, 4)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            return {name: (call, floor, units, call())
                    for name, (call, floor, units) in fits.items()}

    @pytest.fixture
    def forks(self, monkeypatch):
        """The forks of the test; ``forks.child`` runs in each child first."""
        made = mock.Mock(count=0, child=lambda: None)
        real = os.fork

        def fork():
            made.count += 1
            pid = real()
            if pid == 0:
                made.child()
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return made

    def dealt(self, monkeypatch, small, name, cpus):
        """The fit, with a floor of 1 so that each CPU gets a part."""
        call, floor, _, serial = small[name]
        monkeypatch.setattr(fusion, floor, 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return call(), serial

    @pytest.mark.parametrize("name", ["alpha", "beta", "logistic"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_forked_equals_serial(self, monkeypatch, small, forks, name, cpus):
        got, serial = self.dealt(monkeypatch, small, name, cpus)
        assert _same_fit(got, serial)
        assert forks.count == cpus - 1

    @pytest.mark.parametrize("name", ["alpha", "beta", "logistic"])
    def test_no_child_gives_the_serial_result(self, monkeypatch, small, name):
        def fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        got, serial = self.dealt(monkeypatch, small, name, 2)
        assert _same_fit(got, serial)

    @pytest.mark.parametrize("name", ["alpha", "beta", "logistic"])
    def test_failed_child_gives_the_serial_result(self, monkeypatch, small, forks, name):
        forks.child = lambda: os._exit(3)
        got, serial = self.dealt(monkeypatch, small, name, 2)
        assert _same_fit(got, serial)
        assert forks.count == 1

    @pytest.mark.parametrize("name", ["alpha", "beta", "logistic"])
    def test_fork_floor(self, monkeypatch, small, forks, name):
        # A fit is dealt to at most as many parts as it holds floors of work.
        call, floor, units, serial = small[name]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for at, parts in [(units // 2 + 1, 1), (units // 2, 2), (units // 3, 3)]:
            monkeypatch.setattr(fusion, floor, at)
            forks.count = 0
            assert _same_fit(call(), serial)
            assert forks.count == parts - 1

    def test_eight_clips_are_not_dealt(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for call, _, _ in _fits(8, 10).values():
            call()
        assert forks.count == 0


# One Newton step's products on 2^20 rows of 4 columns, run under a given
# OPENBLAS_NUM_THREADS: over the whole matrix, OpenBLAS splits them across its
# threads and sums in another order.
_BLAS_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {src!r})
import numpy as np
from sedfuse import fusion
rng = np.random.default_rng(5)
x = np.column_stack([rng.random((1 << 20, 3)), np.ones(1 << 20)])
y = (rng.random(1 << 20) < x[:, 0]).astype(np.float64)
loss, grad, _, p = fusion._loss_grad_p(np.array([1.0, -2.0, 0.5, 0.1]), 0.0, x, y)
step = np.linalg.solve(fusion._hessian(x, p) / len(y), grad)
print(hashlib.sha256(np.array(loss).tobytes() + grad.tobytes() + p.tobytes() + step.tobytes())
      .hexdigest())
"""


def test_logistic_bytes_do_not_depend_on_the_blas_thread_count():
    script = _BLAS_SCRIPT.format(src=os.path.dirname(os.path.dirname(fusion.__file__)))
    digests = [
        subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, check=True, timeout=60,
        ).stdout
        for threads in ("1", "2")
    ]
    assert digests[0] == digests[1]


class TestF1TableIO:
    def test_save_load_round_trip(self, tmp_path, rng):
        table = ClassF1Table(("m1", "m2"), ("a", "b", "c"), rng.random((2, 3)))
        path = tmp_path / "f1_table.json"
        table.save(path)
        back = ClassF1Table.load(path)
        assert back.models == table.models
        assert back.classes == table.classes
        np.testing.assert_array_equal(back.values, table.values)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ClassF1Table(("m1",), ("a", "b"), [[0.1]])

    def test_range_check(self):
        with pytest.raises(ValidationError):
            ClassF1Table(("m1",), ("a",), [[1.5]])
