"""Posterior decoding: thresholds, majority smoothing, run extraction."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedfuse import decode as decode_module
from sedfuse.core import BinaryGrid, ClassVocabulary, Event, EventList, FrameGrid, ValidationError
from hypothesis.extra import numpy as hnp

from sedfuse.decode import (
    PostProcessConfig,
    _active_runs,
    _majority,
    _running_median,
    _smoothed_levels,
    binarize,
    decode,
    decode_many,
    extract_events,
    median_smooth,
    rasterize,
)

V1 = ClassVocabulary(("x",))

# Posteriors and thresholds share a 0.05 grid so that ties with the
# threshold occur; clips may be shorter than the window.
POSTERIOR = st.integers(0, 20).map(lambda k: k / 20)
THRESHOLD = st.integers(1, 19).map(lambda k: k / 20)
WINDOW = st.integers(0, 7).map(lambda k: 2 * k + 1)


@st.composite
def decode_setups(draw):
    """A vocabulary of 1-3 classes and a config with per-class overrides."""
    vocab = ClassVocabulary(tuple("abc"[: draw(st.integers(1, 3))]))
    overridden = draw(st.lists(st.sampled_from(vocab.classes), unique=True))
    cfg = PostProcessConfig(
        default_threshold=draw(THRESHOLD),
        default_median_window=draw(WINDOW),
        class_thresholds={c: draw(THRESHOLD) for c in overridden},
        class_median_windows={c: draw(WINDOW) for c in overridden},
    )
    return vocab, cfg


def draw_grid(draw, n_classes, clip_id="c", frames=st.integers(1, 20)):
    frames = draw(frames)
    row = st.lists(POSTERIOR, min_size=n_classes, max_size=n_classes)
    values = draw(st.lists(row, min_size=frames, max_size=frames))
    return FrameGrid(clip_id, 0.05, np.array(values))


def bgrid(column, hop=0.1, clip="c"):
    return BinaryGrid(clip, hop, np.asarray(column, dtype=bool).reshape(-1, 1))


class TestConfig:
    def test_even_window_rejected(self):
        with pytest.raises(ValidationError):
            PostProcessConfig(default_median_window=4)
        with pytest.raises(ValidationError):
            PostProcessConfig(class_median_windows={"x": 2})

    def test_threshold_range(self):
        with pytest.raises(ValidationError):
            PostProcessConfig(default_threshold=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"default_median_window": True}, id="bool-window"),
            pytest.param({"class_median_windows": {"x": False}}, id="bool-class-window"),
            pytest.param({"default_threshold": "0.5"}, id="string-threshold"),
            pytest.param({"class_thresholds": {"x": True}}, id="bool-class-threshold"),
            pytest.param({"default_threshold": None}, id="null-threshold"),
        ],
    )
    def test_wrong_types_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            PostProcessConfig(**kwargs)

    def test_per_class_lookup(self):
        cfg = PostProcessConfig(class_thresholds={"x": 0.7}, class_median_windows={"x": 3})
        assert cfg.threshold_for("x") == 0.7
        assert cfg.threshold_for("y") == 0.5
        assert cfg.window_for("x") == 3
        assert cfg.window_for("y") == 7

    def test_json_round_trip(self, tmp_path):
        cfg = PostProcessConfig(class_thresholds={"x": 0.7}, class_median_windows={"x": 3})
        path = tmp_path / "decode_cfg.json"
        path.write_text(
            '{"thresholds": {"x": 0.7}, "median_windows": {"x": 3}}'
        )
        loaded = PostProcessConfig.load(path, V1)
        assert loaded.threshold_for("x") == cfg.threshold_for("x")
        assert loaded.window_for("x") == cfg.window_for("x")


class TestBinarize:
    def test_boundary_inclusive(self):
        grid = FrameGrid("c", 0.1, np.full((4, 1), 0.5))
        assert binarize(grid, PostProcessConfig(), V1).values.all()

    def test_below_boundary(self):
        grid = FrameGrid("c", 0.1, np.full((4, 1), 0.49))
        assert not binarize(grid, PostProcessConfig(), V1).values.any()

    def test_elementwise_oracle(self, rng):
        vocab = ClassVocabulary(("a", "b", "c"))
        cfg = PostProcessConfig(class_thresholds={"a": 0.3, "b": 0.6})
        grid = FrameGrid("c", 0.1, rng.random((64, 3)))
        out = binarize(grid, cfg, vocab).values
        thresholds = [0.3, 0.6, 0.5]
        for t in range(64):
            for c in range(3):
                assert out[t, c] == (grid.values[t, c] >= thresholds[c])


class TestMedianSmooth:
    def test_window_one_is_identity(self, rng):
        grid = bgrid(rng.random(50) > 0.5)
        out = median_smooth(grid, PostProcessConfig(default_median_window=1), V1)
        np.testing.assert_array_equal(out.values, grid.values)

    def test_hand_case(self):
        out = median_smooth(
            bgrid([0, 1, 0, 1, 0]), PostProcessConfig(default_median_window=3), V1
        )
        assert out.values[:, 0].astype(int).tolist() == [0, 0, 1, 0, 0]

    def test_isolated_frame_removed(self):
        out = median_smooth(
            bgrid([0, 0, 1, 0, 0]), PostProcessConfig(default_median_window=3), V1
        )
        assert not out.values.any()

    def test_edges_count_inactive(self):
        out = median_smooth(
            bgrid([1, 0, 0, 0, 1]), PostProcessConfig(default_median_window=3), V1
        )
        assert not out.values.any()

    def test_majority_oracle(self, rng):
        for window in (3, 5, 7):
            col = rng.random(40) > 0.5
            out = median_smooth(
                bgrid(col), PostProcessConfig(default_median_window=window), V1
            ).values[:, 0]
            pad = window // 2
            padded = np.concatenate([np.zeros(pad, bool), col, np.zeros(pad, bool)])
            for i in range(40):
                assert out[i] == (padded[i : i + window].sum() > window // 2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), window=WINDOW)
    def test_running_median_oracle(self, data, window):
        grid = draw_grid(data.draw, 2)
        stack = grid.values[None].copy()
        out = _running_median(stack, np.array([window, 1]))[0]
        pad = window // 2
        padded = np.pad(grid.values[:, 0], pad)
        for t in range(grid.n_frames):
            assert out[t, 0] == np.median(padded[t : t + window])
        np.testing.assert_array_equal(out[:, 1], grid.values[:, 1])

    def test_window_beyond_2t_plus_1_is_clamped(self, rng, monkeypatch):
        # Over T zero-padded frames every window of 2T + 1 or more gives 0, so the
        # median network is never built for a longer one.
        t = 6
        stack = rng.integers(0, 4, size=(2, t, 1)).astype(np.uint8)
        asked = []
        network = decode_module._median_network
        monkeypatch.setattr(decode_module, "_median_network",
                            lambda window: asked.append(window) or network(window))
        long = _running_median(stack.copy(), np.array([4 * t + 1]))
        short = _running_median(stack.copy(), np.array([2 * t + 1]))
        np.testing.assert_array_equal(long, short)
        padded = np.pad(stack[:, :, 0], ((0, 0), (2 * t, 2 * t)))
        brute = [[np.median(row[i : i + 4 * t + 1]) for i in range(t)] for row in padded]
        np.testing.assert_array_equal(long[:, :, 0], brute)
        assert asked and max(asked) <= 2 * t + 1

    @pytest.mark.parametrize("t", [1, 6, 300])
    def test_window_count_equals_the_network(self, rng, t):
        # Cells of 0s and 1s, as one operating point gives: the majority of each
        # window is its median, for windows past 255 (no uint8 count) and past
        # 2T + 1 (clamped) too.
        windows = np.array([1, 3, 255, 257, 2 * t + 1, 2 * t + 3])
        for dtype in (np.uint8, bool):
            stack = (rng.random((3, t, len(windows))) < rng.random()).astype(dtype)
            got = _majority(stack.copy(), windows)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, _running_median(stack.copy(), windows))

    def test_commutes_with_column_permutation(self, rng):
        vocab = ClassVocabulary(("a", "b", "c"))
        values = rng.random((32, 3)) > 0.5
        cfg = PostProcessConfig(default_median_window=5)
        out = median_smooth(BinaryGrid("c", 0.1, values), cfg, vocab).values
        perm = [2, 0, 1]
        vocab_p = ClassVocabulary(tuple(vocab.classes[i] for i in perm))
        out_p = median_smooth(BinaryGrid("c", 0.1, values[:, perm]), cfg, vocab_p).values
        np.testing.assert_array_equal(out_p, out[:, perm])


class TestExtractEvents:
    def test_hand_case(self):
        events = extract_events(bgrid([0, 1, 1, 1, 0, 0, 1]), V1)
        assert [(e.onset, e.offset) for e in events] == [
            (pytest.approx(0.1), pytest.approx(0.4)),
            (pytest.approx(0.6), pytest.approx(0.7)),
        ]

    def test_all_inactive(self):
        assert len(extract_events(bgrid([0, 0, 0]), V1)) == 0

    def test_rasterize_round_trip(self, rng):
        vocab = ClassVocabulary(("a", "b"))
        for _ in range(200):
            values = rng.random((int(rng.integers(1, 40)), 2)) > 0.6
            grid = BinaryGrid("c", 0.1, values)
            events = extract_events(grid, vocab)
            back = rasterize(events, 0.1, grid.n_frames, vocab, clip_id="c")
            np.testing.assert_array_equal(back.values, values)


    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=3, max_dims=3, max_side=7)))
    def test_active_runs_oracle(self, active):
        n, t, n_classes = active.shape
        runs = []
        for k in range(n):
            for c in range(n_classes):
                f = 0
                while f < t:
                    end = f
                    while end < t and active[k, end, c]:
                        end += 1
                    if end > f:
                        runs.append((k, c, f, end))
                    f = end + 1
        assert list(zip(*(a.tolist() for a in _active_runs(active)))) == runs


class TestRasterize:
    def test_hand_case(self):
        out = rasterize(EventList([Event("c", 0.1, 0.4, "x")]), 0.1, 7, V1)
        assert np.flatnonzero(out.values[:, 0]).tolist() == [1, 2, 3]

    def test_empty(self):
        out = rasterize(EventList([]), 0.1, 5, V1, clip_id="c")
        assert not out.values.any()

    def test_event_past_clip_end(self):
        with pytest.raises(ValidationError):
            rasterize(EventList([Event("c", 0.0, 1.0, "x")]), 0.1, 5, V1)

    def test_extract_round_trip(self, rng):
        # frame-aligned, per-class non-overlapping events with gaps
        vocab = ClassVocabulary(("a", "b"))
        hop = 10 / 512
        for _ in range(200):
            events = []
            for name in vocab.classes:
                frame = 0
                while frame < 60:
                    start = frame + int(rng.integers(1, 8))
                    length = int(rng.integers(1, 6))
                    if start + length > 64:
                        break
                    events.append(Event("c", start * hop, (start + length) * hop, name))
                    frame = start + length
            elist = EventList(events)
            grid = rasterize(elist, hop, 64, vocab, clip_id="c")
            back = extract_events(grid, vocab)
            assert sorted((e.onset, e.offset, e.event_label) for e in back) == sorted(
                (e.onset, e.offset, e.event_label) for e in elist
            )


def _check_many_equals_per_clip(setup, data):
    vocab, cfg = setup
    # Two frame counts, so clips of one stack interleave with the other's.
    frames = st.sampled_from((6, 11))
    n_clips = data.draw(st.integers(0, 6))
    grids = [
        draw_grid(data.draw, len(vocab), f"clip{k}", frames) for k in range(n_clips)
    ]
    joined = [ev for grid in grids for ev in decode(grid, cfg, vocab)]
    assert decode_many(grids, cfg, vocab).events == joined


class TestDecode:
    def test_all_zero(self):
        grid = FrameGrid("c", 0.1, np.zeros((16, 1)))
        assert len(decode(grid, PostProcessConfig(), V1)) == 0

    def test_oracle_grid_window_one(self):
        values = np.zeros((16, 1))
        values[4:9] = 1.0
        events = decode(
            FrameGrid("c", 0.1, values), PostProcessConfig(default_median_window=1), V1
        )
        assert [(e.onset, e.offset) for e in events] == [
            (pytest.approx(0.4), pytest.approx(0.9))
        ]

    @settings(max_examples=300, deadline=None)
    @given(setup=decode_setups(), data=st.data())
    def test_composition_oracle(self, setup, data):
        # Threshold decomposition: smoothing then thresholding equals
        # thresholding then the binary median (majority) filter.
        vocab, cfg = setup
        grid = draw_grid(data.draw, len(vocab))
        staged = extract_events(
            median_smooth(binarize(grid, cfg, vocab), cfg, vocab), vocab
        )
        assert decode(grid, cfg, vocab) == staged

    @settings(max_examples=300, deadline=None)
    @given(setup=decode_setups(), data=st.data())
    def test_smoothed_levels_are_levels_of_smoothed_posteriors(self, setup, data):
        # Threshold decomposition: counting the operating points a cell reaches
        # commutes with the running median, so smoothing the counts gives the
        # levels of the smoothed posteriors, ties with an operating point included.
        vocab, cfg = setup
        windows = cfg.window_vector(vocab)
        ops = data.draw(
            st.one_of(
                st.just(cfg.threshold_vector(vocab)[None]),  # decoding: one threshold per class
                st.sets(THRESHOLD, min_size=1).map(lambda s: np.array(sorted(s))[:, None]),
                st.just(np.arange(1, 301)[:, None] / 320),  # meets the 0.05 grid; uint16 levels
            )
        )
        shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 20)), len(vocab))
        stack = data.draw(hnp.arrays(np.float64, shape, elements=POSTERIOR))
        if data.draw(st.booleans()):  # column-major clips, as parse_framegrids gives them
            stack = np.stack([np.asfortranarray(clip) for clip in stack])
        smoothed = _running_median(stack.copy(), windows)
        per_class = np.broadcast_to(ops, (len(ops), len(vocab)))
        want = np.stack(
            [np.searchsorted(per_class[:, c], smoothed[..., c], "right") for c in range(len(vocab))],
            axis=-1,
        )
        got = _smoothed_levels(stack, ops, windows)
        assert got.dtype == np.min_scalar_type(len(ops))
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(setup=decode_setups(), data=st.data())
    def test_many_equals_per_clip_in_input_order(self, setup, data):
        _check_many_equals_per_clip(setup, data)

    # From one clip per block (1 cell) to blocks of a few short clips: the multi-block path.
    @settings(max_examples=50, deadline=None)
    @given(setup=decode_setups(), data=st.data(), block_cells=st.integers(1, 32))
    def test_many_in_small_blocks(self, setup, data, block_cells):
        with mock.patch.object(decode_module, "_BLOCK_CELLS", block_cells):
            _check_many_equals_per_clip(setup, data)

    def test_threshold_monotonicity(self, rng):
        grid = FrameGrid("c", 0.1, rng.random((64, 1)))
        low = binarize(grid, PostProcessConfig(default_threshold=0.3), V1).values
        high = binarize(grid, PostProcessConfig(default_threshold=0.7), V1).values
        assert not (high & ~low).any()
