"""Collar F1 (with an exhaustive matching oracle) and PSDS (with a brute-force oracle)."""

import dataclasses
import errno
import json
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedfuse import core, decode, metrics
from sedfuse.core import ClassVocabulary, Event, EventList, FrameGrid, ValidationError
from sedfuse.decode import PostProcessConfig, decode_many
from sedfuse.metrics import (
    DEFAULT_OPERATING_POINTS,
    PSDS1,
    PSDS2,
    CollarConfig,
    PSDSConfig,
    event_f1,
    events_compatible,
    match_events,
    psds,
    psds_many,
    report_tables,
    _Coverage,
    _roc_report,
)

V1 = ClassVocabulary(("A",))


def oracle_max_matching(adjacency, n_right):
    """Exhaustive bitmask DP over assignments of right-side nodes."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i, used):
        if i == len(adjacency):
            return 0
        result = best(i + 1, used)  # leave ref i unmatched
        for j in adjacency[i]:
            if not used & (1 << j):
                result = max(result, 1 + best(i + 1, used | (1 << j)))
        return result

    return best(0, 0)


class TestCollarPredicate:
    def test_worked_match(self):
        # onset diff 0.15 <= 0.2; offset collar max(0.2, 0.2*1.0) = 0.2,
        # diff 0.10 <= 0.2
        assert events_compatible(1.0, 2.0, 1.15, 2.10, CollarConfig())

    def test_worked_mismatch(self):
        # onset diff 0.25 > 0.2
        assert not events_compatible(1.0, 2.0, 1.25, 2.0, CollarConfig())

    def test_ratio_collar_dominates_for_long_events(self):
        # 10 s event: offset collar = max(0.2, 2.0) = 2.0
        assert events_compatible(0.0, 10.0, 0.1, 11.9, CollarConfig())
        assert not events_compatible(0.0, 10.0, 0.1, 12.1, CollarConfig())


class TestMatchEvents:
    def test_identical_lists_fully_matched(self, rng):
        events = [
            Event(f"c{i % 2}", float(i), float(i) + 0.5, "A") for i in range(6)
        ]
        ref = EventList(events)
        est = EventList(list(events))
        assert len(match_events(ref, est)) == len(events)

    def test_one_to_one(self):
        # two est candidates inside one ref's collar: only one may match
        ref = EventList([Event("c", 1.0, 2.0, "A")])
        est = EventList([Event("c", 1.05, 2.05, "A"), Event("c", 0.95, 1.95, "A")])
        assert len(match_events(ref, est)) == 1

    def test_wrong_class_never_matches(self):
        vocab = ClassVocabulary(("A", "B"))
        ref = EventList([Event("c", 1.0, 2.0, "A")])
        est = EventList([Event("c", 1.0, 2.0, "B")])
        assert match_events(ref, est) == []

    def test_maximum_cardinality_needs_augmenting(self):
        # greedy-by-order would match ref0-est0 and strand ref1; maximum
        # matching pairs ref0-est1 and ref1-est0
        ref = EventList([Event("c", 1.0, 2.0, "A"), Event("c", 1.1, 2.1, "A")])
        est = EventList([Event("c", 1.15, 2.15, "A"), Event("c", 0.95, 1.95, "A")])
        assert len(match_events(ref, est)) == 2

    def test_long_augmenting_chain(self):
        # ref i fits est i and i+1 and is matched greedily to est i; the
        # last ref fits only est 0, so the final augmenting path runs
        # through all 2000 events of one (clip, class) group.
        n = 2000
        est = [Event("c", 1.0 + 0.15 * j, 1.5 + 0.15 * j, "A") for j in range(n)]
        ref = [Event("c", 1.075 + 0.15 * i, 1.575 + 0.15 * i, "A") for i in range(n - 1)]
        ref.append(Event("c", 0.925, 1.425, "A"))
        pairs = match_events(EventList(ref), EventList(est))
        assert len(pairs) == n
        assert len({j for _, j in pairs}) == n

    def test_exhaustive_oracle(self, rng):
        cfg = CollarConfig()
        for _ in range(200):
            n_ref = int(rng.integers(0, 9))
            n_est = int(rng.integers(0, 9))
            ref = EventList(
                [
                    Event("c", float(o), float(o) + 0.3 + float(d), "A")
                    for o, d in zip(rng.random(n_ref) * 4, rng.random(n_ref))
                ]
            )
            est = EventList(
                [
                    Event("c", float(o), float(o) + 0.3 + float(d), "A")
                    for o, d in zip(rng.random(n_est) * 4, rng.random(n_est))
                ]
            )
            adjacency = [
                [
                    j
                    for j, e in enumerate(est)
                    if events_compatible(r.onset, r.offset, e.onset, e.offset, cfg)
                ]
                for r in ref
            ]
            assert len(match_events(ref, est, cfg)) == oracle_max_matching(
                tuple(tuple(a) for a in adjacency), n_est
            )


    def test_mixed_groups_oracle(self, rng):
        # Several clips and classes with dense, overlapping events: candidates are
        # often shared, so components of every degree reach the matcher.
        cfg = CollarConfig()
        keys = [("c0", "A"), ("c0", "B"), ("c1", "A"), ("c2", "B")]

        def events(n):
            picks = rng.integers(0, len(keys), n)
            return EventList([
                Event(keys[k][0], float(o), float(o) + 0.3 + float(d), keys[k][1])
                for k, o, d in zip(picks, rng.random(n) * 2, rng.random(n))
            ])

        for _ in range(200):
            ref, est = events(int(rng.integers(0, 16))), events(int(rng.integers(0, 16)))
            pairs = match_events(ref, est, cfg)
            assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
            for i, j in pairs:
                r, e = ref.events[i], est.events[j]
                assert (r.clip_id, r.event_label) == (e.clip_id, e.event_label)
                assert events_compatible(r.onset, r.offset, e.onset, e.offset, cfg)
            best = 0
            for key in keys:
                ref_idx = [i for i, r in enumerate(ref) if (r.clip_id, r.event_label) == key]
                est_idx = [j for j, e in enumerate(est) if (e.clip_id, e.event_label) == key]
                adjacency = tuple(
                    tuple(
                        k for k, j in enumerate(est_idx)
                        if events_compatible(ref.events[i].onset, ref.events[i].offset,
                                             est.events[j].onset, est.events[j].offset, cfg)
                    )
                    for i in ref_idx
                )
                best += oracle_max_matching(adjacency, len(est_idx))
            assert len(pairs) == best


class TestCoverage:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 6)), max_size=12))
    def test_union_equals_loop_merge(self, spans):
        # Integer quarters, so touching and nested intervals are common.
        starts = np.array([a / 4 for a, _ in spans], dtype=float)
        ends = np.array([(a + n) / 4 for a, n in spans], dtype=float)
        union = []
        for a, b in sorted(zip(starts.tolist(), ends.tolist())):
            if union and a <= union[-1][1]:
                union[-1][1] = max(union[-1][1], b)
            else:
                union.append([a, b])
        cov = _Coverage.from_intervals(starts, ends)
        assert [list(p) for p in zip(cov.starts.tolist(), cov.ends.tolist())] == union


class TestEventF1:
    def test_perfect_detection(self, rng):
        vocab = ClassVocabulary(("A", "B"))
        events = [
            Event("c1", 0.0, 1.0, "A"),
            Event("c1", 2.0, 3.0, "B"),
            Event("c2", 1.0, 4.0, "A"),
        ]
        ref = EventList(events)
        report = event_f1(ref, EventList(list(events)), CollarConfig(), vocab)
        assert report.macro_f1 == 1.0
        for score in report.per_class.values():
            assert score.f1 == 1.0

    def test_empty_estimate(self):
        ref = EventList([Event("c", 0.0, 1.0, "A")])
        report = event_f1(ref, EventList([]), CollarConfig(), V1)
        score = report.per_class["A"]
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_swap_exchanges_precision_recall(self, rng):
        vocab = ClassVocabulary(("A", "B"))
        def random_events(n):
            return EventList(
                [
                    Event(
                        f"c{int(rng.integers(0, 2))}",
                        float(o),
                        float(o) + 0.3 + float(d),
                        vocab.classes[int(rng.integers(0, 2))],
                    )
                    for o, d in zip(rng.random(n) * 5, rng.random(n))
                ]
            )
        a, b = random_events(12), random_events(15)
        fwd = event_f1(a, b, CollarConfig(), vocab)
        rev = event_f1(b, a, CollarConfig(), vocab)
        for name in vocab.classes:
            assert fwd.per_class[name].precision == rev.per_class[name].recall
            assert fwd.per_class[name].recall == rev.per_class[name].precision
            assert fwd.per_class[name].f1 == pytest.approx(rev.per_class[name].f1)

    def test_permutation_invariance(self, rng):
        events = [
            Event(f"c{i % 3}", float(i) * 0.7, float(i) * 0.7 + 0.5, "A")
            for i in range(9)
        ]
        est = [Event(e.clip_id, e.onset + 0.05, e.offset, "A") for e in events[:6]]
        base = event_f1(EventList(events), EventList(est), CollarConfig(), V1)
        perm_ref = list(events)
        perm_est = list(est)
        rng.shuffle(perm_ref)
        rng.shuffle(perm_est)
        shuffled = event_f1(
            EventList(perm_ref), EventList(perm_est), CollarConfig(), V1
        )
        assert base.to_dict() == shuffled.to_dict()

    def test_macro_covers_all_vocabulary_classes(self):
        vocab = ClassVocabulary(("A", "B"))
        ref = EventList([Event("c", 0.0, 1.0, "A")])
        report = event_f1(ref, EventList(list(ref.events)), CollarConfig(), vocab)
        # class B has no events at all: 0/0 counts score 0, halving the macro
        assert report.per_class["B"].f1 == 0.0
        assert report.macro_f1 == pytest.approx(0.5)


def oracle_grids(truth, vocab, t_frames, hop, clip_ids):
    by_clip = truth.by_clip()
    grids = []
    for clip_id in clip_ids:
        values = np.zeros((t_frames, len(vocab)))
        for ev in by_clip.get(clip_id, []):
            a = round(ev.onset / hop)
            b = round(ev.offset / hop)
            values[a:b, vocab.index(ev.event_label)] = 1.0
        grids.append(FrameGrid(clip_id, hop, values))
    return grids


class TestPSDS:
    def _truth(self, rng, vocab, n_clips=6, t_frames=128, hop=0.1):
        events = []
        clip_ids = [f"c{i}" for i in range(n_clips)]
        for clip_id in clip_ids:
            for _ in range(int(rng.integers(1, 4))):
                start = int(rng.integers(0, t_frames - 12))
                length = int(rng.integers(4, 12))
                name = vocab.classes[int(rng.integers(0, len(vocab)))]
                events.append(
                    Event(clip_id, start * hop, (start + length) * hop, name)
                )
        return EventList(events), clip_ids

    def test_oracle_posteriors_score_one(self, rng):
        vocab = ClassVocabulary(("A", "B", "C"))
        truth, clip_ids = self._truth(rng, vocab)
        grids = oracle_grids(truth, vocab, 128, 0.1, clip_ids)
        cfg = PostProcessConfig(default_median_window=1)
        r1, r2 = psds_many(grids, truth, cfg, [PSDS1, PSDS2], vocab)
        assert r1.psds == pytest.approx(1.0, abs=1e-9)
        assert r2.psds == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_posteriors_score_zero(self, rng):
        vocab = ClassVocabulary(("A", "B"))
        truth, clip_ids = self._truth(rng, vocab)
        grids = [FrameGrid(c, 0.1, np.zeros((128, 2))) for c in clip_ids]
        report = psds(grids, truth, PostProcessConfig(), PSDS1, vocab)
        assert report.psds == 0.0

    def test_clip_permutation_invariance(self, rng):
        vocab = ClassVocabulary(("A", "B"))
        truth, clip_ids = self._truth(rng, vocab)
        noisy = [
            FrameGrid(c, 0.1, np.clip(g.values * 0.8 + rng.random((128, 2)) * 0.4, 0, 1))
            for c, g in zip(clip_ids, oracle_grids(truth, vocab, 128, 0.1, clip_ids))
        ]
        cfg = PostProcessConfig()
        base = psds(noisy, truth, cfg, PSDS2, vocab)
        order = rng.permutation(len(noisy))
        renamed = {c: f"z{i}" for i, c in enumerate(clip_ids)}
        shuffled_grids = [
            FrameGrid(renamed[noisy[i].clip_id], 0.1, noisy[i].values) for i in order
        ]
        shuffled_truth = EventList(
            [Event(renamed[e.clip_id], e.onset, e.offset, e.event_label) for e in truth]
        )
        shuffled = psds(shuffled_grids, shuffled_truth, cfg, PSDS2, vocab)
        assert shuffled.psds == base.psds

    def test_hand_constructed_roc(self):
        # one clip, hop 1 s, one hour total; two reference events; three
        # pure false positives appearing one by one as thresholds drop.
        # Per-class ROC points: (0, 0.5), (1, 0.5), (2, 1.0), (3, 1.0).
        # Area to e_max=100: 1*0.5 + 1*0.5 + 98*1 = 99 -> PSDS 0.99.
        t_frames = 3600
        values = np.zeros((t_frames, 1))
        values[0:100, 0] = 0.9
        values[1000:1100, 0] = 0.45
        values[200:210, 0] = 0.7
        values[300:310, 0] = 0.4
        values[400:410, 0] = 0.2
        grid = FrameGrid("c1", 1.0, values)
        ref = EventList(
            [Event("c1", 0.0, 100.0, "A"), Event("c1", 1000.0, 1100.0, "A")]
        )
        cfg = PSDSConfig(
            dtc=0.7, gtc=0.7, cttc=0.3, alpha_ct=0.0, alpha_st=1.0, e_max=100.0,
            operating_points=(0.1, 0.3, 0.5, 0.8),
        )
        report = psds([grid], ref, PostProcessConfig(default_median_window=1), cfg, V1)
        assert report.psds == pytest.approx(0.99, abs=1e-9)
        assert report.class_rocs["A"] == [
            (0.1, 3.0, 1.0), (0.3, 2.0, 1.0), (0.5, 1.0, 0.5), (0.8, 0.0, 0.5),
        ]

    def test_monotone_posterior_transform_invariance(self, rng):
        # halving posteriors and operating points is float-exact and must
        # leave every decision, hence the score, unchanged
        vocab = ClassVocabulary(("A", "B"))
        truth, clip_ids = self._truth(rng, vocab)
        noisy = [FrameGrid(c, 0.1, rng.random((128, 2))) for c in clip_ids]
        ops = tuple(np.linspace(0.02, 0.98, 25))
        cfg1 = PSDSConfig(operating_points=ops)
        cfg2 = PSDSConfig(operating_points=tuple(t / 2 for t in ops))
        halved = [FrameGrid(g.clip_id, 0.1, g.values / 2) for g in noisy]
        pp = PostProcessConfig()
        assert psds(noisy, truth, pp, cfg1, vocab).psds == psds(
            halved, truth, pp, cfg2, vocab
        ).psds

    def test_cross_triggers_raise_efpr(self):
        # class A fires exactly inside class B's ground truth: a pure
        # cross-trigger; with alpha_ct > 0 it must inflate A's eFPR
        vocab = ClassVocabulary(("A", "B"))
        t_frames = 3600
        values = np.zeros((t_frames, 2))
        values[0:100, 0] = 0.9      # true A
        values[1000:1100, 0] = 0.9  # A detection on top of B ground truth
        values[1000:1100, 1] = 0.9  # true B
        grid = FrameGrid("c1", 1.0, values)
        ref = EventList(
            [Event("c1", 0.0, 100.0, "A"), Event("c1", 1000.0, 1100.0, "B")]
        )
        ops = (0.5,)
        no_ct = PSDSConfig(dtc=0.7, gtc=0.7, cttc=0.3, alpha_ct=0.0,
                           operating_points=ops)
        with_ct = PSDSConfig(dtc=0.7, gtc=0.7, cttc=0.3, alpha_ct=0.5,
                             operating_points=ops)
        pp = PostProcessConfig(default_median_window=1)
        r_no, r_ct = psds_many([grid], ref, pp, [no_ct, with_ct], vocab)
        efpr_no = r_no.class_rocs["A"][0][1]
        efpr_ct = r_ct.class_rocs["A"][0][1]
        # one FP per hour, plus 0.5 * (1 cross-trigger / 100 s of B truth)
        assert efpr_no == pytest.approx(1.0)
        assert efpr_ct == pytest.approx(1.0 + 0.5 * 3600 / 100.0)

    def test_covering_missed_event_raises_etpr_without_instability_penalty(self):
        # with alpha_st = 0 the effective curve is the plain class mean, so
        # detecting a previously missed event can only raise it (with the
        # mean - std penalty this is not a theorem: lifting a class already
        # far above the mean can lower mean - std)
        vocab = ClassVocabulary(("A", "B"))
        t_frames = 3600
        base = np.zeros((t_frames, 2))
        base[0:100, 0] = 0.9
        base[1000:1100, 1] = 0.9
        better = base.copy()
        better[2000:2100, 1] = 0.9  # covers B's second, otherwise-missed event
        ref = EventList(
            [
                Event("c1", 0.0, 100.0, "A"),
                Event("c1", 1000.0, 1100.0, "B"),
                Event("c1", 2000.0, 2100.0, "B"),
            ]
        )
        cfg = PSDSConfig(dtc=0.7, gtc=0.7, alpha_st=0.0, operating_points=(0.5,))
        pp = PostProcessConfig(default_median_window=1)
        lo = psds([FrameGrid("c1", 1.0, base)], ref, pp, cfg, vocab)
        hi = psds([FrameGrid("c1", 1.0, better)], ref, pp, cfg, vocab)
        assert hi.psds > lo.psds
        for (_, m1, _), (_, m2, _) in zip(lo.effective_curve, hi.effective_curve):
            assert m2 >= m1

    def test_empty_reference_rejected(self, rng):
        grids = [FrameGrid("c", 0.1, rng.random((16, 1)))]
        with pytest.raises(ValidationError):
            psds(grids, EventList([]), PostProcessConfig(), PSDS1, V1)

    def test_no_configs_rejected(self, rng):
        grids = [FrameGrid("c", 0.1, rng.random((16, 1)))]
        ref = EventList([Event("c", 0.0, 0.5, "A")])
        with pytest.raises(ValidationError, match="no PSDS configs given"):
            psds_many(grids, ref, PostProcessConfig(), [], V1)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            PSDSConfig(dtc=0.0)
        with pytest.raises(ValidationError):
            PSDSConfig(operating_points=(0.5, 0.4))
        with pytest.raises(ValidationError):
            PSDSConfig(operating_points=())

    @pytest.mark.parametrize(
        "data, shown",
        [
            pytest.param({"dtc": "0.7"}, "dtc '0.7' must be a number", id="string-dtc"),
            pytest.param({"dtc": True}, "dtc True must be a number", id="bool-dtc"),
            pytest.param({"e_max": True}, "e_max True must be a number", id="bool-e-max"),
            pytest.param({"alpha_ct": None}, "alpha_ct None must be a number", id="null-alpha"),
            pytest.param({"operating_points": [0.1, "0.2"]},
                         "operating point '0.2' must be a number", id="string-point"),
            pytest.param({"operating_points": [0.1, True]},
                         "operating point True must be a number", id="bool-point"),
            pytest.param({"operating_points": 0.5},
                         "operating_points 0.5 must be a list of numbers", id="scalar-points"),
            pytest.param({"dtc": 0.7, "bogus": 1}, "unknown PSDS config keys ['bogus']",
                         id="unknown-key"),
        ],
    )
    def test_config_field_types(self, data, shown):
        with pytest.raises(ValidationError, match=re.escape(shown)):
            PSDSConfig.from_dict(data)

    def test_psds_within_unit_interval(self, rng):
        vocab = ClassVocabulary(("A", "B"))
        truth, clip_ids = self._truth(rng, vocab)
        noisy = [FrameGrid(c, 0.1, rng.random((128, 2))) for c in clip_ids]
        report = psds(noisy, truth, PostProcessConfig(), PSDS2, vocab)
        assert 0.0 <= report.psds <= 1.0
        for _, efpr, _ in report.class_rocs["A"]:
            assert efpr >= 0.0


def covered(a, b, intervals):
    """|[a, b) ∩ union of intervals|, merging the intervals in a plain loop."""
    union = []
    for s, e in sorted(intervals):
        if union and s <= union[-1][1]:
            union[-1][1] = max(union[-1][1], e)
        else:
            union.append([s, e])
    return sum(max(0.0, min(b, e) - max(a, s)) for s, e in union)


def brute_force_psds(grids, ref, pp, cfgs, vocab):
    """Decode at each operating point on its own and classify every detection
    against the PSDS criteria one at a time; the counts then go through the
    scorer's own ``_roc_report``, which the sweep does not touch."""
    ops = cfgs[0].operating_points
    classes = vocab.classes
    gt = {}
    for ev in ref:
        gt.setdefault((ev.clip_id, ev.event_label), []).append((ev.onset, ev.offset))
    n_ref = np.array([sum(ev.event_label == c for ev in ref) for c in classes])
    gt_dur = np.array(
        [sum(ev.offset - ev.onset for ev in ref if ev.event_label == c) for c in classes],
        dtype=float,
    )
    total_dur = sum(g.duration_seconds for g in grids)
    reports = []
    for cfg in cfgs:
        tp = np.zeros((len(ops), len(classes)), dtype=np.int64)
        fp = np.zeros_like(tp)
        ct = np.zeros((len(ops), len(classes), len(classes)), dtype=np.int64)
        for oi, threshold in enumerate(ops):
            passing = {}
            at_threshold = dataclasses.replace(pp, default_threshold=threshold)
            for d in decode_many(grids, at_threshold, vocab):
                c, length = classes.index(d.event_label), d.offset - d.onset
                key = (d.clip_id, d.event_label)
                if covered(d.onset, d.offset, gt.get(key, [])) / length >= cfg.dtc:
                    passing.setdefault(key, []).append((d.onset, d.offset))
                    continue
                fp[oi, c] += 1
                for c2, other in enumerate(classes):
                    other_gt = gt.get((d.clip_id, other), [])
                    if c2 != c and covered(d.onset, d.offset, other_gt) / length >= cfg.cttc:
                        ct[oi, c, c2] += 1
            for ev in ref:
                dets = passing.get((ev.clip_id, ev.event_label), [])
                if covered(ev.onset, ev.offset, dets) / (ev.offset - ev.onset) >= cfg.gtc:
                    tp[oi, classes.index(ev.event_label)] += 1
        evaluated = np.flatnonzero(n_ref > 0)
        reports.append(
            _roc_report(cfg, ops, vocab, evaluated, n_ref, gt_dur, total_dur, tp, fp, ct)
        )
    return reports


POSTERIOR = st.integers(0, 20).map(lambda k: k / 20)
WINDOW = st.integers(0, 3).map(lambda k: 2 * k + 1)
# One point; a subset of the posterior grid, so cells land on thresholds; 319
# points, more than an 8-bit level holds (16k / 320 is the same double as k / 20).
OPERATING_POINTS = st.one_of(
    st.just((0.5,)),
    st.lists(st.integers(1, 19), min_size=1, unique=True).map(
        lambda ks: tuple(k / 20 for k in sorted(ks))
    ),
    st.just(tuple(k / 320 for k in range(1, 320))),
)


@st.composite
def psds_setups(draw):
    """A few clips with dyadic hops and mixed frame counts, reference events on a
    quarter-second grid (so every time and coverage is exact), per-class windows."""
    vocab = ClassVocabulary(tuple("abc"[: draw(st.integers(1, 3))]))
    pp = PostProcessConfig(
        default_median_window=draw(WINDOW),
        class_median_windows=draw(st.dictionaries(st.sampled_from(vocab.classes), WINDOW)),
    )
    grids, events = [], []
    for i in range(draw(st.integers(1, 4))):
        hop = draw(st.sampled_from((0.25, 0.5, 1.0)))
        frames = draw(st.integers(1, 12))
        row = st.lists(POSTERIOR, min_size=len(vocab), max_size=len(vocab))
        values = draw(st.lists(row, min_size=frames, max_size=frames))
        grids.append(FrameGrid(f"c{i}", hop, np.array(values)))
        quarters = int(frames * hop * 4)
        for _ in range(draw(st.integers(1 if i == 0 else 0, 3))):
            onset = draw(st.integers(0, quarters - 1))
            offset = draw(st.integers(onset + 1, quarters))
            label = draw(st.sampled_from(vocab.classes))
            events.append(Event(f"c{i}", onset / 4, offset / 4, label))
    return grids, EventList(events), pp, vocab


def _check_psds_oracle(setup, ops):
    grids, ref, pp, vocab = setup
    cfgs = [
        PSDSConfig.from_dict({**base.to_dict(), "operating_points": ops})
        for base in (PSDS1, PSDS2)
    ]
    assert cfgs[1].alpha_ct > 0
    got = psds_many(grids, ref, pp, cfgs, vocab)
    for report, oracle in zip(got, brute_force_psds(grids, ref, pp, cfgs, vocab)):
        assert report.class_rocs == oracle.class_rocs
        assert report.psds == oracle.psds


class TestPSDSOracle:
    @settings(max_examples=100, deadline=None)
    @given(setup=psds_setups(), ops=OPERATING_POINTS)
    def test_sweep_equals_brute_force(self, setup, ops):
        _check_psds_oracle(setup, ops)

    @settings(max_examples=50, deadline=None)
    @given(setup=psds_setups(), ops=OPERATING_POINTS)
    def test_sweep_in_one_point_blocks(self, setup, ops):
        # A budget of one (k, position) pair: each block of operating points
        # holds one point, and each stack one clip.
        with mock.patch.object(decode, "_BLOCK_CELLS", 1):
            _check_psds_oracle(setup, ops)


def _psds_or_error(setup, cfgs):
    """``psds_many``'s reports as dicts, or the type and message of its error."""
    grids, ref, pp, vocab = setup
    try:
        return [r.to_dict() for r in psds_many(grids, ref, pp, cfgs, vocab)]
    except ValidationError as exc:
        return type(exc), str(exc)


def _forked_only(work, parts):
    """``core._dealt`` without its serial rerun: a child that fails fails the test."""
    consumed = []

    def once(items):
        assert not consumed, "a part failed in its child, and the job ran again serially"
        consumed.append(True)
        return list(items)

    return core._dealt(work, parts, once)


def _five_classes():
    """Three clips of five classes, with references of every class at other times."""
    vocab = ClassVocabulary(tuple("abcde"))
    rng = np.random.default_rng(3)
    grids = [FrameGrid(f"c{i}", 0.25, rng.random((12, 5))) for i in range(3)]
    ref = EventList([
        Event(f"c{i}", 0.25 * ((i + 2 * j) % 5), 0.25 * ((i + 2 * j) % 5 + 2 + j), label)
        for i in range(3) for j, label in enumerate("abcde")
    ])
    return grids, ref, PostProcessConfig(), vocab


class TestForkedPSDS:
    """``psds_many`` deals its classes to forked children above a floor of cells
    times operating points: whatever fails, the reports and errors are the
    serial pass's. That no process or fd is left behind is checked after every
    test."""

    @pytest.fixture
    def dealt(self, monkeypatch):
        """Set the CPU count, with a floor of 1 so that each CPU gets a class;
        count the forks."""
        monkeypatch.setattr(metrics, "_MIN_PSDS_CELLS", 1)
        forks, real = [], os.fork

        def on(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            forks.clear()
            return forks

        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        return on

    @settings(max_examples=20, deadline=None)
    @given(setup=psds_setups(), ops=OPERATING_POINTS, cpus=st.sampled_from((2, 3, 8)))
    def test_forked_equals_serial_and_brute_force(self, setup, ops, cpus):
        grids, ref, pp, vocab = setup
        cfgs = [PSDSConfig.from_dict({**base.to_dict(), "operating_points": ops})
                for base in (PSDS1, PSDS2)]
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            serial = _psds_or_error(setup, cfgs)
        forks, real = [], os.fork
        with mock.patch.object(metrics, "_MIN_PSDS_CELLS", 1), \
                mock.patch.object(metrics, "_dealt", _forked_only), \
                mock.patch.object(os, "fork", lambda: forks.append(1) or real()), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                  create=True):
            forked = _psds_or_error(setup, cfgs)
        assert forked == serial
        assert len(forks) == min(cpus, len(vocab)) - 1
        oracle = brute_force_psds(grids, ref, pp, cfgs, vocab)
        assert forked == [r.to_dict() for r in oracle]

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_forked_equals_serial(self, dealt, monkeypatch, cpus):
        dealt(1)
        serial = _psds_or_error(_five_classes(), [PSDS1, PSDS2])
        forks = dealt(cpus)
        monkeypatch.setattr(metrics, "_dealt", _forked_only)
        assert _psds_or_error(_five_classes(), [PSDS1, PSDS2]) == serial
        assert len(forks) == min(cpus, 5) - 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_error_in_a_later_block_is_the_serial_error(self, dealt, cpus):
        # Clip c0's hop puts c1 so far along the dataset's time line that c1's
        # detections lose their length there: classes b and c detect in c1, so
        # their blocks fail in children, and the serial pass raises b's error.
        vocab = ClassVocabulary(("a", "b", "c"))
        values = np.zeros((4, 3))
        values[1:3, 1:] = 1.0
        setup = ([FrameGrid("c0", 1e300, np.zeros((4, 3))), FrameGrid("c1", 0.25, values)],
                 EventList([Event("c0", 0.0, 1.0, "a")]),
                 PostProcessConfig(default_median_window=1), vocab)
        dealt(1)
        serial = _psds_or_error(setup, [PSDS1, PSDS2])
        assert serial == (ValidationError, "c1: an event has no length once its clip is "
                          "placed on the dataset's time line; clip durations are too large "
                          "to score")
        forks = dealt(cpus)
        assert _psds_or_error(setup, [PSDS1, PSDS2]) == serial
        assert len(forks) == cpus - 1

    def test_no_second_child_gives_the_serial_reports(self, dealt, monkeypatch):
        dealt(1)
        serial = _psds_or_error(_five_classes(), [PSDS1, PSDS2])
        forks = dealt(3)
        counted = os.fork  # appends to forks

        def second_fails():
            if len(forks) == 1:
                forks.append(1)
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return counted()

        monkeypatch.setattr(os, "fork", second_fails)
        assert _psds_or_error(_five_classes(), [PSDS1, PSDS2]) == serial
        assert len(forks) == 2

    def test_eight_clips_are_not_dealt(self, monkeypatch):
        # The floor keeps a smoke-sized sweep in one process.
        forks, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        vocab = ClassVocabulary(tuple(f"e{i}" for i in range(10)))
        grids = [FrameGrid(f"c{i}", 0.02, np.full((500, 10), 0.5)) for i in range(8)]
        ref = EventList([Event("c0", 0.0, 1.0, "e0")])
        psds_many(grids, ref, PostProcessConfig(), [PSDS1, PSDS2], vocab)
        assert forks == []


class LoopCoverage:
    """Covered time of sorted disjoint intervals, as the scorer computed it when it
    counted one operating point and one detection array at a time."""

    def __init__(self, starts, ends):
        self.starts, self.ends = starts, ends
        self.prefix = np.concatenate([[0.0], np.cumsum(ends - starts)])

    @classmethod
    def from_intervals(cls, starts, ends):
        if len(starts) == 0:
            return cls(np.empty(0), np.empty(0))
        order = np.argsort(starts, kind="stable")
        starts, reach = starts[order], np.maximum.accumulate(ends[order])
        first = np.flatnonzero(np.r_[True, starts[1:] > reach[:-1]])
        return cls(starts[first], reach[np.r_[first[1:], len(starts)] - 1])

    def covered_before(self, x):
        if not len(self.starts):
            return np.zeros(len(x))
        j = np.searchsorted(self.starts, x, side="right")
        overshoot = np.where(j >= 1, np.maximum(0.0, self.ends[np.maximum(j - 1, 0)] - x), 0.0)
        return self.prefix[j] - overshoot

    def intersect(self, a, b):
        return self.covered_before(b) - self.covered_before(a)


def loop_psds_many(grids, ref, pp, cfgs, vocab):
    """PSDS counting as a loop over operating points, classes and configs, on the
    same float operations as the scorer: each operating point decodes on its own,
    one coverage per (operating point, class) holds the passing detections, and
    every failing detection is scored against every other class. Returns the
    reports and the (config, operating point, class[, class]) tp, fp and ct."""
    ops, n = cfgs[0].operating_points, len(vocab)
    band = max(g.duration_seconds for g in grids) + 1.0
    base = {g.clip_id: k * band for k, g in enumerate(grids)}
    cls = np.array([vocab.index(ev.event_label) for ev in ref])
    ref_base = np.array([base[ev.clip_id] for ev in ref])
    ref_on = np.array([ev.onset for ev in ref]) + ref_base
    ref_off = np.array([ev.offset for ev in ref]) + ref_base
    gt = [(ref_on[cls == c], ref_off[cls == c]) for c in range(n)]
    gt_cov = [LoopCoverage.from_intervals(on, off) for on, off in gt]
    n_ref = np.bincount(cls, minlength=n)
    gt_dur = np.array([float(np.sum(off - on)) for on, off in gt])
    evaluated = np.flatnonzero(n_ref > 0)
    tp = np.zeros((len(cfgs), len(ops), n), dtype=np.int64)
    fp = np.zeros_like(tp)
    ct = np.zeros((len(cfgs), len(ops), n, n), dtype=np.int64)
    for oi, threshold in enumerate(ops):
        detected = decode_many(grids, dataclasses.replace(pp, default_threshold=threshold), vocab)
        for c, name in enumerate(vocab.classes):
            mine = [d for d in detected if d.event_label == name]
            on = np.array([d.onset + base[d.clip_id] for d in mine])
            off = np.array([d.offset + base[d.clip_id] for d in mine])
            ratio_same = gt_cov[c].intersect(on, off) / (off - on)
            for gi, cfg in enumerate(cfgs):
                passing = ratio_same >= cfg.dtc
                fp[gi, oi, c] = np.sum(~passing)
                if n_ref[c] > 0 and passing.any():
                    covered = LoopCoverage(on[passing], off[passing]).intersect(*gt[c])
                    tp[gi, oi, c] = np.sum(covered / (gt[c][1] - gt[c][0]) >= cfg.gtc)
                for c2 in evaluated:
                    if cfg.alpha_ct > 0 and c2 != c:
                        f_on, f_off = on[~passing], off[~passing]
                        ratio = gt_cov[c2].intersect(f_on, f_off) / (f_off - f_on)
                        ct[gi, oi, c, c2] = np.sum(ratio >= cfg.cttc)
    total_dur = float(sum(g.duration_seconds for g in grids))
    reports = [
        _roc_report(cfg, ops, vocab, evaluated, n_ref, gt_dur, total_dur, tp[gi], fp[gi], ct[gi])
        for gi, cfg in enumerate(cfgs)
    ]
    return reports, (tp, fp, ct)


# Hops whose frame times round, as 0.064, 0.1 and 0.02 do; criteria down to a cttc
# so small that any rounded, non-zero cross-trigger ratio counts.
NON_DYADIC_HOPS = (0.064, 0.1, 0.02)
CRITERIA = st.sampled_from((0.1, 0.3, 1 / 3, 0.5, 0.7, 1.0))
CTTC = st.one_of(CRITERIA, st.sampled_from((1e-12, 1e-300)))


@st.composite
def non_dyadic_setups(draw):
    """Clips with non-dyadic hops, up to 6 overlapping reference events per clip,
    some on frame boundaries (so a detection's offset can equal a reference onset)
    and some on hundredths of the clip; drawn PSDS criteria."""
    vocab = ClassVocabulary(tuple("abc"[: draw(st.integers(1, 3))]))
    pp = PostProcessConfig(
        default_median_window=draw(WINDOW),
        class_median_windows=draw(st.dictionaries(st.sampled_from(vocab.classes), WINDOW)),
    )
    grids, events = [], []
    for i in range(draw(st.integers(1, 4))):
        hop, frames = draw(st.sampled_from(NON_DYADIC_HOPS)), draw(st.integers(1, 24))
        row = st.lists(POSTERIOR, min_size=len(vocab), max_size=len(vocab))
        grids.append(FrameGrid(f"c{i}", hop, np.array(draw(st.lists(row, min_size=frames,
                                                                  max_size=frames)))))
        for _ in range(draw(st.integers(1 if i == 0 else 0, 6))):
            if draw(st.booleans()):
                a, b = draw(st.lists(st.integers(0, frames), min_size=2, max_size=2, unique=True))
                onset, offset = min(a, b) * hop, max(a, b) * hop
            else:
                a, b = draw(st.lists(st.integers(0, 100), min_size=2, max_size=2, unique=True))
                onset, offset = frames * hop * min(a, b) / 100, frames * hop * max(a, b) / 100
            events.append(Event(f"c{i}", onset, offset, draw(st.sampled_from(vocab.classes))))
    ops = draw(st.one_of(OPERATING_POINTS.filter(lambda p: len(p) < 100),
                         st.just(DEFAULT_OPERATING_POINTS)))
    cfgs = [
        PSDSConfig(dtc=draw(CRITERIA), gtc=draw(CRITERIA), cttc=draw(CTTC),
                   alpha_ct=draw(st.sampled_from((0.0, 0.5, 1.0))), operating_points=ops)
        for _ in range(draw(st.integers(1, 2)))
    ]
    return grids, EventList(events), pp, cfgs, vocab


def _check_against_loop(setup):
    grids, ref, pp, cfgs, vocab = setup
    oracle, _ = loop_psds_many(grids, ref, pp, cfgs, vocab)
    for report, expected in zip(psds_many(grids, ref, pp, cfgs, vocab), oracle):
        assert report.class_rocs == expected.class_rocs
        assert report.psds == expected.psds


class TestPSDSCountingMatchesLoop:
    """Block-wide counting gives the counts of the per-detection loop bit for bit,
    also where times and coverages round."""

    @settings(max_examples=100, deadline=None)
    @given(setup=non_dyadic_setups())
    def test_non_dyadic_times(self, setup):
        _check_against_loop(setup)

    @settings(max_examples=50, deadline=None)
    @given(setup=non_dyadic_setups())
    def test_non_dyadic_times_in_one_point_blocks(self, setup):
        with mock.patch.object(decode, "_BLOCK_CELLS", 1):
            _check_against_loop(setup)

    def test_offset_on_another_class_onset_counts_rounded_ratio(self):
        # Class b's coverage has the pieces [0, 0.1) and [0.2, 0.4), each end a frame
        # time as decoding computes it. Class a fires on frame 1: its detection
        # [0.1, 0.2) ends where b's second piece starts. There the two prefix-sum
        # lookups differ by a rounding residue, not by 0, so at a cttc of 1e-300
        # the detection cross-triggers b.
        hop, vocab = 0.1, ClassVocabulary(("a", "b"))
        values = np.zeros((20, 2))
        values[1, 0] = 1.0
        grids = [FrameGrid("c0", hop, values)]
        ref = EventList([
            Event("c0", 0.0, 1 * hop, "b"), Event("c0", 2 * hop, 4 * hop, "b"),
            Event("c0", 1.5, 1.9, "a"),
        ])
        pp = PostProcessConfig(default_median_window=1)
        cfg = PSDSConfig(dtc=0.5, gtc=0.5, cttc=1e-300, alpha_ct=1.0, operating_points=(0.5,))
        oracle, (_, _, ct) = loop_psds_many(grids, ref, pp, [cfg], vocab)
        assert ct[0, 0, 0, 1] == 1
        [report] = psds_many(grids, ref, pp, [cfg], vocab)
        assert report.class_rocs == oracle[0].class_rocs
        assert report.psds == oracle[0].psds


class TestRowCoverageBudget:
    """tp's coverage searches run on row groups of (rows, 2 * references) cells, at
    most the block budget, or one row where a class has more references than that."""

    @pytest.mark.parametrize("block_cells", [64, 256])
    def test_searches_stay_within_block_budget(self, block_cells, monkeypatch):
        # Two slow waves make one to three runs per class at most operating points,
        # so a block of levels holds many rows; 13 references per class.
        hop, vocab = 0.1, ClassVocabulary(("a", "b"))
        t = np.arange(400) * hop
        values = 0.5 + 0.5 * np.stack([np.sin(1.3 * t) * np.sin(0.17 * t), np.cos(0.9 * t)], 1)
        grids = [FrameGrid("c0", hop, values)]
        ref = EventList([Event("c0", 1.5 * i, 1.5 * i + 0.8, "ab"[i % 2]) for i in range(26)])
        pp, cfgs = PostProcessConfig(), [PSDS1, PSDS2]
        expected = psds_many(grids, ref, pp, cfgs, vocab)
        shapes, row_coverage = [], metrics._row_coverage

        def recording(*args):
            share = row_coverage(*args)
            shapes.append(share.shape)
            return share
        monkeypatch.setattr(metrics, "_row_coverage", recording)
        with mock.patch.object(decode, "_BLOCK_CELLS", block_cells):
            assert psds_many(grids, ref, pp, cfgs, vocab) == expected
        assert shapes
        assert all(rows * 2 * refs <= max(block_cells, 2 * refs) for rows, refs in shapes)


class TestReportTables:
    def test_percent_formatting(self):
        from sedfuse.metrics import ClassScore, F1Report

        report = F1Report({"A": ClassScore(1, 0, 0, 1.0, 1.0, 0.465)}, 0.465)
        tables = report_tables({"system10": report})
        text = tables.to_text()
        assert "46.5" in text

    def test_empty_systems(self):
        tables = report_tables({})
        assert tables.systems == []
        assert "System" in tables.to_text()

    def test_json_round_trip_bit_exact(self, rng):
        from sedfuse.metrics import ClassScore, F1Report

        f1 = float(rng.random())
        report = F1Report({"A": ClassScore(3, 2, 1, 0.6, 0.75, f1)}, f1)
        tables = report_tables({"s": report})
        payload = json.dumps(tables.to_dict())
        again = json.loads(payload)
        assert again["overall"]["s"]["collar_f1"] == f1
        assert again["classwise_f1"]["A"]["s"] == f1
