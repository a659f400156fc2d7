"""Seeded synthetic scenarios: event timelines, noisy model posteriors with
per-class skill, and an imperfect separation + tagging simulation.

Everything is a pure function of (config, seed). Randomness comes from the
PCG64 bit generator seeded with ``SeedSequence((seed, stream, clip_index))``
so per-clip generation is order-independent; only uniform doubles and
uniform integers are drawn, and shaped noise is produced by explicit
inverse-CDF transforms. Posterior noise is beta-shaped with a per-class
sharpness: active frames draw ``u ** (1/s)``, inactive frames
``1 - (1-u) ** (1/s)``, which makes ``s = inf`` the exact 0/1 limit.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .core import (
    ANY,
    BOOL,
    INTEGER,
    NAMES,
    NUMBER,
    OBJECT,
    STRING,
    ClassVocabulary,
    Event,
    EventList,
    FrameGrid,
    Kind,
    SeparationManifest,
    TagPrediction,
    ValidationError,
    WeakLabelSet,
    checked,
    fmt_float,
    list_of,
    load_json_object,
    object_of,
    read_fields,
)

STREAM_TRUTH = 0
STREAM_MODEL = 1
STREAM_SEPARATION = 2

_PLACEMENT_ATTEMPTS = 100

DOMESTIC_CLASSES = (
    "Alarm_bell_ringing",
    "Blender",
    "Cat",
    "Dishes",
    "Dog",
    "Electric_shaver_toothbrush",
    "Frying",
    "Running_water",
    "Speech",
    "Vacuum_cleaner",
)


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream, index))))


def default_class_names(n_classes: int) -> tuple[str, ...]:
    if n_classes == len(DOMESTIC_CLASSES):
        return DOMESTIC_CLASSES
    return tuple(f"event_{i:02d}" for i in range(n_classes))


@dataclass(frozen=True)
class ScenarioConfig:
    """Shape of the synthetic dataset: clips, vocabulary, event statistics."""

    seed: int = 42
    n_clips: int = 200
    clip_seconds: float = 10.0
    frames_per_clip: int = 512
    classes: tuple[str, ...] = DOMESTIC_CLASSES
    events_per_clip: tuple[int, int] = (1, 4)
    duration_seconds: tuple[float, float] = (0.25, 3.0)
    class_duration_seconds: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    allow_overlap: bool = True

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(
            self,
            "class_duration_seconds",
            {k: (float(a), float(b)) for k, (a, b) in dict(self.class_duration_seconds).items()},
        )
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} must be >= 0")
        if self.frames_per_clip < 1:
            raise ValidationError("frames_per_clip must be >= 1")
        if self.n_clips < 1:
            raise ValidationError("n_clips must be >= 1")
        if not self.clip_seconds > 0:
            raise ValidationError("clip_seconds must be > 0")
        lo, hi = self.events_per_clip
        if not (0 <= lo <= hi):
            raise ValidationError(f"bad events_per_clip bounds {self.events_per_clip}")
        vocab = ClassVocabulary(self.classes)  # validates names
        for name in self.class_duration_seconds:
            vocab.index(name)
        for bounds in [self.duration_seconds, *self.class_duration_seconds.values()]:
            dmin, dmax = bounds
            if not (0 < dmin <= dmax):
                raise ValidationError(f"bad duration bounds {bounds}")
            if dmax > self.clip_seconds:
                raise ValidationError(
                    f"duration bound {dmax} exceeds clip length {self.clip_seconds}"
                )

    @property
    def hop_seconds(self) -> float:
        return self.clip_seconds / self.frames_per_clip

    @property
    def vocab(self) -> ClassVocabulary:
        return ClassVocabulary(self.classes)

    def clip_ids(self) -> list[str]:
        return [f"clip_{i:04d}" for i in range(self.n_clips)]

    def duration_frames(self, class_name: str) -> tuple[int, int]:
        dmin, dmax = self.class_duration_seconds.get(class_name, self.duration_seconds)
        hop = self.hop_seconds
        lo = max(1, round(dmin / hop))
        hi = min(self.frames_per_clip, max(lo, round(dmax / hop)))
        if lo > self.frames_per_clip:
            raise ValidationError(
                f"{class_name}: minimum duration {dmin}s does not fit in a clip"
            )
        return lo, hi


@dataclass(frozen=True)
class ModelSkill:
    """Per-class detection quality of one simulated model.

    All tuples follow the vocabulary class order. ``sharpness`` controls
    how cleanly posteriors separate active from inactive frames;
    ``math.inf`` yields exact 0/1 posteriors.
    """

    miss_rate: tuple[float, ...]
    false_alarm_rate: tuple[float, ...]
    jitter_frames: tuple[int, ...]
    sharpness: tuple[float, ...]

    def __post_init__(self):
        lens = {
            len(self.miss_rate),
            len(self.false_alarm_rate),
            len(self.jitter_frames),
            len(self.sharpness),
        }
        if len(lens) != 1:
            raise ValidationError("per-class skill tuples must share one length")
        for r in (*self.miss_rate, *self.false_alarm_rate):
            if not (0.0 <= r <= 1.0):
                raise ValidationError(f"rate {fmt_float(r)} outside [0, 1]")
        for j in self.jitter_frames:
            if j < 0:
                raise ValidationError("jitter must be >= 0 frames")
        for s in self.sharpness:
            if not s > 0:
                raise ValidationError("sharpness must be > 0")

    @classmethod
    def uniform(
        cls,
        n_classes: int,
        miss_rate: float = 0.1,
        false_alarm_rate: float = 0.01,
        jitter_frames: int = 3,
        sharpness: float = 8.0,
    ) -> "ModelSkill":
        return cls(
            (miss_rate,) * n_classes,
            (false_alarm_rate,) * n_classes,
            (jitter_frames,) * n_classes,
            (sharpness,) * n_classes,
        )


@dataclass(frozen=True)
class SeparationSkill:
    """Outcome mix for separated sources and the tagger's error rate.

    Per event: ``clean`` puts it alone in its own source, ``leakage``
    lets it share a source with an earlier event, ``residual`` buries it
    in a background-dominated source the tagger reads as non-target.
    """

    clean: float = 0.65
    leakage: float = 0.2
    residual: float = 0.15
    tagging_error: float = 0.1

    def __post_init__(self):
        for p in (self.clean, self.leakage, self.residual, self.tagging_error):
            if not (0.0 <= checked(p, "probability", NUMBER) <= 1.0):
                raise ValidationError(f"probability {fmt_float(p)} outside [0, 1]")
        if self.clean + self.leakage + self.residual <= 0:
            raise ValidationError("outcome probabilities sum to zero")


# ---------------------------------------------------------------------------
# Truth generation
# ---------------------------------------------------------------------------


def gen_truth(cfg: ScenarioConfig) -> tuple[EventList, WeakLabelSet]:
    """Frame-aligned event timelines; weak labels are the clips' class sets.

    Same-class events always keep at least one inactive frame between
    them so run-length decoding of the rasterized truth is lossless.
    """
    vocab = cfg.vocab
    hop = cfg.hop_seconds
    t_frames = cfg.frames_per_clip
    events: list[Event] = []
    weak: dict[str, frozenset[str]] = {}
    for k, clip_id in enumerate(cfg.clip_ids()):
        rng = _rng(cfg.seed, STREAM_TRUTH, k)
        lo, hi = cfg.events_per_clip
        n_events = int(rng.integers(lo, hi + 1))
        placed: list[tuple[int, int, int]] = []
        for _ in range(n_events):
            c = int(rng.integers(0, len(vocab)))
            dlo, dhi = cfg.duration_frames(vocab.classes[c])
            for _attempt in range(_PLACEMENT_ATTEMPTS):
                dur = int(rng.integers(dlo, dhi + 1))
                start = int(rng.integers(0, t_frames - dur + 1))
                if _placement_ok(start, start + dur, c, placed, cfg.allow_overlap):
                    placed.append((start, start + dur, c))
                    break
        placed.sort()
        clip_classes = set()
        for start, end, c in placed:
            name = vocab.classes[c]
            events.append(Event(clip_id, start * hop, end * hop, name))
            clip_classes.add(name)
        if clip_classes:
            weak[clip_id] = frozenset(clip_classes)
    return EventList(events), WeakLabelSet(weak)


def _placement_ok(
    start: int, end: int, c: int, placed: list[tuple[int, int, int]], allow_overlap: bool
) -> bool:
    for s2, e2, c2 in placed:
        if c == c2:
            if not (end < s2 or e2 < start):  # needs a one-frame gap
                return False
        elif not allow_overlap:
            if not (end <= s2 or e2 <= start):
                return False
    return True


# ---------------------------------------------------------------------------
# Model simulation
# ---------------------------------------------------------------------------


def simulate_model(
    truth: EventList,
    skill: ModelSkill,
    cfg: ScenarioConfig,
    seed: int,
) -> list[FrameGrid]:
    """Posterior grids for one model: misses, per-frame false alarms,
    boundary jitter, then sharpness-shaped posterior noise.
    """
    vocab = cfg.vocab
    if len(skill.miss_rate) != len(vocab):
        raise ValidationError(
            f"skill covers {len(skill.miss_rate)} classes, vocabulary has {len(vocab)}"
        )
    hop = cfg.hop_seconds
    t_frames = cfg.frames_per_clip
    by_clip = truth.by_clip()
    fa_row = np.asarray(skill.false_alarm_rate)
    sharp_row = np.asarray(skill.sharpness)
    inv_sharp = np.where(np.isinf(sharp_row), 0.0, 1.0 / sharp_row)

    grids = []
    for k, clip_id in enumerate(cfg.clip_ids()):
        rng = _rng(seed, STREAM_MODEL, k)
        active = np.zeros((t_frames, len(vocab)), dtype=bool)
        for ev in by_clip.get(clip_id, []):
            c = vocab.index(ev.event_label)
            jitter = int(skill.jitter_frames[c])
            u_miss = rng.random()
            jit_on = int(rng.integers(-jitter, jitter + 1))
            jit_off = int(rng.integers(-jitter, jitter + 1))
            if u_miss < skill.miss_rate[c]:
                continue
            s_f = round(ev.onset / hop)
            e_f = round(ev.offset / hop)
            s_f = min(max(s_f + jit_on, 0), t_frames - 1)
            e_f = min(max(e_f + jit_off, s_f + 1), t_frames)
            active[s_f:e_f, c] = True
        u_fa = rng.random((t_frames, len(vocab)))
        active |= (~active) & (u_fa < fa_row[None, :])
        u_post = rng.random((t_frames, len(vocab)))
        high = u_post ** inv_sharp[None, :]
        low = 1.0 - (1.0 - u_post) ** inv_sharp[None, :]
        grids.append(FrameGrid(clip_id, hop, np.where(active, high, low)))
    return grids


# ---------------------------------------------------------------------------
# Separation + tagging simulation
# ---------------------------------------------------------------------------


@dataclass
class _Source:
    events: list[Event] = field(default_factory=list)
    buried: bool = False


def simulate_separation(
    truth: EventList,
    clip_ids: Sequence[str],
    vocab: ClassVocabulary,
    sskill: SeparationSkill,
    n_sources: int,
    seed: int,
) -> tuple[SeparationManifest, list[TagPrediction], EventList]:
    """Assign each true event to a source and emit consistent tags.

    Every true event lands in exactly one source's truth. Remaining source
    slots are background. Tag probabilities reflect the source content and
    are corrupted at the tagging error rate.
    """
    by_clip = truth.by_clip()
    for clip_id, events in by_clip.items():
        if len(events) + 1 > n_sources:
            raise ValidationError(
                f"{clip_id}: {len(events)} events need at least "
                f"{len(events) + 1} sources, got {n_sources}"
            )
    outcome_probs = np.array([sskill.clean, sskill.leakage, sskill.residual])
    outcome_cum = np.cumsum(outcome_probs / outcome_probs.sum())

    manifest: dict[str, tuple[str, ...]] = {}
    tags: list[TagPrediction] = []
    source_truth: list[Event] = []
    for k, clip_id in enumerate(clip_ids):
        rng = _rng(seed, STREAM_SEPARATION, k)
        sources: list[_Source] = []
        for ev in by_clip.get(clip_id, []):
            outcome = int(np.searchsorted(outcome_cum, rng.random(), side="right"))
            eligible = [s for s in sources if len(s.events) == 1 and not s.buried]
            if outcome == 1 and eligible:
                eligible[-1].events.append(ev)
            else:
                sources.append(_Source([ev], buried=(outcome == 2)))
        while len(sources) < n_sources:
            sources.append(_Source())

        source_ids = tuple(f"{clip_id}_src{j:02d}" for j in range(n_sources))
        manifest[clip_id] = source_ids
        for sid, source in zip(source_ids, sources):
            tags.append(_make_tag(sid, clip_id, source, vocab, sskill, rng))
            for ev in source.events:
                source_truth.append(Event(sid, ev.onset, ev.offset, ev.event_label))
    return SeparationManifest(manifest), tags, EventList(source_truth)


def _make_tag(
    source_id: str,
    clip_id: str,
    source: _Source,
    vocab: ClassVocabulary,
    sskill: SeparationSkill,
    rng: np.random.Generator,
) -> TagPrediction:
    n = len(vocab)
    corrupted = rng.random() < sskill.tagging_error
    probs = {name: 0.3 * rng.random() for name in vocab.classes}
    probs[vocab.other_label] = 0.2 * rng.random()

    def high() -> float:
        return 0.7 + 0.25 * rng.random()

    def pair_high() -> float:
        return 0.55 + 0.35 * rng.random()

    content = [ev.event_label for ev in source.events]
    distinct = list(dict.fromkeys(content))
    if not content or source.buried:
        # Background-dominated: the tagger sees non-target unless corrupted.
        if corrupted:
            claimed = vocab.classes[int(rng.integers(0, n))]
            probs[claimed] = high()
        else:
            probs[vocab.other_label] = high()
    elif len(distinct) == 1:
        if corrupted and n > 1:
            wrong = int(rng.integers(0, n - 1))
            name = [c for c in vocab.classes if c != distinct[0]][wrong]
            probs[name] = high()
        else:
            probs[distinct[0]] = high()
    else:
        if corrupted:
            keep = distinct[int(rng.integers(0, len(distinct)))]
            probs[keep] = high()
        else:
            for name in distinct:
                probs[name] = pair_high()
    return TagPrediction(source_id, clip_id, probs)


# ---------------------------------------------------------------------------
# Tag accuracy measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TagAccuracy:
    correct: int
    total: int

    @property
    def rate(self) -> float:
        return self.correct / self.total if self.total else 0.0


def predicted_class(tag: TagPrediction, vocab: ClassVocabulary) -> str:
    """Highest-probability target class; ties resolve to vocabulary order."""
    best = vocab.classes[0]
    for name in vocab.classes[1:]:
        if tag.probs[name] > tag.probs[best]:
            best = name
    return best


def tag_accuracy(
    tags: Sequence[TagPrediction],
    source_truth: EventList,
    vocab: ClassVocabulary,
    subset: set[str] | None = None,
) -> TagAccuracy:
    """Fraction of sources whose top target class names their one true event.

    A source counts as correct only when it carries exactly one event and
    the tagger's top target class matches it; background, buried and
    multi-event sources count against whatever population they are in.
    """
    correct = 0
    total = 0
    by_source = source_truth.by_clip()
    for tag in tags:
        if subset is not None and tag.source_id not in subset:
            continue
        total += 1
        content = by_source.get(tag.source_id, [])
        if len(content) == 1 and content[0].event_label == predicted_class(tag, vocab):
            correct += 1
    return TagAccuracy(correct, total)


# ---------------------------------------------------------------------------
# Scenario bundle (truth config + model skills + separation + tagging)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Complete generator setup for one synthetic run."""

    config: ScenarioConfig
    model_names: tuple[str, ...]
    model_skills: tuple[ModelSkill, ...]
    separation: SeparationSkill
    n_sources: int
    tau: float = 0.5

    def __post_init__(self):
        if len(self.model_names) != len(self.model_skills):
            raise ValidationError("model names and skills must pair up")
        if len(self.model_names) < 1:
            raise ValidationError("need at least one model")
        if len(set(self.model_names)) < len(self.model_names):
            raise ValidationError(f"model names {list(self.model_names)} must be unique")
        if self.n_sources < self.config.events_per_clip[1] + 1:
            raise ValidationError(
                f"n_sources must be at least max events + 1 "
                f"= {self.config.events_per_clip[1] + 1}"
            )
        if not (0.0 < self.tau < 1.0):
            raise ValidationError("tau must lie in (0, 1)")

    def model_seed(self, model_index: int) -> int:
        # Distinct per model, stable across runs of the same scenario seed.
        return self.config.seed * 1000 + model_index

    def separation_seed(self) -> int:
        return self.config.seed * 1000 + 777

    def to_dict(self) -> dict:
        """The scenario.json structure, lists as tuples; ``scenario_from_dict``
        reads it back."""
        return {
            **asdict(self.config),
            "models": [
                {"name": name, **asdict(skill),
                 "sharpness": ["inf" if s == math.inf else s for s in skill.sharpness]}
                for name, skill in zip(self.model_names, self.model_skills)
            ],
            "separation": asdict(self.separation),
            "n_sources": self.n_sources,
            "tau": self.tau,
        }


# (miss_rate, false_alarm_rate, jitter_frames, sharpness) on a model's strong / weak classes.
_STRONG_SKILL = (0.05, 0.005, 2, 12.0)
_WEAK_SKILL = (0.35, 0.02, 10, 4.0)


def heterogeneous_skills(n_classes: int) -> list[ModelSkill]:
    """Three models with rotated strong/weak per-class parameters, so each owns a
    class stripe: model m is strong exactly on classes c with c % 3 == m."""
    return [
        ModelSkill(*zip(*(_STRONG_SKILL if c % 3 == m else _WEAK_SKILL for c in range(n_classes))))
        for m in range(3)
    ]


def default_scenario(seed: int = 42, n_clips: int = 200) -> Scenario:
    """Three models with rotated class skills over ten classes and the default
    timeline: the defaults of scenario.json."""
    return scenario_from_dict({"seed": seed, "n_clips": n_clips})


# A skill field of a models entry's `default` or `per_class` object. Only
# sharpness takes "inf", which Scenario.to_dict writes for an infinite one.
_SKILL_FIELDS = {
    "miss_rate": (NUMBER, 0.1),
    "false_alarm_rate": (NUMBER, 0.01),
    "jitter_frames": (INTEGER, 3),
    "sharpness": (Kind('a number or "inf"', lambda v: v == "inf" or NUMBER.test(v),
                       lambda v: math.inf if v == "inf" else float(v)), 8.0),
}
_SEPARATION_FIELDS = {f.name: (ANY, f.default) for f in fields(SeparationSkill)}
_SCENARIO_FIELDS = {
    "seed": (INTEGER, 42),
    "n_clips": (INTEGER, 200),
    "clip_seconds": (NUMBER, 10.0),
    "frames_per_clip": (INTEGER, 512),
    "classes": (NAMES, None),  # None: `n_classes` default names
    "n_classes": (INTEGER, 10),
    "events_per_clip": (list_of(INTEGER, "a list of 2 integers", 2), (1, 4)),
    "duration_seconds": (list_of(NUMBER, "a list of 2 numbers", 2), (0.25, 3.0)),
    "class_duration_seconds": (object_of(list_of(NUMBER, "a list of 2 numbers", 2)), {}),
    "allow_overlap": (BOOL, True),
    "models": (list_of(None, "a list of objects"), ()),
    "separation": (OBJECT, {}),
    "n_sources": (INTEGER, None),  # None: max events + 1
    "tau": (NUMBER, 0.5),
}


def _model_fields(n_classes: int) -> dict:
    """A models entry's table; a skill field given in the entry itself lists
    one value per class, as Scenario.to_dict writes it."""
    columns = {
        key: (list_of(kind, f"a list of {n_classes} per-class values", n_classes), None)
        for key, (kind, _) in _SKILL_FIELDS.items()
    }
    return {"name": (STRING, None), "default": (OBJECT, {}), "per_class": (object_of(OBJECT), {}),
            **columns}


def _skill_from_fields(entry: dict, classes: Sequence[str]) -> ModelSkill:
    """A field listed in the entry itself, else ``per_class`` over ``default``."""
    default = read_fields(entry["default"], _SKILL_FIELDS, "default")
    table = {key: (kind, default[key]) for key, (kind, _) in _SKILL_FIELDS.items()}
    per_class = {}
    for name, overrides in entry["per_class"].items():
        if name not in classes:
            raise ValidationError(f"skill override for unknown class {name!r}")
        per_class[name] = read_fields(overrides, table, "per_class")
    return ModelSkill(*(
        entry[key] if entry[key] is not None
        else tuple(per_class.get(name, default)[key] for name in classes)
        for key in _SKILL_FIELDS
    ))


def scenario_from_dict(data: Mapping) -> Scenario:
    """Build a scenario from scenario.json data; keys and values are checked, not coerced."""
    top = read_fields(data, _SCENARIO_FIELDS, "scenario")
    n_classes, models, separation, n_sources, tau = map(
        top.pop, ("n_classes", "models", "separation", "n_sources", "tau")
    )
    if top["classes"] is None:
        top["classes"] = default_class_names(n_classes)
    cfg = ScenarioConfig(**top)  # the rest of the table is ScenarioConfig's fields
    table = _model_fields(len(cfg.classes))
    entries = [
        read_fields(checked(m, "models entry", OBJECT), table, "models entry") for m in models
    ]
    if entries:
        names = tuple(
            f"model_{i + 1}" if e["name"] is None else e["name"] for i, e in enumerate(entries)
        )
        skills = tuple(_skill_from_fields(e, cfg.classes) for e in entries)
    else:
        skills = tuple(heterogeneous_skills(len(cfg.classes)))
        names = tuple(f"model_{m + 1}" for m in range(len(skills)))
    return Scenario(
        config=cfg,
        model_names=names,
        model_skills=skills,
        separation=SeparationSkill(**read_fields(separation, _SEPARATION_FIELDS, "separation")),
        n_sources=cfg.events_per_clip[1] + 1 if n_sources is None else n_sources,
        tau=tau,
    )


def load_scenario(path: str | os.PathLike) -> Scenario:
    return load_json_object(path, scenario_from_dict)
