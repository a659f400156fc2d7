"""Selective pseudo-labeling of separated sources.

Each separated source gets a clip-level pseudo-label from its tag
probabilities: exactly one target class above the activation threshold
makes it a single-event clip; none makes it background; two or more make
it ambiguous. A source is then selected iff it is single-event AND its
class belongs to the parent mixture's known label set. Rejected sources
are kept with their rejection reason so the filtering stays auditable.
``select_mixtures`` is the one SPL path of ``sedfuse spl`` and ``experiment``.
"""

from __future__ import annotations

import enum
import os
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import (
    ClassVocabulary,
    SeparationManifest,
    TagPrediction,
    ValidationError,
    _json_line,
    _located,
    atomic_write_text,
    fmt_float,
)


class Verdict(enum.Enum):
    SINGLE_EVENT = "single_event"
    OTHER = "other"
    AMBIGUOUS = "ambiguous"


REASON_OTHER = "other"
REASON_AMBIGUOUS = "ambiguous"
REASON_NOT_IN_WEAK = "not-in-weak-labels"
REJECTION_REASONS = (REASON_OTHER, REASON_AMBIGUOUS, REASON_NOT_IN_WEAK)


@dataclass(frozen=True)
class PseudoLabel:
    """Clip-level verdict for one separated source."""

    verdict: Verdict
    confidence: float
    event_class: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValidationError(f"confidence {fmt_float(self.confidence)} outside [0, 1]")
        if self.verdict is Verdict.SINGLE_EVENT and not self.event_class:
            raise ValidationError("single-event pseudo-label needs a class")
        if self.verdict is not Verdict.SINGLE_EVENT and self.event_class is not None:
            raise ValidationError(f"{self.verdict.value} pseudo-label carries no class")


@dataclass
class SelectionResult:
    """Partition of one mixture's sources into selected and rejected."""

    mixture_id: str
    selected: list[tuple[str, str]] = field(default_factory=list)
    rejected: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        for _, reason in self.rejected:
            if reason not in REJECTION_REASONS:
                raise ValidationError(f"unknown rejection reason {reason!r}")

    @property
    def n_sources(self) -> int:
        return len(self.selected) + len(self.rejected)


def assign_pseudo_label(
    tag: TagPrediction, tau: float, vocab: ClassVocabulary
) -> PseudoLabel:
    """Thresholded multi-label decision on one source's tag probabilities.

    With A = {target classes with prob >= tau}: |A| = 1 is a single-event
    clip (confidence = that prob), |A| = 0 is background (confidence =
    the non-target prob), |A| >= 2 is ambiguous (confidence = max prob
    in A).
    """
    if not (0.0 < tau < 1.0):
        raise ValidationError(f"tau {fmt_float(tau)} outside (0, 1)")
    tag.validate_vocab(vocab)
    active = [c for c in vocab.classes if tag.probs[c] >= tau]
    if len(active) == 1:
        return PseudoLabel(Verdict.SINGLE_EVENT, tag.probs[active[0]], active[0])
    if not active:
        return PseudoLabel(Verdict.OTHER, tag.probs[vocab.other_label])
    return PseudoLabel(Verdict.AMBIGUOUS, max(tag.probs[c] for c in active))


def select(
    sources: Sequence[TagPrediction],
    weak: Iterable[str],
    tau: float,
    vocab: ClassVocabulary,
) -> SelectionResult:
    """Keep sources whose single-event pseudo-label is in the mixture's labels.

    Selection order follows input order. Every non-selected source is
    recorded with the reason it fell out.
    """
    weak = frozenset(weak)
    if not weak:
        raise ValidationError("weak label set must be non-empty")
    for name in weak:
        if name not in vocab:
            raise ValidationError(f"weak label {name!r} not in vocabulary")
    parents = {tag.parent_clip_id for tag in sources}
    if len(parents) > 1:
        raise ValidationError(f"sources from multiple mixtures: {sorted(parents)}")
    mixture_id = next(iter(parents)) if parents else ""

    selected: list[tuple[str, str]] = []
    rejected: list[tuple[str, str]] = []
    for tag in sources:
        label = assign_pseudo_label(tag, tau, vocab)
        if label.verdict is Verdict.OTHER:
            rejected.append((tag.source_id, REASON_OTHER))
        elif label.verdict is Verdict.AMBIGUOUS:
            rejected.append((tag.source_id, REASON_AMBIGUOUS))
        elif label.event_class in weak:
            selected.append((tag.source_id, label.event_class))
        else:
            rejected.append((tag.source_id, REASON_NOT_IN_WEAK))
    return SelectionResult(mixture_id, selected, rejected)


def select_mixtures(
    manifest: SeparationManifest,
    tags: Sequence[TagPrediction],
    labels: Mapping[str, Iterable[str]],
    tau: float,
    vocab: ClassVocabulary,
    where: str = "tags against manifest",
) -> list[SelectionResult]:
    """``select`` on each mixture of ``manifest`` against its known ``labels``, skipping
    a mixture with none (a clip without events has no weak.tsv row). Every source
    needs a tag prediction whose parent is its mixture; an error there is raised
    as ``<where>: <message>``, where ``where`` names the two inputs."""
    tags_by_id = {tag.source_id: tag for tag in tags}
    mixtures = []
    with _located(where):
        for mixture_id, source_ids in manifest.sources.items():
            missing = [sid for sid in source_ids if sid not in tags_by_id]
            if missing:
                raise ValidationError(f"{mixture_id}: sources without tag predictions: {missing}")
            sources = [tags_by_id[sid] for sid in source_ids]
            for tag in sources:
                if tag.parent_clip_id != mixture_id:
                    raise ValidationError(
                        f"{tag.source_id}: parent {tag.parent_clip_id!r} does not "
                        f"match manifest mixture {mixture_id!r}"
                    )
            mixtures.append((sources, labels.get(mixture_id)))
    return [select(sources, known, tau, vocab) for sources, known in mixtures if known]


@dataclass
class SelectionSummary:
    """Aggregate counts over a batch of selection results."""

    total_sources: int = 0
    selected_total: int = 0
    selected_per_class: dict[str, int] = field(default_factory=dict)
    rejected_per_reason: dict[str, int] = field(default_factory=dict)
    selection_rate: float = 0.0
    rate_undefined: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def selection_report(results: Sequence[SelectionResult]) -> SelectionSummary:
    """Count selections per class and rejections per reason."""
    summary = SelectionSummary(
        rejected_per_reason={reason: 0 for reason in REJECTION_REASONS}
    )
    for result in results:
        summary.total_sources += result.n_sources
        summary.selected_total += len(result.selected)
        for _, name in result.selected:
            summary.selected_per_class[name] = summary.selected_per_class.get(name, 0) + 1
        for _, reason in result.rejected:
            summary.rejected_per_reason[reason] += 1
    if summary.total_sources == 0:
        summary.rate_undefined = True
        summary.selection_rate = 0.0
    else:
        summary.selection_rate = summary.selected_total / summary.total_sources
    return summary


def write_selection(results: Sequence[SelectionResult], path: str | os.PathLike) -> None:
    """selection.jsonl: one record per mixture."""
    atomic_write_text(path, (
        _json_line({
            "mixture_id": result.mixture_id,
            "selected": [
                {"source_id": sid, "class": name} for sid, name in result.selected
            ],
            "rejected": [
                {"source_id": sid, "reason": reason} for sid, reason in result.rejected
            ],
        })
        for result in results
    ))
