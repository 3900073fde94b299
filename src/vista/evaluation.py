"""Top-5 mAP evaluation in four variants: Noun, Noun+Verb, Noun+TTC, Overall.

Matching rules: a prediction can match a ground truth only when box IoU
is strictly greater than iou_min (all variants) and the noun labels agree;
Noun+Verb and Overall additionally require verb equality; Noun+TTC and
Overall additionally require the absolute TTC error to be strictly less
than ttc_max_error.

Top-5 semantics here are per-example truncation to the top_k
highest-scored hypotheses before class-wise AP; the official server-side
aggregation is not public, so the report header labels this as a local
stand-in. Classes with zero ground truth are excluded from the mean.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .boxes import iou
from .errors import ValidationError
from .types import (
    GroundTruthInstance,
    PredictionSet,
    StaHypothesis,
    Taxonomy,
    canonical_key,
    sort_canonical,
)

REPORT_HEADER = (
    "Top-5 mAP report (local protocol: per-example top-5 truncation stand-in "
    "for the official server aggregation)"
)


class MatchVariant(enum.Enum):
    NOUN = "noun"
    NOUN_VERB = "noun_verb"
    NOUN_TTC = "noun_ttc"
    OVERALL = "overall"


ALL_VARIANTS = (
    MatchVariant.OVERALL,
    MatchVariant.NOUN,
    MatchVariant.NOUN_VERB,
    MatchVariant.NOUN_TTC,
)


@dataclass(frozen=True)
class EvalConfig:
    iou_min: float = 0.5
    ttc_max_error: float = 0.25
    top_k: int = 5

    def __post_init__(self):
        problems = []
        if not (self.iou_min > 0.0):
            problems.append(f"iou_min must be positive, got {self.iou_min}")
        if not (self.ttc_max_error > 0.0):
            problems.append(f"ttc_max_error must be positive, got {self.ttc_max_error}")
        if self.top_k < 1:
            problems.append(f"top_k must be >= 1, got {self.top_k}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class EvalReport:
    """Four mAP variants as percentages plus per-class AP breakdowns."""

    map_overall: float
    map_noun: float
    map_noun_verb: float
    map_noun_ttc: float
    # noun_id -> {variant value name -> AP in [0, 1]}
    per_noun_ap: dict[int, dict[str, float]]
    # variant value name -> {"matched", "unmatched_predictions", "unmatched_ground_truths"}
    counts: dict[str, dict[str, int]]

    def variant_map(self, variant: MatchVariant) -> float:
        return {
            MatchVariant.OVERALL: self.map_overall,
            MatchVariant.NOUN: self.map_noun,
            MatchVariant.NOUN_VERB: self.map_noun_verb,
            MatchVariant.NOUN_TTC: self.map_noun_ttc,
        }[variant]

    def to_dict(self) -> dict:
        return {
            "header": REPORT_HEADER,
            "map_overall": self.map_overall,
            "map_noun": self.map_noun,
            "map_noun_verb": self.map_noun_verb,
            "map_noun_ttc": self.map_noun_ttc,
            "per_noun_ap": {str(k): v for k, v in sorted(self.per_noun_ap.items())},
            "counts": self.counts,
        }


def matches(
    pred: StaHypothesis,
    gt: GroundTruthInstance,
    variant: MatchVariant,
    cfg: EvalConfig = EvalConfig(),
) -> bool:
    """Variant-specific matching predicate. Thresholds are strict
    inequalities: IoU must exceed iou_min, TTC error must be below
    ttc_max_error."""
    if iou(pred.box, gt.box) <= cfg.iou_min:
        return False
    if pred.noun_id != gt.noun_id:
        return False
    if variant in (MatchVariant.NOUN_VERB, MatchVariant.OVERALL) and pred.verb_id != gt.verb_id:
        return False
    if variant in (MatchVariant.NOUN_TTC, MatchVariant.OVERALL) and not (
        abs(pred.ttc - gt.ttc) < cfg.ttc_max_error
    ):
        return False
    return True


def top_k_filter(preds: list[StaHypothesis], k: int) -> list[StaHypothesis]:
    """Keep at most the k highest-ranked hypotheses (canonical order)."""
    return sort_canonical(preds)[:k]


def average_precision(tp_flags, n_gt: int) -> float:
    """All-point interpolated AP from a score-ordered TP/FP flag sequence.

    Precision is monotonized from the right; each true positive
    contributes its interpolated precision times a 1/n_gt recall step.
    """
    if n_gt < 1:
        raise ValidationError("average_precision needs at least one ground truth")
    flags = np.asarray(tp_flags, dtype=bool)
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    precision = tp / np.arange(1, flags.size + 1)
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    return float(precision[flags].sum() / n_gt)


def _match_variant(
    preds: PredictionSet,
    gts: list[GroundTruthInstance],
    variant: MatchVariant,
    cfg: EvalConfig,
) -> tuple[dict[int, list[bool]], dict[str, int]]:
    """Greedy matching for one variant.

    Returns per-noun-class TP/FP flags in global score order, plus
    matched/unmatched counts. Predictions are processed globally by
    canonical order (uid as final tie-break); each takes the unmatched
    same-class ground truth of its example with the highest IoU among
    those satisfying the variant criteria.
    """
    ordered: list[tuple[StaHypothesis, str]] = []
    for uid in preds:
        for h in top_k_filter(preds[uid], cfg.top_k):
            ordered.append((h, uid))
    ordered.sort(key=lambda rec: (canonical_key(rec[0]), rec[1]))

    gt_index: dict[tuple[str, int], list[int]] = {}
    for gi, gt in enumerate(gts):
        gt_index.setdefault((gt.example_uid, gt.noun_id), []).append(gi)

    matched_gt = [False] * len(gts)
    flags_per_class: dict[int, list[bool]] = {}
    n_matched = 0
    for hyp, uid in ordered:
        best_gi = -1
        best_iou = -1.0
        for gi in gt_index.get((uid, hyp.noun_id), ()):
            if matched_gt[gi]:
                continue
            if not matches(hyp, gts[gi], variant, cfg):
                continue
            overlap = iou(hyp.box, gts[gi].box)
            if overlap > best_iou:
                best_iou = overlap
                best_gi = gi
        is_tp = best_gi >= 0
        if is_tp:
            matched_gt[best_gi] = True
            n_matched += 1
        flags_per_class.setdefault(hyp.noun_id, []).append(is_tp)

    counts = {
        "matched": n_matched,
        "unmatched_predictions": len(ordered) - n_matched,
        "unmatched_ground_truths": len(gts) - n_matched,
    }
    return flags_per_class, counts


def evaluate(
    preds: PredictionSet,
    gts: list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
    taxonomy: Taxonomy | None = None,
) -> EvalReport:
    """Run the four-variant protocol over a prediction set."""
    if taxonomy is not None:
        problems = []
        for gt in gts:
            problems += taxonomy.check_ids(gt.noun_id, gt.verb_id, f"gt {gt.example_uid}")
        for uid, hyps in preds.items():
            for h in hyps:
                problems += taxonomy.check_ids(h.noun_id, h.verb_id, f"prediction {uid}")
        if problems:
            raise ValidationError(problems)

    n_gt_per_class = Counter(gt.noun_id for gt in gts)
    scored_classes = sorted(c for c, n in n_gt_per_class.items() if n > 0)

    maps: dict[MatchVariant, float] = {}
    per_noun_ap: dict[int, dict[str, float]] = {c: {} for c in scored_classes}
    all_counts: dict[str, dict[str, int]] = {}
    for variant in ALL_VARIANTS:
        flags_per_class, counts = _match_variant(preds, gts, variant, cfg)
        aps = []
        for cls in scored_classes:
            ap = average_precision(flags_per_class.get(cls, []), n_gt_per_class[cls])
            per_noun_ap[cls][variant.value] = ap
            aps.append(ap)
        maps[variant] = 100.0 * float(np.mean(aps)) if aps else 0.0
        all_counts[variant.value] = counts

    return EvalReport(
        map_overall=maps[MatchVariant.OVERALL],
        map_noun=maps[MatchVariant.NOUN],
        map_noun_verb=maps[MatchVariant.NOUN_VERB],
        map_noun_ttc=maps[MatchVariant.NOUN_TTC],
        per_noun_ap=per_noun_ap,
        counts=all_counts,
    )


def format_report_table(report: EvalReport) -> str:
    """Aligned text table with the Overall / Noun / Noun+Verb / Noun+TTC columns."""
    headers = ["Overall", "Noun", "Noun+Verb", "Noun+TTC"]
    values = [
        report.map_overall,
        report.map_noun,
        report.map_noun_verb,
        report.map_noun_ttc,
    ]
    cells = [f"{v:.2f}" for v in values]
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    row = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return f"{REPORT_HEADER}\n{head}\n{row}"
