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
from dataclasses import dataclass

import numpy as np

from .boxes import PAIR_BLOCK, box_columns, pair_blocks, pair_iou
from .errors import ValidationError
from .types import (
    GroundTruthInstance,
    GroundTruthTable,
    HypothesisTable,
    PredictionSet,
    as_gt_table,
    as_table,
    canonical_order,
    check_fields,
    setting,
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
    iou_min: float = setting(0.5, "in (0, 1)")   # a match needs IoU > iou_min, and IoU is at most 1
    ttc_max_error: float = setting(0.25, "positive")
    top_k: int = setting(5, ">= 1")

    __post_init__ = check_fields


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


def top_k_filter(preds: HypothesisTable, k: int) -> HypothesisTable:
    """Keep at most the k highest-ranked hypotheses (canonical order) of a
    HypothesisTable."""
    return sort_canonical(preds).take(slice(0, k))


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


def _candidates(pred: HypothesisTable, pred_uid: np.ndarray, gts: GroundTruthTable,
                gt_uid: np.ndarray, cfg: EvalConfig):
    """The (prediction, ground truth) pairs that can match under some
    variant: same example, same noun, IoU > iou_min. Returns the pairs
    sorted by prediction and then ground-truth index, their IoU, and
    whether each pair agrees on the verb and on the TTC."""
    nouns, noun_code = np.unique(np.concatenate([pred.noun, gts.noun]), return_inverse=True)
    key = np.concatenate([pred_uid, gt_uid]) * len(nouns) + noun_code
    pred_key, gt_key = key[: len(pred)], key[len(pred):]
    gt_by_key = np.argsort(gt_key, kind="stable")
    first = np.searchsorted(gt_key[gt_by_key], pred_key, side="left")
    counts = np.searchsorted(gt_key[gt_by_key], pred_key, side="right") - first
    corners, area = box_columns(np.concatenate([pred.boxes, gts.boxes]))
    p_parts, g_parts, iou_parts = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for p, position in pair_blocks(first, counts, PAIR_BLOCK):
        g = gt_by_key[position]
        overlap = pair_iou(corners, area, p, len(pred) + g)
        over = overlap > cfg.iou_min
        p_parts.append(p[over])
        g_parts.append(g[over])
        iou_parts.append(overlap[over])
    p, g, overlap = np.concatenate(p_parts), np.concatenate(g_parts), np.concatenate(iou_parts)
    same_verb = pred.verb[p] == gts.verb[g]
    close_ttc = np.abs(pred.ttc[p] - gts.ttc[g]) < cfg.ttc_max_error
    return p, g, overlap, same_verb, close_ttc


def _greedy_match(p: np.ndarray, g: np.ndarray, overlap: np.ndarray, n_pred: int, n_gt: int) -> np.ndarray:
    """TP flags of greedy matching over candidate pairs sorted by
    prediction and then ground truth. Predictions take their turn in
    order; each takes the unmatched ground truth of highest IoU among its
    candidates, the first in ground-truth order on ties."""
    taken = [False] * n_gt
    tp = np.zeros(n_pred, dtype=bool)
    current, best_g, best = -1, -1, -1.0
    for pi, gi, v in zip(p.tolist(), g.tolist(), overlap.tolist()):
        if pi != current:
            if best_g >= 0:
                taken[best_g] = True
                tp[current] = True
            current, best_g, best = pi, -1, -1.0
        if v > best and not taken[gi]:
            best, best_g = v, gi
    if best_g >= 0:
        tp[current] = True
    return tp


def evaluate(
    preds: PredictionSet,
    gts: GroundTruthTable | list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run the four-variant protocol over a prediction set.

    `preds` maps uids to HypothesisTables or lists of StaHypothesis, and
    `gts` is a GroundTruthTable or a list of GroundTruthInstance. Each
    example keeps its top_k hypotheses; all of them are then ranked by
    the canonical ordering with the uid as the final tie-break. The
    candidate pairs are built once and filtered for each variant: Overall
    keeps the pairs of Noun+Verb that Noun+TTC keeps too, and both keep a
    subset of Noun's. Per variant, predictions are matched greedily in
    rank order, each to the unmatched candidate ground truth of highest
    IoU.
    """
    # Lists stay accepted: the benchmark's oracle check passes synth's lists.
    tables = {uid: as_table(hyps) for uid, hyps in preds.items()}
    gts = as_gt_table(gts)
    kept = [top_k_filter(table, cfg.top_k) for table in tables.values()]
    uid_code = {uid: c for c, uid in enumerate(sorted(set(tables) | set(gts.uid)))}
    sizes = list(map(len, kept))
    pred = HypothesisTable.concat(kept)
    del kept  # each example's sorted copy, as large as the predictions
    pred_uid = np.repeat(np.array([uid_code[uid] for uid in tables], dtype=np.int64), sizes)
    rank = canonical_order(pred, tie_break=pred_uid)
    pred, pred_uid = pred.take(rank), pred_uid[rank]
    gt_uid = np.array([uid_code[uid] for uid in gts.uid], dtype=np.int64)
    p, g, overlap, same_verb, close_ttc = _candidates(pred, pred_uid, gts, gt_uid, cfg)

    classes, class_size = np.unique(gts.noun, return_counts=True)
    scored_classes = classes.tolist()
    # Each class's predictions, in rank order, are one slice of by_noun.
    by_noun = np.argsort(pred.noun, kind="stable")
    class_first = np.searchsorted(pred.noun[by_noun], scored_classes, side="left")
    class_end = np.searchsorted(pred.noun[by_noun], scored_classes, side="right")

    maps: dict[MatchVariant, float] = {}
    per_noun_ap: dict[int, dict[str, float]] = {c: {} for c in scored_classes}
    all_counts: dict[str, dict[str, int]] = {}
    for variant in ALL_VARIANTS:
        keep = np.ones(len(p), dtype=bool)
        if variant in (MatchVariant.NOUN_VERB, MatchVariant.OVERALL):
            keep &= same_verb
        if variant in (MatchVariant.NOUN_TTC, MatchVariant.OVERALL):
            keep &= close_ttc
        tp = _greedy_match(p[keep], g[keep], overlap[keep], len(pred), len(gts))
        tp_by_noun = tp[by_noun]
        aps = []
        for cls, n_gt, first, end in zip(scored_classes, class_size.tolist(), class_first.tolist(),
                                         class_end.tolist()):
            ap = average_precision(tp_by_noun[first:end], n_gt)
            per_noun_ap[cls][variant.value] = ap
            aps.append(ap)
        maps[variant] = 100.0 * float(np.mean(aps)) if aps else 0.0
        n_matched = int(tp.sum())
        all_counts[variant.value] = {
            "matched": n_matched,
            "unmatched_predictions": len(pred) - n_matched,
            "unmatched_ground_truths": len(gts) - n_matched,
        }

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
