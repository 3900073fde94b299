"""Top-5 mAP evaluation in the four Ego4D STA variants of `MatchVariant`.

Matching rules: a prediction can match a ground truth only when box IoU
is strictly greater than iou_min (all variants) and the noun labels agree;
a variant may additionally require verb equality, the absolute TTC error
to be strictly less than ttc_max_error, or both.

Top-5 semantics here are per-example truncation to the top_k
highest-scored hypotheses before class-wise AP; the official server-side
aggregation is not public, so the report header labels this as a local
stand-in. Classes with zero ground truth are excluded from the mean.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import boxes
from .boxes import PAIR_BLOCK, box_columns, count_blocks, pair_blocks, pair_iou
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
    rank_within,
    setting,
)
from .types import sort_canonical  # noqa: F401  (unused here; bench/spans.py times it under this name)

REPORT_HEADER = (
    "Top-5 mAP report (local protocol: per-example top-5 truncation stand-in "
    "for the official server aggregation)"
)


class MatchVariant(enum.Enum):
    """The variants in report order. Each has its value, which names it
    in the report, its column label, and whether a match needs the same
    verb and a TTC within the tolerance; `map_key` is the EvalReport
    field and report key of its mAP."""

    OVERALL = "overall", "Overall", True, True
    NOUN = "noun", "Noun", False, False
    NOUN_VERB = "noun_verb", "Noun+Verb", True, False
    NOUN_TTC = "noun_ttc", "Noun+TTC", False, True

    def __new__(cls, value: str, label: str, needs_verb: bool, needs_ttc: bool):
        variant = object.__new__(cls)
        variant._value_, variant.label, variant.needs_verb, variant.needs_ttc = value, label, needs_verb, needs_ttc
        variant.map_key = f"map_{value}"
        return variant


ALL_VARIANTS = tuple(MatchVariant)


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
        return getattr(self, variant.map_key)

    def to_dict(self) -> dict:
        return {
            "header": REPORT_HEADER,
            **{variant.map_key: self.variant_map(variant) for variant in ALL_VARIANTS},
            "per_noun_ap": {str(k): v for k, v in sorted(self.per_noun_ap.items())},
            "counts": self.counts,
        }


def top_k_filter(preds: HypothesisTable, k: int) -> HypothesisTable:
    """Keep at most the k highest-ranked hypotheses (canonical order) of a
    HypothesisTable. Only the kept rows are copied."""
    return preds.take(canonical_order(preds)[:k])


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


def _candidates(pred_key: np.ndarray, gt_key: np.ndarray, corners: list[np.ndarray], area: np.ndarray,
                iou_min: float):
    """The (prediction, ground truth) pairs of equal keys whose IoU is
    greater than iou_min, grouped by prediction in the predictions' order
    and then in ground-truth order, in blocks of (prediction indices,
    ground-truth indices, IoU), each cut from about PAIR_BLOCK pairs
    compared at once. The boxes are the `box_columns` rows of the
    predictions and then of the ground truths."""
    gt_by_key = np.argsort(gt_key, kind="stable")
    sorted_key = gt_key[gt_by_key]
    first = np.searchsorted(sorted_key, pred_key, side="left")
    counts = np.searchsorted(sorted_key, pred_key, side="right") - first
    for p, position in pair_blocks(first, counts, PAIR_BLOCK):
        g = gt_by_key[position]
        overlap = pair_iou(corners, area, p, len(pred_key) + g)
        over = overlap > iou_min
        yield p[over], g[over], overlap[over]


def _greedy_match(blocks, tp: np.ndarray, n_gt: int) -> None:
    """Greedy matching over blocks of candidate pairs, each (prediction
    indices, ground-truth indices, IoU), grouped by prediction across
    blocks; evaluate gives the pairs of one example block, one example
    after another, in rank order within an example. Predictions take
    their turn in that order; each takes the unmatched ground truth of
    highest IoU among its candidates, the first in ground-truth order on
    ties, and sets its TP flag in tp. The ground truths are 0, ...,
    n_gt - 1. The state carries from one block to the next, so where the
    blocks are cut does not change the flags."""
    taken = [False] * n_gt
    current, best_g, best = -1, -1, -1.0
    for p, g, overlap in blocks:
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


def _variant_pairs(pairs, variant: MatchVariant):
    """The blocks of candidate pairs, each (prediction indices,
    ground-truth indices, IoU, same verb, TTC within the tolerance), cut
    to the pairs that can match under the variant."""
    for p, g, overlap, same_verb, close_ttc in pairs:
        keep = np.ones(len(p), dtype=bool)
        if variant.needs_verb:
            keep &= same_verb
        if variant.needs_ttc:
            keep &= close_ttc
        yield p[keep], g[keep], overlap[keep]


def _by_example(code: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """The indices of `code`, codes 0, ..., n - 1, grouped by code in
    index order, and the bounds of the groups: code c's indices are at
    bounds[c], ..., bounds[c + 1] - 1."""
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(code, minlength=n), out=bounds[1:])
    return np.argsort(code, kind="stable"), bounds.tolist()


def evaluate(
    preds: PredictionSet,
    gts: GroundTruthTable | list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run the four-variant protocol over a prediction set.

    `preds` maps uids to HypothesisTables or lists of StaHypothesis, and
    `gts` is a GroundTruthTable or a list of GroundTruthInstance. Every
    row is ranked once (`rank_within`) and each example keeps its first
    top_k; each class's AP reads its kept rows in that ranking. A match
    never crosses an example, so the examples, in uid order, are matched
    in blocks of whole examples whose hypotheses and ground truths add up
    to at most `boxes.EXAMPLE_BLOCK` (an example of more comes alone).
    A block's candidate pairs (same example, same noun, IoU > iou_min)
    are built once, grouped by prediction, one example after another, in
    rank order within an example, and filtered for each variant by its
    verb and TTC needs. Per variant, predictions are matched greedily in
    that order, each to the unmatched candidate ground truth of highest
    IoU, and set their TP flags in the variant's one array of flags.

    Next to its inputs, it holds the ranking, the kept rows' example
    codes and nouns and the flags, and for one block at a time the
    corners, verbs and TTCs of its kept rows and ground truths, its
    candidate pairs, and temporaries of at most about PAIR_BLOCK pairs.
    """
    # Lists stay accepted: the benchmark's oracle check passes synth's lists.
    by_uid = {uid: as_table(hyps) for uid, hyps in preds.items()}
    gts = as_gt_table(gts)
    uids = sorted(set(by_uid) | set(gts.uid))
    # One table per example, in uid order: an example's rows are one run
    # of the rows of the tables one after another.
    no_rows = HypothesisTable.concat([])
    tables = [by_uid.get(uid, no_rows) for uid in uids]
    sizes = np.array([len(table) for table in tables], dtype=np.int64)
    row_first = (np.cumsum(sizes) - sizes).tolist()
    row_uid = np.repeat(np.arange(len(uids)), sizes)
    rows = rank_within(tables, row_uid, cfg.top_k)
    pred_uid = row_uid[rows]
    del row_uid
    pred_noun = HypothesisTable.column(tables, "noun")[rows]
    uid_code = {uid: c for c, uid in enumerate(uids)}
    gt_uid = np.array([uid_code[uid] for uid in gts.uid], dtype=np.int64)
    n_pred, n_gt = len(rows), len(gts)

    tp = {variant: np.zeros(n_pred, dtype=bool) for variant in ALL_VARIANTS}
    pred_by_example, pred_bounds = _by_example(pred_uid, len(uids))
    gt_by_example, gt_bounds = _by_example(gt_uid, len(uids))
    for start, stop in count_blocks(sizes + np.bincount(gt_uid, minlength=len(uids)), boxes.EXAMPLE_BLOCK):
        p = pred_by_example[pred_bounds[start]:pred_bounds[stop]]  # rank positions
        g = gt_by_example[gt_bounds[start]:gt_bounds[stop]]
        local = rows[p] - row_first[start]  # into the rows of the block's tables
        pred_boxes, pred_verb, pred_ttc = (HypothesisTable.column(tables[start:stop], name)[local]
                                           for name in ("boxes", "verb", "ttc"))
        nouns, noun_code = np.unique(np.concatenate([pred_noun[p], gts.noun[g]]), return_inverse=True)
        key = (np.concatenate([pred_uid[p], gt_uid[g]]) - start) * len(nouns) + noun_code
        corners, area = box_columns(pred_boxes, gts.boxes[g])
        gt_verb, gt_ttc = gts.verb[g], gts.ttc[g]
        pairs = [(p[i], j, overlap, pred_verb[i] == gt_verb[j], np.abs(pred_ttc[i] - gt_ttc[j]) < cfg.ttc_max_error)
                 for i, j, overlap in _candidates(key[:len(p)], key[len(p):], corners, area, cfg.iou_min)]
        for variant in ALL_VARIANTS:
            _greedy_match(_variant_pairs(pairs, variant), tp[variant], len(g))
    del rows, pred_uid, pred_by_example  # before the class order is made

    classes, class_size = np.unique(gts.noun, return_counts=True)
    scored_classes = classes.tolist()
    # Each class's predictions, in rank order, are one slice of by_noun.
    by_noun = np.argsort(pred_noun, kind="stable")
    class_first = np.searchsorted(pred_noun[by_noun], scored_classes, side="left")
    class_end = np.searchsorted(pred_noun[by_noun], scored_classes, side="right")

    maps: dict[str, float] = {}  # by map_key
    per_noun_ap: dict[int, dict[str, float]] = {c: {} for c in scored_classes}
    all_counts: dict[str, dict[str, int]] = {}
    for variant in ALL_VARIANTS:
        tp_by_noun = tp[variant][by_noun]
        aps = []
        for cls, n_gt_cls, first, end in zip(scored_classes, class_size.tolist(), class_first.tolist(),
                                             class_end.tolist()):
            ap = average_precision(tp_by_noun[first:end], n_gt_cls)
            per_noun_ap[cls][variant.value] = ap
            aps.append(ap)
        maps[variant.map_key] = 100.0 * float(np.mean(aps)) if aps else 0.0
        n_matched = int(tp[variant].sum())
        all_counts[variant.value] = {
            "matched": n_matched,
            "unmatched_predictions": n_pred - n_matched,
            "unmatched_ground_truths": n_gt - n_matched,
        }

    return EvalReport(**maps, per_noun_ap=per_noun_ap, counts=all_counts)


def format_report_table(report: EvalReport) -> str:
    """Aligned text table with one column per variant, in report order."""
    headers = [variant.label for variant in ALL_VARIANTS]
    cells = [f"{report.variant_map(variant):.2f}" for variant in ALL_VARIANTS]
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    row = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return f"{REPORT_HEADER}\n{head}\n{row}"
