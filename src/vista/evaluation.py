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


def _candidates(key: np.ndarray, rows: np.ndarray, corners: list[np.ndarray], area: np.ndarray, iou_min: float):
    """The (prediction, ground truth) pairs of equal keys whose IoU is
    greater than iou_min, sorted by prediction and then ground truth, in
    blocks of (prediction indices, ground-truth indices, IoU), each cut
    from about PAIR_BLOCK pairs compared at once. The first len(rows) keys
    are the predictions', whose boxes are the `box_columns` rows `rows`;
    the keys after them are the ground truths', whose boxes are the rows
    after the last prediction's."""
    n_pred = len(rows)
    gt_by_key = np.argsort(key[n_pred:], kind="stable")
    sorted_key = key[n_pred:][gt_by_key]
    first = np.searchsorted(sorted_key, key[:n_pred], side="left")
    counts = np.searchsorted(sorted_key, key[:n_pred], side="right") - first
    first_gt = len(area) - len(gt_by_key)
    for p, position in pair_blocks(first, counts, PAIR_BLOCK):
        g = gt_by_key[position]
        overlap = pair_iou(corners, area, rows[p], first_gt + g)
        over = overlap > iou_min
        yield p[over], g[over], overlap[over]


def _greedy_match(blocks, n_pred: int, n_gt: int) -> np.ndarray:
    """TP flags of greedy matching over blocks of candidate pairs, each
    (prediction indices, ground-truth indices, IoU), sorted by prediction
    and then ground truth across blocks. Predictions take their turn in
    order; each takes the unmatched ground truth of highest IoU among its
    candidates, the first in ground-truth order on ties. The state carries
    from one block to the next, so where the blocks are cut does not
    change the flags."""
    taken = [False] * n_gt
    tp = np.zeros(n_pred, dtype=bool)
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
    return tp


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


def evaluate(
    preds: PredictionSet,
    gts: GroundTruthTable | list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run the four-variant protocol over a prediction set.

    `preds` maps uids to HypothesisTables or lists of StaHypothesis, and
    `gts` is a GroundTruthTable or a list of GroundTruthInstance. Each
    example keeps its first top_k hypotheses (`rank_within`). The
    candidate pairs (same example, same noun, IoU > iou_min) are built
    once and filtered for each variant by its verb and TTC needs.
    Per variant, predictions are matched greedily in rank order, each to
    the unmatched candidate ground truth of highest IoU.

    Next to its inputs, it holds the kept rows' ids and TTCs, the corners
    of every row and ground truth, the candidate pairs, and temporaries
    of at most about PAIR_BLOCK pairs.
    """
    # Lists stay accepted: the benchmark's oracle check passes synth's lists.
    tables = [as_table(hyps) for hyps in preds.values()]
    gts = as_gt_table(gts)
    uid_code = {uid: c for c, uid in enumerate(sorted(set(preds) | set(gts.uid)))}
    row_uid = np.repeat(np.array([uid_code[uid] for uid in preds], dtype=np.int64),
                        [len(table) for table in tables])
    rows = rank_within(tables, row_uid, cfg.top_k)
    pred_uid = row_uid[rows]
    n_pred, n_gt = len(rows), len(gts)

    def kept(name: str) -> np.ndarray:
        # One column of the kept rows in rank order, gathered on its own.
        return HypothesisTable.column(tables, name)[rows]

    pred_noun = kept("noun")
    gt_uid = np.array([uid_code[uid] for uid in gts.uid], dtype=np.int64)
    nouns, noun_code = np.unique(np.concatenate([pred_noun, gts.noun]), return_inverse=True)
    key = np.concatenate([pred_uid, gt_uid]) * len(nouns) + noun_code
    del row_uid, pred_uid, noun_code  # the pairs are made next, the peak of the call
    # The boxes of every row, kept or not, and then of the ground truths:
    # gathering only the kept rows' would copy them twice on the way. They
    # are freed once the pairs are made, before the verbs and TTCs are
    # gathered.
    blocks = list(_candidates(key, rows, *box_columns(*(table.boxes for table in tables), gts.boxes),
                              cfg.iou_min))
    pred_verb, pred_ttc = kept("verb"), kept("ttc")
    pairs = [(p, g, overlap, pred_verb[p] == gts.verb[g], np.abs(pred_ttc[p] - gts.ttc[g]) < cfg.ttc_max_error)
             for p, g, overlap in blocks]

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
        tp = _greedy_match(_variant_pairs(pairs, variant), n_pred, n_gt)
        tp_by_noun = tp[by_noun]
        aps = []
        for cls, n_gt_cls, first, end in zip(scored_classes, class_size.tolist(), class_first.tolist(),
                                             class_end.tolist()):
            ap = average_precision(tp_by_noun[first:end], n_gt_cls)
            per_noun_ap[cls][variant.value] = ap
            aps.append(ap)
        maps[variant.map_key] = 100.0 * float(np.mean(aps)) if aps else 0.0
        n_matched = int(tp.sum())
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
