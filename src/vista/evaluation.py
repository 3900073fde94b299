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
    as_predictions,
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
    after another and each example's predictions in their rank order.
    Predictions take their turn in that order; each takes the unmatched
    ground truth of highest IoU among its candidates, the first in
    ground-truth order on ties, and sets its TP flag in tp. The ground
    truths are 0, ..., n_gt - 1. The state carries from one block to the
    next, so where the blocks are cut does not change the flags."""
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


def _ranked_block(tables: list[HypothesisTable], sizes: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows each example of a block keeps (`rank_within`), given the
    block's rows as tables one after another and each example's number of
    them, as indices into those rows, one example after another and each
    in its rank order, and the example of each of those rows, 0 for the
    first."""
    code = np.repeat(np.arange(len(sizes)), sizes)
    rows = rank_within(tables, code, top_k)
    return rows, code[rows]


def _match_block(tables: list[HypothesisTable], sizes: np.ndarray, g: np.ndarray, gt_code: np.ndarray,
                 gts: GroundTruthTable, gt_class: np.ndarray, classes: np.ndarray, cfg: EvalConfig):
    """Match one block of whole examples (see `evaluate`), its rows the
    tables one after another and `sizes` rows each, its ground truths the
    rows g of gts, of its examples `gt_code` (0 for the first) and of the
    classes gt_class[g], indices into `classes`. For its kept rows, one
    example after another and each in its rank order: their classes (-1
    for a noun that no ground truth has), scores and TP flags by variant.
    What else it makes is freed when it returns."""
    n_classes = len(classes)
    rows, code = _ranked_block(tables, sizes, cfg.top_k)
    noun, pred_boxes, pred_verb, pred_ttc, score = (
        HypothesisTable.column(tables, name)[rows] for name in ("noun", "boxes", "verb", "ttc", "score"))
    # Each noun's index in classes, or -1; nouns are >= 0, so none is the -1 appended.
    at = np.searchsorted(classes, noun)
    cls = np.where(np.append(classes, -1)[at] == noun, at, -1)
    pred_key = np.where(cls < 0, -1, code * n_classes + cls)  # -1: no ground truth has the noun
    gt_key = gt_code * n_classes + gt_class[g]
    corners, area = box_columns(pred_boxes, gts.boxes[g])
    gt_verb, gt_ttc = gts.verb[g], gts.ttc[g]
    pairs = [(i, j, overlap, pred_verb[i] == gt_verb[j], np.abs(pred_ttc[i] - gt_ttc[j]) < cfg.ttc_max_error)
             for i, j, overlap in _candidates(pred_key, gt_key, corners, area, cfg.iou_min)]
    tp = {variant: np.zeros(len(rows), dtype=bool) for variant in ALL_VARIANTS}
    for variant in ALL_VARIANTS:
        _greedy_match(_variant_pairs(pairs, variant), tp[variant], len(g))
    return cls, score, tp


def _matched_blocks(preds: PredictionSet, uids: list[str], sizes: np.ndarray, gts: GroundTruthTable,
                    gt_uid: np.ndarray, gt_class: np.ndarray, classes: np.ndarray, cfg: EvalConfig):
    """Match the examples `uids`, of `sizes` rows each in preds, in blocks
    of whole examples (see `evaluate`), each block's rows viewed only while
    it is matched (`PredictionSet.rows`). The ground truths have the
    examples `gt_uid`, indices into uids, and the classes `gt_class`,
    indices into `classes`. Yields each block's (first example, end
    example) and what `_match_block` gives for it."""
    gt_by_example, gt_bounds = _by_example(gt_uid, len(uids))
    for start, stop in count_blocks(sizes + np.bincount(gt_uid, minlength=len(uids)), boxes.EXAMPLE_BLOCK):
        g = gt_by_example[gt_bounds[start]:gt_bounds[stop]]
        yield start, stop, *_match_block(preds.rows(uids[start:stop]), sizes[start:stop], g, gt_uid[g] - start,
                                         gts, gt_class, classes, cfg)


def _order_ties(by_class: np.ndarray, places: np.ndarray, run_sizes: np.ndarray, preds: PredictionSet,
                uids: list[str], sizes: np.ndarray, blocks: list[tuple[int, int, int, int]], top_k: int) -> None:
    """Put the rows at `places` in by_class, which tie in class and score,
    in runs of `run_sizes` of them in storage order, into canonical order:
    by verb, box corners and TTC, and then in storage order, which is uid
    order and then rank order within an example. Their keys are gathered
    from their blocks, (first example, end example, first kept row, end
    kept row) of the examples `uids` of preds with `sizes` rows, ranked
    again, one block with such rows at a time; each block finds its rows
    in a slice of a map over the kept rows, so none are sorted to find
    them. The runs are then sorted in pieces of whole runs of at most
    `boxes.EXAMPLE_BLOCK` rows, or of one larger run alone."""
    kept = by_class[places]
    where = np.full(len(by_class), -1, dtype=np.intp)  # of each kept row, its place in kept, or -1
    where[kept] = np.arange(len(kept))
    keys = [np.empty(len(kept), dtype=np.int64)] + [np.empty(len(kept)) for _ in range(5)]  # verb, corners, TTC
    for start, stop, first, end in blocks:
        mine = np.flatnonzero(where[first:end] >= 0)
        if len(mine):
            block = preds.rows(uids[start:stop])
            rows = _ranked_block(block, sizes[start:stop], top_k)[0][mine]
            columns = (HypothesisTable.column(block, "verb")[rows], *HypothesisTable.column(block, "boxes")[rows].T,
                       HypothesisTable.column(block, "ttc")[rows])
            at = where[first + mine]
            for key, column in zip(keys, columns):
                key[at] = column
    del where
    bounds = np.append(0, np.cumsum(run_sizes)).tolist()
    for a, b in boxes.count_blocks(run_sizes, boxes.EXAMPLE_BLOCK):
        lo, hi = bounds[a], bounds[b]
        run = np.repeat(np.arange(b - a), run_sizes[a:b])
        by_class[places[lo:hi]] = kept[lo:hi][np.lexsort((*(key[lo:hi] for key in keys[::-1]), run))]


def evaluate(
    preds: PredictionSet,
    gts: GroundTruthTable | list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run the four-variant protocol over a prediction set.

    `preds` is a PredictionSet, or another mapping of uids to
    HypothesisTables or lists of StaHypothesis (`as_predictions`), and
    `gts` is a GroundTruthTable or a list of GroundTruthInstance. A match
    never crosses an example, so the examples, in uid order, are taken in
    blocks of whole examples whose hypotheses and ground truths add up to
    at most `boxes.EXAMPLE_BLOCK` (an example of more comes alone). Each
    block's rows are ranked on their own (`rank_within`), and each example
    keeps its first top_k, one example after another. A block's candidate
    pairs (same example, same noun, IoU > iou_min) are built once, grouped
    by prediction in that order, and filtered for each variant by its
    verb and TTC needs. Per variant, predictions are matched greedily in
    that order, each to the unmatched candidate ground truth of highest
    IoU, and set their TP flags in the variant's one array of flags.

    Each class's AP reads its kept rows by score, and rows of one class
    and one score in canonical order with the uid last, as one ranking of
    every row would give them: that order restricted to one class is the
    class's own. The keys that order them are gathered again, block by
    block, for those rows alone, and sorted a piece of whole runs at a
    time.

    Next to its inputs, it holds per kept row only its class (an index
    into the ground truth's nouns, or -1), its score, its four TP flags
    and, once every block is matched, its place in the classes' order;
    and for one block at a time views of the block's rows in the runs of
    preds, the block's columns, the corners, verbs and TTCs of its kept
    rows and ground truths, its candidate pairs, and temporaries of at
    most about PAIR_BLOCK pairs, all freed before the next block.
    """
    # Lists stay accepted: the benchmark's oracle check passes synth's lists.
    preds = as_predictions(preds)
    gts = as_gt_table(gts)
    uids = sorted(set(preds) | set(gts.uid))
    sizes = preds.sizes(uids)  # of each example, in uid order
    uid_code = {uid: c for c, uid in enumerate(uids)}
    gt_uid = np.array([uid_code[uid] for uid in gts.uid], dtype=np.int64)
    classes, gt_class, class_size = np.unique(gts.noun, return_inverse=True, return_counts=True)
    n_classes, n_gt = len(classes), len(gts)
    # Each example keeps min(size, top_k) rows; top_k may be beyond int64.
    n_pred = int(np.minimum(sizes, min(cfg.top_k, int(sizes.max(initial=0)))).sum())

    # The kept rows, one example after another, each example's in its rank order.
    # The smallest int type that holds -1, ..., n_classes - 1 (and n_classes).
    pred_class = np.empty(n_pred, dtype=np.min_scalar_type(-n_classes - 1))
    pred_score = np.empty(n_pred, dtype=np.float64)
    tp = {variant: np.zeros(n_pred, dtype=bool) for variant in ALL_VARIANTS}
    class_count = np.zeros(n_classes + 1, dtype=np.int64)  # kept rows of each class, class -1 first
    blocks = []  # (first example, end example, first kept row, end kept row) of each block
    end = 0
    for start, stop, cls, score, flags in _matched_blocks(preds, uids, sizes, gts, gt_uid, gt_class, classes, cfg):
        first, end = end, end + len(cls)
        blocks.append((start, stop, first, end))
        pred_class[first:end], pred_score[first:end] = cls, score
        class_count += np.bincount(cls + 1, minlength=n_classes + 1)
        for variant in ALL_VARIANTS:
            tp[variant][first:end] = flags[variant]

    # Each class's kept rows are one slice of by_class, by score; rows of
    # one score keep their storage order, which is uid order and then an
    # example's rank order. A block's rows go to the next places of their
    # classes, so no sort of every kept row is made.
    class_end = np.cumsum(class_count)
    placed = class_end - class_count  # the next place of each class
    by_class = np.empty(n_pred, dtype=np.intp)
    for _, _, first, end in blocks:
        cls = pred_class[first:end].astype(np.intp) + 1
        count = np.bincount(cls, minlength=n_classes + 1)
        by_class[np.repeat(placed - (np.cumsum(count) - count), count) + np.arange(end - first)] = (
            first + np.argsort(cls, kind="stable"))
        placed += count
    del pred_class
    run_starts = np.ones(n_pred + 1, dtype=bool)  # where a run of one class and one score starts, and the end
    for first, end in zip(class_end[:-1].tolist(), class_end[1:].tolist()):
        if end - first < 2:
            continue
        rows = by_class[first:end]
        score = pred_score[rows]
        order = np.argsort(-score, kind="stable")
        rows[:] = rows[order]
        score = score[order]
        run_starts[first + 1:end] = score[1:] != score[:-1]
    del pred_score
    places = np.flatnonzero(~(run_starts[:-1] & run_starts[1:]))  # the rows in a run of two or more
    if len(places):
        run_sizes = np.diff(np.flatnonzero(np.append(run_starts[places], True)))
        _order_ties(by_class, places, run_sizes, preds, uids, sizes, blocks, cfg.top_k)
    del run_starts, places

    maps: dict[str, float] = {}  # by map_key
    scored_classes = classes.tolist()
    per_noun_ap: dict[int, dict[str, float]] = {c: {} for c in scored_classes}
    all_counts: dict[str, dict[str, int]] = {}
    for variant in ALL_VARIANTS:
        tp_by_class = tp[variant][by_class]
        aps = []
        for cls, n_gt_cls, first, end in zip(scored_classes, class_size.tolist(), class_end[:-1].tolist(),
                                             class_end[1:].tolist()):
            ap = average_precision(tp_by_class[first:end], n_gt_cls)
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
