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
from itertools import repeat

import numpy as np

from . import boxes
from .boxes import PAIR_BLOCK, box_columns, count_blocks, pair_blocks, pair_iou
from .errors import ValidationError
from .types import (
    GroundTruthInstance,
    GroundTruthTable,
    HypothesisTable,
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


def _class_of(noun: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Each noun's index in classes, or -1 for a noun that no ground truth
    has; nouns are >= 0, so none is the -1 appended."""
    at = np.searchsorted(classes, noun)
    return np.where(np.append(classes, -1)[at] == noun, at, -1)


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
    cls = _class_of(noun, classes)
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


class _Blocks:
    """A consumer of runs, (table, uids, bounds), that pools their
    examples, in the order they come, into blocks of whole examples by
    `count_blocks`' rule at `boxes.EXAMPLE_BLOCK`: the most examples that
    add up to at most that, or one example of more alone. An example counts
    its rows and its ground truths: those of code c, `gt_code`'s of its
    uid, are at gt_bounds[c], ..., gt_bounds[c + 1] - 1 in the ground
    truths grouped by example, and the code of a uid without any is
    len(gt_code). So the blocks do not depend on where the runs cut the
    examples. Each block is given to `block(tables, uids, sizes)`, its rows
    as views of the runs' tables, once the next example does not fit in it
    (`flush`), and the last by `close`."""

    def __init__(self, gt_code: dict[str, int], gt_bounds: list[int]):
        self.gt_code, self.gt_bounds = gt_code, gt_bounds
        self.pieces: list = []  # (table, uids, sizes) of the examples pooled for the next block
        self.count = 0  # what they count

    def __call__(self, run) -> None:
        table, uids, bounds = run
        bounds = np.asarray(bounds, dtype=np.int64)
        sizes = np.diff(bounds)
        # The examples pooled so far, the start of one block, count as one item ahead of the run's.
        head = [self.count] if self.pieces else []
        counts = head + [size + self.gt_bounds[c + 1] - self.gt_bounds[c]
                         for size, c in zip(sizes.tolist(), self.codes(uids))]
        cuts = list(count_blocks(np.array(counts, dtype=np.int64), boxes.EXAMPLE_BLOCK))
        for k, (start, stop) in enumerate(cuts):
            a, b = max(start - len(head), 0), stop - len(head)  # the run's examples in the cut
            if a < b:
                self.pieces.append((table.take(slice(bounds[a], bounds[b])), uids[a:b], sizes[a:b]))
            if k + 1 < len(cuts):
                self.flush()
            else:
                self.count = sum(counts[start:stop])

    def codes(self, uids: list[str]) -> list[int]:
        """The `gt_code` of each uid."""
        return list(map(self.gt_code.get, uids, repeat(len(self.gt_code))))

    def close(self) -> None:
        """Give the last block, once every run has come."""
        self.flush()

    def flush(self) -> None:
        """Give the examples pooled so far, if any, as one block."""
        if self.pieces:
            tables, uids, sizes = zip(*self.pieces)
            self.pieces, self.count = [], 0
            self.block(list(tables), [uid for part in uids for uid in part], np.concatenate(sizes))


class _Matched(_Blocks):
    """The first walk of `evaluate`: each block matched as it is pooled
    (`_match_block`), keeping for its kept rows only their classes, in the
    smallest int type that holds -1, ..., n_classes, their scores and
    their TP flags by variant, one array of each per block, and the uids
    in the order they came."""

    def __init__(self, gts: GroundTruthTable, gt_order: np.ndarray, gt_code: dict[str, int], gt_bounds: list[int],
                 gt_class: np.ndarray, classes: np.ndarray, cfg: EvalConfig):
        super().__init__(gt_code, gt_bounds)
        self.gts, self.gt_order, self.gt_class, self.classes, self.cfg = gts, gt_order, gt_class, classes, cfg
        self.class_type = np.min_scalar_type(-len(classes) - 1)
        self.cls: list[np.ndarray] = []
        self.score: list[np.ndarray] = []
        self.tp: dict[MatchVariant, list[np.ndarray]] = {variant: [] for variant in ALL_VARIANTS}
        self.uids: list[str] = []

    def block(self, tables: list[HypothesisTable], uids: list[str], sizes: np.ndarray) -> None:
        spans = [(self.gt_bounds[c], self.gt_bounds[c + 1]) for c in self.codes(uids)]
        g = np.concatenate([self.gt_order[first:end] for first, end in spans] + [np.empty(0, dtype=np.intp)])
        gt_code = np.repeat(np.arange(len(uids)), [end - first for first, end in spans])
        cls, score, tp = _match_block(tables, sizes, g, gt_code, self.gts, self.gt_class, self.classes, self.cfg)
        self.cls.append(cls.astype(self.class_type))
        self.score.append(score)
        for variant in ALL_VARIANTS:
            self.tp[variant].append(tp[variant])
        self.uids += uids


class _TieKeys(_Blocks):
    """The second walk of `evaluate`, over the same runs and so the same
    blocks as the first (`_Matched`), whose (first kept row, end kept row)
    are `blocks`. Each block that holds a kept row with a place in `where`
    (not -1) is ranked again, and those rows' keys are set at their places
    in `keys`: verb, box corners, TTC and the rank of their uid, `rank` of
    its example in the order the examples came. The places are those of
    tied runs, (end place, class, score) each in `runs`. A block whose uids
    are not the first walk's, whose kept rows are not as many, or with a
    gathered row whose class or score is not its run's, or blocks that
    are not as many, mean that the source changed between the walks: a
    ValidationError."""

    def __init__(self, matched: _Matched, blocks: list[tuple[int, int]], where: np.ndarray, keys: list[np.ndarray],
                 rank: np.ndarray, runs: tuple[np.ndarray, np.ndarray, np.ndarray], name: str):
        super().__init__(matched.gt_code, matched.gt_bounds)
        self.classes, self.top_k, self.uids = matched.classes, matched.cfg.top_k, matched.uids
        self.blocks, self.where, self.keys, self.rank, self.runs, self.name = blocks, where, keys, rank, runs, name
        self.n = self.seen = 0  # the blocks and the examples gathered

    def changed(self) -> ValidationError:
        return ValidationError(f"{self.name}: changed while it was read")

    def block(self, tables: list[HypothesisTable], uids: list[str], sizes: np.ndarray) -> None:
        seen, self.seen = self.seen, self.seen + len(uids)
        if self.n == len(self.blocks) or uids != self.uids[seen:self.seen]:
            raise self.changed()
        first, end = self.blocks[self.n]
        self.n += 1
        mine = np.flatnonzero(self.where[first:end] >= 0)
        if not len(mine):
            return
        rows, code = _ranked_block(tables, sizes, self.top_k)
        if len(rows) != end - first:
            raise self.changed()
        rows, at = rows[mine], self.where[first + mine]
        noun, score = (HypothesisTable.column(tables, name)[rows] for name in ("noun", "score"))
        run_end, run_class, run_score = self.runs
        run = np.searchsorted(run_end, at, side="right")
        if not (np.array_equal(_class_of(noun, self.classes), run_class[run])
                and np.array_equal(score, run_score[run])):
            raise self.changed()
        columns = (HypothesisTable.column(tables, "verb")[rows], *HypothesisTable.column(tables, "boxes")[rows].T,
                   HypothesisTable.column(tables, "ttc")[rows], self.rank[seen + code[mine]])
        for key, column in zip(self.keys, columns):
            key[at] = column

    def close(self) -> None:
        self.flush()
        if self.n != len(self.blocks):
            raise self.changed()


def _order_ties(by_class: np.ndarray, places: np.ndarray, runs: tuple[np.ndarray, np.ndarray, np.ndarray], source,
                matched: _Matched, blocks: list[tuple[int, int]]) -> None:
    """Put the rows at `places` in by_class, which tie in class and score,
    in runs, (size, class, score) each in `runs`, of rows in storage
    order, into canonical order: by verb, box corners and TTC, then by
    uid, and then in storage order, which within an example is its rank
    order. Their keys are gathered by a second walk of the source
    (`_TieKeys`), block by block, for those rows alone; each block finds
    its rows in a slice of a map over the kept rows, so none are sorted to
    find them. The runs are then sorted in pieces of whole runs of at most
    `boxes.EXAMPLE_BLOCK` rows, or of one larger run alone."""
    run_sizes, run_class, run_score = runs
    bounds = np.append(0, np.cumsum(run_sizes))
    kept = by_class[places]
    where = np.full(len(by_class), -1, dtype=np.intp)  # of each kept row, its place in kept, or -1
    where[kept] = np.arange(len(kept))
    # Of each example, in the order they came, its uid's rank, in the smallest type that holds it.
    rank = np.empty(len(matched.uids), dtype=np.min_scalar_type(len(matched.uids)))
    rank[sorted(range(len(rank)), key=matched.uids.__getitem__)] = np.arange(len(rank))
    # verb, corners, TTC and the uid's rank
    keys = [np.empty(len(kept), dtype=np.int64)] + [np.empty(len(kept)) for _ in range(5)] + [
        np.empty(len(kept), dtype=rank.dtype)]
    source.walk(lambda: _TieKeys(matched, blocks, where, keys, rank, (bounds[1:], run_class, run_score),
                                 source.name)).close()
    del where, rank
    bounds = bounds.tolist()
    for a, b in boxes.count_blocks(run_sizes, boxes.EXAMPLE_BLOCK):
        lo, hi = bounds[a], bounds[b]
        run = np.repeat(np.arange(b - a), run_sizes[a:b])
        by_class[places[lo:hi]] = kept[lo:hi][np.lexsort((*(key[lo:hi] for key in keys[::-1]), run))]


def evaluate(
    preds,
    gts: GroundTruthTable | list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run the four-variant protocol over a submission's predictions.

    `preds` is a source of runs that can be walked more than once: a
    `io_formats.SubmissionFile`, which reads the file as it is walked, or
    a PredictionSet; any other mapping of uids to HypothesisTables or
    lists of StaHypothesis is made one (`as_predictions`). `gts` is a
    GroundTruthTable or a list of GroundTruthInstance.

    One walk passes the runs in the order they come, and their examples
    are pooled, in that order, into blocks of whole examples whose
    hypotheses and ground truths add up to at most `boxes.EXAMPLE_BLOCK`
    (an example of more comes alone; `_Blocks`). A match never crosses an
    example, so each block is matched as soon as it is full. Its rows are
    ranked on their own (`rank_within`), and each example keeps its first
    top_k, one example after another. A block's candidate pairs (same
    example, same noun, IoU > iou_min) are built once, grouped by
    prediction in that order, and filtered for each variant by its verb
    and TTC needs. Per variant, predictions are matched greedily in that
    order, each to the unmatched candidate ground truth of highest IoU,
    and set their TP flags. Examples with ground truth alone keep no row.

    Each class's AP reads its kept rows by score, and rows of one class
    and one score in canonical order with the uid last, as one ranking of
    every row would give them: that order restricted to one class is the
    class's own. Only if two kept rows tie in class and score, the source
    is walked a second time, to gather the keys that order them for those
    rows alone (`_order_ties`); a row that does not come back with the
    class and score of the first walk is a ValidationError, "<name>:
    changed while it was read".

    Next to the ground truth, it holds per kept row only its class (an
    index into the ground truth's nouns, or -1), its score, its four TP
    flags and, once every block is matched, its place in the classes'
    order; per example its uid; and for one block at a time views of the
    block's rows in the runs, the block's columns, the corners, verbs and
    TTCs of its kept rows and ground truths, its candidate pairs, and
    temporaries of at most about PAIR_BLOCK pairs, all freed before the
    next block. The source holds what it reads of one batch at a time.
    Tied rows hold their keys until they are ordered.
    """
    # Lists stay accepted: the benchmark's oracle check passes synth's lists.
    source = preds if hasattr(preds, "walk") else as_predictions(preds)
    gts = as_gt_table(gts)
    classes, gt_class, class_size = np.unique(gts.noun, return_inverse=True, return_counts=True)
    n_classes, n_gt = len(classes), len(gts)
    gt_code: dict[str, int] = {}  # each ground-truth uid's code, in file order
    gt_uid = np.array([gt_code.setdefault(uid, len(gt_code)) for uid in gts.uid], dtype=np.int64)
    gt_order, gt_bounds = _by_example(gt_uid, len(gt_code))
    gt_bounds.append(gt_bounds[-1])  # no ground truth for the code of a uid without any
    del gt_uid

    matched = source.walk(lambda: _Matched(gts, gt_order, gt_code, gt_bounds, gt_class, classes, cfg))
    matched.close()
    # The kept rows, one block after another, each example's in its rank order.
    ends = np.cumsum([0] + [len(cls) for cls in matched.cls]).tolist()
    blocks = list(zip(ends[:-1], ends[1:]))  # (first kept row, end kept row) of each block
    n_pred = ends[-1]
    # Each column's pieces are freed once it is joined.
    pred_class = np.concatenate(matched.cls + [np.empty(0, dtype=matched.class_type)])
    matched.cls = []
    pred_score = np.concatenate(matched.score + [np.empty(0)])
    matched.score = []
    tp = {variant: np.concatenate(matched.tp.pop(variant) + [np.empty(0, dtype=bool)]) for variant in ALL_VARIANTS}
    class_count = np.bincount(pred_class.astype(np.intp) + 1, minlength=n_classes + 1)  # class -1 first

    # Each class's kept rows are one slice of by_class, by score; rows of
    # one score keep their storage order, which is the order the examples
    # came in and then an example's rank order. A block's rows go to the
    # next places of their classes, so no sort of every kept row is made.
    class_end = np.cumsum(class_count)
    placed = class_end - class_count  # the next place of each class
    by_class = np.empty(n_pred, dtype=np.intp)
    for first, end in blocks:
        cls = pred_class[first:end].astype(np.intp) + 1
        count = np.bincount(cls, minlength=n_classes + 1)
        by_class[np.repeat(placed - (np.cumsum(count) - count), count) + np.arange(end - first)] = (
            first + np.argsort(cls, kind="stable"))
        placed += count
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
    places = np.flatnonzero(~(run_starts[:-1] & run_starts[1:]))  # the rows in a run of two or more
    starts = np.flatnonzero(run_starts[places])  # where in places each such run starts
    firsts = by_class[places[starts]]
    runs = np.diff(np.append(starts, len(places))), pred_class[firsts], pred_score[firsts]
    del run_starts, starts, firsts, pred_class, pred_score
    if len(places):
        _order_ties(by_class, places, runs, source, matched, blocks)
    del places, runs

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
