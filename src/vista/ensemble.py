"""Merging prediction sets from multiple heads or checkpoints.

Hypotheses are grouped around high-confidence seeds by the greedy rule
of `boxes.greedy_owners`: two hypotheses are compatible when they agree
on noun, verb, box overlap and TTC proximity. Each group is merged into
one hypothesis whose box and TTC are score-weighted means and whose
score is boosted by cross-source agreement. Default thresholds mirror
the metric tolerances so grouped hypotheses are interchangeable under
the strictest matching criterion.

Grouping, merging and ranking work on the columns of a pooled
HypothesisTable of a block of whole examples (`boxes.EXAMPLE_BLOCK`),
with the example code leading every class key. The arithmetic is that
of the scalar definitions, bit for bit: IoU keeps the operation order of the
oracle's scalar IoU (`oracle._iou_scalar`), and every sum over a
group's members adds them one at a time in member order from 0.0
(numpy's pairwise summation rounds differently for groups of 8 or more,
and Python's own `sum` compensates float rounding from 3.12 on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boxes
from .boxes import box_columns, count_blocks, greedy_owners, pair_iou
from .errors import ValidationError
from .types import (
    HypothesisTable,
    PredictionSet,
    as_predictions,
    canonical_order,
    check_fields,
    rank_within,
    setting,
)
from .types import sort_canonical  # noqa: F401  (unused here; bench/spans.py times it under this name)


@dataclass(frozen=True)
class EnsembleConfig:
    """The ensemble's settings; the N of its agreement factor is the number of sources given."""
    box_iou_min: float = setting(0.5, "in (0, 1]")
    ttc_tolerance: float = setting(0.25, "positive")
    agreement_weight: float = setting(0.5, "in [0, 1]")   # alpha in the agreement factor
    max_exports: int = setting(100, ">= 1")

    __post_init__ = check_fields


@dataclass(frozen=True, eq=False)
class HypothesisGroup:
    """One group: its members in canonical order, the seed first."""

    members: HypothesisTable


@dataclass(frozen=True, eq=False)
class Grouping:
    """Hypotheses partitioned into groups.

    Group g is the rows bounds[g]:bounds[g + 1] of `table`. The groups are
    in the order of their seeds, and each group's members are in
    canonical order, so its seed (its highest-ranked member) comes first.
    `example` holds the example code of each row; no group spans two.
    """

    table: HypothesisTable
    bounds: np.ndarray
    example: np.ndarray

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __iter__(self):
        bounds = self.bounds.tolist()
        return (HypothesisGroup(self.table.take(slice(*ends))) for ends in zip(bounds, bounds[1:]))


def group_hypotheses(hyps: HypothesisTable, cfg: EnsembleConfig = EnsembleConfig(),
                     example: np.ndarray | None = None, tie_break: tuple = ()) -> Grouping:
    """Greedy seed-anchored grouping (not transitive closure), of one
    example's hypotheses (code 0) or of several examples' with the example
    code of each row in `example`, each example as it would be grouped
    alone.

    The groups are those of `boxes.greedy_owners` over the hypotheses in
    canonical order, with the `tie_break` columns (`canonical_order`):
    each seed and the hypotheses it owns form a group.
    The class is the example, noun and verb, and a hypothesis joins a
    lower-ranked one with an IoU >= box_iou_min (as `oracle._iou_scalar`
    computes it) and a TTC gap <= ttc_tolerance. The seed always belongs
    to its own group, also when it is not compatible with itself (a
    zero-area box has IoU 0 with itself). The result is a partition: each
    input hypothesis lands in exactly one group.
    """
    rank = canonical_order(hyps, tie_break)
    table = hyps.take(rank)
    n = len(table)
    code = np.zeros(n, dtype=np.int64) if example is None else example[rank]
    corners, area = box_columns(table.boxes)

    def joins(higher: np.ndarray, lower: np.ndarray) -> np.ndarray:
        return (pair_iou(corners, area, higher, lower) >= cfg.box_iou_min) & (
            np.abs(table.ttc[higher] - table.ttc[lower]) <= cfg.ttc_tolerance
        )

    owner = np.array(greedy_owners((table.verb, table.noun, code), joins, []), dtype=np.intp)
    seed = np.where(owner < 0, np.arange(n), owner)
    member_row = np.argsort(seed, kind="stable")  # by seed, each group in rank order, its seed first
    return Grouping(table.take(member_row), np.append(np.flatnonzero(owner[member_row] < 0), n), code[member_row])


def _member_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The sum of values[bounds[g]:bounds[g + 1]] for every group g, added
    one at a time in order from 0.0. A sum past the float maximum is inf,
    without a warning."""
    sizes = np.diff(bounds)
    by_size = np.argsort(-sizes, kind="stable")
    firsts, larger = bounds[:-1][by_size], -sizes[by_size]  # larger ascends
    sums = np.zeros(len(sizes))
    with np.errstate(over="ignore"):
        for j in range(int(sizes.max(initial=0))):
            # Groups with more than j members are a prefix in size order.
            active = int(np.searchsorted(larger, -j, side="left"))
            sums[:active] += values[firsts[:active] + j]
    out = np.empty_like(sums)
    out[by_size] = sums
    return out


def _member_means(weight: np.ndarray, values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The sum of weight * values over every group (`_member_sums`), whose
    weights add up to 1, so that it lies within the group's values. Near
    the float maximum the rounding can carry it past that maximum all the
    same; such a sum is taken again over the halved values, held within
    them and doubled. Halving and doubling are exact, and only the sums
    that are not finite are replaced."""
    means = _member_sums(weight * values, bounds)
    over = ~np.isfinite(means)
    if over.any():
        half = values / 2
        low, high = np.minimum.reduceat(half, bounds[:-1]), np.maximum.reduceat(half, bounds[:-1])
        means[over] = 2 * np.clip(_member_sums(weight * half, bounds), low, high)[over]
    return means


def merge_group(groups: Grouping, n_sources: int,
                cfg: EnsembleConfig = EnsembleConfig()) -> tuple[HypothesisTable, np.ndarray]:
    """Collapse every group into one hypothesis, the rows of the result
    in group order: the table and the example code of each of its rows.

    Box corners and TTC are score-weighted means over members; noun, verb
    and source come from the seed. The merged score is the mean member
    score times the agreement factor (1 - alpha) + alpha * u / n_sources,
    where n_sources is the number of sources pooled and u the number of
    distinct sources represented in the group, at most n_sources (members
    without a source count as one more). A group whose merged score
    underflows to 0.0 is dropped, as `expand_hypotheses` drops such pairs:
    it would rank below every other hypothesis.

    Every mean is finite, since it lies within finite values. Near the
    float maximum, a group whose score sum overflows takes its mean score
    as the sum of score / n, and its weights as score / mean / n; a
    weighted mean that the rounding carries past the maximum is taken
    again by `_member_means`. The other groups keep their bits.
    """
    table, bounds = groups.table, groups.bounds
    sizes = np.diff(bounds)
    if (sizes < 1).any():
        raise ValidationError("cannot merge an empty group")
    group = np.repeat(np.arange(len(sizes)), sizes)
    total = _member_sums(table.score, bounds)
    mean = total / sizes
    weight = table.score / total[group]
    over = np.isinf(total)
    if over.any():
        mean[over] = _member_means(1.0 / sizes[group], table.score, bounds)[over]
        rows = over[group]
        weight[rows] = table.score[rows] / mean[group[rows]] / sizes[group[rows]]
    corners = np.stack([_member_means(weight, table.boxes[:, i], bounds) for i in range(4)], axis=-1)
    ttc = _member_means(weight, table.ttc, bounds)
    has_source = table.has_source
    source = np.where(has_source, table.source, 0)
    by_source = np.lexsort((source, has_source, group))
    first_of_kind = np.ones(len(table), dtype=bool)
    first_of_kind[1:] = np.diff(np.stack([group, has_source, source])[:, by_source], axis=1).any(axis=0)
    distinct = np.bincount(group[by_source][first_of_kind], minlength=len(sizes))
    alpha = cfg.agreement_weight
    agreement = (1.0 - alpha) + alpha * np.minimum(distinct, n_sources) / n_sources
    score = mean * agreement
    kept = np.flatnonzero(score > 0.0)
    seeds = bounds[kept]
    merged = HypothesisTable(
        boxes=corners[kept],
        noun=table.noun[seeds],
        verb=table.verb[seeds],
        ttc=ttc[kept],
        score=score[kept],
        source=table.source[seeds],
        has_source=table.has_source[seeds],
    )
    return merged, groups.example[seeds]


def ensemble_predictions(sources: list[PredictionSet], cfg: EnsembleConfig = EnsembleConfig()) -> PredictionSet:
    """Pool, group, merge and re-rank hypotheses per example across sources.

    Each source is a PredictionSet, or another mapping that
    `as_predictions` takes. Hypotheses missing a source_id are tagged with
    their source's index so cross-source agreement can be counted, out of
    the number of sources given. Uids are unioned across sources. Full
    ties (equal but for their source) go in source order, then by
    source_id as written (none first), whatever the order of the entries.

    The examples, in uid order, are taken in blocks of whole examples
    whose pools add up to at most `boxes.EXAMPLE_BLOCK` hypotheses (an
    example of more comes alone). A block is pooled from the sources'
    runs only when it is taken, source after source (`PredictionSet.rows`),
    and grouped, merged and ranked at once, with the example code of each
    row: no group spans two examples, and each example keeps its first
    max_exports merged rows (`rank_within`). So each example gets the rows
    it gets alone, in the same order. The result holds one run per block:
    its kept rows, one example after another.
    """
    if not sources:
        raise ValidationError("ensemble needs at least one source")
    sources = [as_predictions(src) for src in sources]
    uids = sorted(set().union(*sources))
    sizes = sum(src.sizes(uids) for src in sources)

    runs = []
    for start, stop in count_blocks(sizes, boxes.EXAMPLE_BLOCK):
        block = uids[start:stop]
        counts = [src.sizes(block) for src in sources]
        index = np.repeat(np.arange(len(sources)), [int(count.sum()) for count in counts])
        example = np.concatenate([np.repeat(np.arange(len(block)), count) for count in counts])
        pool = HypothesisTable.concat([view for src in sources for view in src.rows(block)])
        groups = group_hypotheses(pool.with_default_source(index), cfg, example, (pool.source, pool.has_source, index))
        del pool  # the pool and its groups are freed once used, not held into the next block
        merged, example = merge_group(groups, len(sources), cfg)
        del groups
        rows = rank_within(merged, example, cfg.max_exports)  # one example after another
        bounds = np.zeros(len(block) + 1, dtype=np.int64)
        np.cumsum(np.bincount(example[rows], minlength=len(block)), out=bounds[1:])
        runs.append((merged.take(rows), block, bounds))
    return PredictionSet(runs)
