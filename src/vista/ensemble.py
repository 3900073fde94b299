"""Merging prediction sets from multiple heads or checkpoints.

Hypotheses are greedily grouped around high-confidence seeds: two
hypotheses are compatible when they agree on noun, verb, box overlap and
TTC proximity. Each group is merged into one hypothesis whose box and
TTC are score-weighted means and whose score is boosted by cross-source
agreement. Default thresholds mirror the metric tolerances so grouped
hypotheses are interchangeable under the strictest matching criterion.

Grouping and merging work on the columns of one example's pooled
HypothesisTable. The arithmetic is that of the scalar definitions, bit
for bit: IoU keeps the operation order of the oracle's scalar IoU
(`oracle._iou_scalar`), and every sum over a group's members adds them
one at a time in member order from 0.0 (numpy's pairwise summation
rounds differently for groups of 8 or more, and Python's own `sum`
compensates float rounding from 3.12 on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import PAIR_BLOCK, box_columns, pair_iou, same_key_pairs
from .errors import ValidationError
from .types import HypothesisTable, PredictionSet, canonical_order, check_fields, setting, sort_canonical


@dataclass(frozen=True)
class EnsembleConfig:
    box_iou_min: float = setting(0.5, "in (0, 1]")
    ttc_tolerance: float = setting(0.25, "positive")
    agreement_weight: float = setting(0.5, "in [0, 1]")   # alpha in the agreement factor
    n_sources: int = setting(1, ">= 1")
    max_exports: int = setting(100, ">= 1")

    __post_init__ = check_fields


@dataclass(frozen=True, eq=False)
class HypothesisGroup:
    """One group: its members in canonical order, the seed first."""

    members: HypothesisTable


@dataclass(frozen=True, eq=False)
class Grouping:
    """One example's hypotheses partitioned into groups.

    Group g is the rows bounds[g]:bounds[g + 1] of `table`. The groups are
    in the order of their seeds, and each group's members are in
    canonical order, so its seed (its highest-ranked member) comes first.
    """

    table: HypothesisTable
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, g: int) -> HypothesisGroup:
        g = range(len(self))[g]
        return HypothesisGroup(self.table.take(slice(self.bounds[g], self.bounds[g + 1])))

    def __iter__(self):
        bounds = self.bounds.tolist()
        return (HypothesisGroup(self.table.take(slice(*ends))) for ends in zip(bounds, bounds[1:]))


def group_hypotheses(hyps: HypothesisTable, cfg: EnsembleConfig = EnsembleConfig()) -> Grouping:
    """Greedy seed-anchored grouping (not transitive closure).

    Repeatedly take the highest-ranked ungrouped hypothesis as seed; the
    seed and every ungrouped hypothesis compatible with it form a group.
    Two hypotheses are compatible when they have the same noun and verb,
    an IoU >= box_iou_min (as `oracle._iou_scalar` computes it) and a
    TTC gap <= ttc_tolerance. The seed always belongs to its own group,
    also when it is not compatible with itself (a zero-area box has IoU 0
    with itself). The result is a partition: each input hypothesis lands
    in exactly one group.

    Compatibility is computed only for same-(noun, verb) pairs,
    PAIR_BLOCK pairs at a time; one greedy pass in rank order then
    assigns the groups.
    """
    table = sort_canonical(hyps)
    n = len(table)
    by_class = np.lexsort((table.verb, table.noun))  # canonical order within each class
    noun, verb = table.noun[by_class], table.verb[by_class]
    starts_class = np.ones(n, dtype=bool)
    starts_class[1:] = (noun[1:] != noun[:-1]) | (verb[1:] != verb[:-1])
    corners, area = box_columns(table.boxes[by_class])
    ttc = table.ttc[by_class]
    # owner[i] is the position of the seed of the group of position i.
    owner = [-1] * n
    for higher, lower in same_key_pairs(np.cumsum(starts_class), PAIR_BLOCK):
        joins = (pair_iou(corners, area, higher, lower) >= cfg.box_iou_min) & (
            np.abs(ttc[higher] - ttc[lower]) <= cfg.ttc_tolerance
        )
        higher, lower = higher[joins], lower[joins]
        # Pairs come in rank order of their higher row, and all pairs of a
        # row are in one block, so a row still ungrouped when its pairs
        # come is a seed; the pairs of a grouped row are skipped whole.
        firsts = np.flatnonzero(np.diff(higher, prepend=-1))
        lower = lower.tolist()
        for h, first, end in zip(higher[firsts].tolist(), firsts.tolist(), firsts[1:].tolist() + [len(lower)]):
            if owner[h] < 0:
                owner[h] = h
            if owner[h] == h:
                for low in lower[first:end]:
                    if owner[low] < 0:
                        owner[low] = h
    owner = np.array(owner, dtype=np.intp)
    alone = owner < 0
    owner[alone] = np.flatnonzero(alone)
    seed_row, member_row = by_class[owner], by_class
    order = np.lexsort((member_row, seed_row))
    seed_row = seed_row[order]
    starts_group = np.ones(n, dtype=bool)
    starts_group[1:] = seed_row[1:] != seed_row[:-1]
    return Grouping(table.take(member_row[order]), np.append(np.flatnonzero(starts_group), n))


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


def merge_group(groups: Grouping, cfg: EnsembleConfig = EnsembleConfig()) -> HypothesisTable:
    """Collapse every group into one hypothesis, the rows of the result
    in group order.

    Box corners and TTC are score-weighted means over members; noun, verb
    and source come from the seed. The merged score is the mean member
    score times the agreement factor (1 - alpha) + alpha * u / n_sources,
    where u is the number of distinct sources represented in the group
    (members without a source count as one more). A group whose merged
    score underflows to 0.0 is dropped, as `expand_hypotheses` drops such
    pairs: it would rank below every other hypothesis.

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
    agreement = (1.0 - alpha) + alpha * np.minimum(distinct, cfg.n_sources) / cfg.n_sources
    score = mean * agreement
    kept = np.flatnonzero(score > 0.0)
    seeds = bounds[kept]
    return HypothesisTable(
        boxes=corners[kept],
        noun=table.noun[seeds],
        verb=table.verb[seeds],
        ttc=ttc[kept],
        score=score[kept],
        source=table.source[seeds],
        has_source=table.has_source[seeds],
    )


def ensemble_predictions(sources: list[PredictionSet], cfg: EnsembleConfig | None = None) -> PredictionSet:
    """Pool, group, merge and re-rank hypotheses per example across sources.

    Hypotheses missing a source_id are tagged with their source's index so
    cross-source agreement can be counted. Uids are unioned across sources.
    """
    if not sources:
        raise ValidationError("ensemble needs at least one source")
    if cfg is None:
        cfg = EnsembleConfig(n_sources=len(sources))

    pooled: dict[str, list[HypothesisTable]] = {}
    for idx, src in enumerate(sources):
        for uid, hyps in src.items():
            pooled.setdefault(uid, []).append(hyps.with_default_source(idx))

    out: PredictionSet = {}
    for uid in sorted(pooled):
        merged = merge_group(group_hypotheses(HypothesisTable.concat(pooled[uid]), cfg), cfg)
        out[uid] = merged.take(canonical_order(merged)[: cfg.max_exports])
    return out
