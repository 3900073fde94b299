"""Merging prediction sets from multiple heads or checkpoints.

Hypotheses are greedily grouped around high-confidence seeds: two
hypotheses are compatible when they agree on noun, verb, box overlap and
TTC proximity. Each group is merged into one hypothesis whose box and
TTC are score-weighted means and whose score is boosted by cross-source
agreement. Default thresholds mirror the metric tolerances so grouped
hypotheses are interchangeable under the strictest matching criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boxes import Box2D, iou
from .errors import ValidationError
from .types import PredictionSet, StaHypothesis, canonical_key, sort_canonical


@dataclass(frozen=True)
class EnsembleConfig:
    box_iou_min: float = 0.5
    ttc_tolerance: float = 0.25
    agreement_weight: float = 0.5   # alpha in the agreement factor
    n_sources: int = 1
    max_exports: int = 100

    def __post_init__(self):
        problems = []
        if not (self.box_iou_min > 0.0):
            problems.append(f"box_iou_min must be positive, got {self.box_iou_min}")
        if not (self.ttc_tolerance > 0.0):
            problems.append(f"ttc_tolerance must be positive, got {self.ttc_tolerance}")
        if not (0.0 <= self.agreement_weight <= 1.0):
            problems.append(f"agreement_weight must be in [0, 1], got {self.agreement_weight}")
        if self.n_sources < 1:
            problems.append(f"n_sources must be >= 1, got {self.n_sources}")
        if self.max_exports < 1:
            problems.append(f"max_exports must be >= 1, got {self.max_exports}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class HypothesisGroup:
    members: tuple[StaHypothesis, ...]
    seed_index: int

    @property
    def seed(self) -> StaHypothesis:
        return self.members[self.seed_index]


def compatible(a: StaHypothesis, b: StaHypothesis, cfg: EnsembleConfig = EnsembleConfig()) -> bool:
    """Same noun, same verb, IoU >= box_iou_min, |ttc difference| <= tolerance."""
    return (
        a.noun_id == b.noun_id
        and a.verb_id == b.verb_id
        and iou(a.box, b.box) >= cfg.box_iou_min
        and abs(a.ttc - b.ttc) <= cfg.ttc_tolerance
    )


def group_hypotheses(
    hyps: list[StaHypothesis], cfg: EnsembleConfig = EnsembleConfig()
) -> list[HypothesisGroup]:
    """Greedy seed-anchored grouping (not transitive closure).

    Repeatedly take the highest-ranked ungrouped hypothesis as seed; every
    ungrouped hypothesis compatible with that seed joins its group. The
    result is a partition: each input hypothesis lands in exactly one group.
    """
    remaining = sort_canonical(hyps)
    groups = []
    while remaining:
        seed = remaining[0]
        members = [h for h in remaining if compatible(seed, h, cfg)]
        # The seed is compatible with itself, so members is never empty and
        # the seed (highest-ranked) sits at index 0.
        groups.append(HypothesisGroup(members=tuple(members), seed_index=0))
        taken = set(id(h) for h in members)
        remaining = [h for h in remaining if id(h) not in taken]
    return groups


def merge_group(g: HypothesisGroup, cfg: EnsembleConfig = EnsembleConfig()) -> StaHypothesis:
    """Collapse a group into one hypothesis.

    Box corners and TTC are score-weighted means over members; noun/verb
    come from the seed. The merged score is the mean member score times
    the agreement factor (1 - alpha) + alpha * u / n_sources, where u is
    the number of distinct sources represented in the group.
    """
    if not g.members:
        raise ValidationError("cannot merge an empty group")
    total = sum(h.score for h in g.members)
    weights = [h.score / total for h in g.members]
    corners = tuple(
        sum(w * h.box.corners()[i] for w, h in zip(weights, g.members)) for i in range(4)
    )
    ttc = sum(w * h.ttc for w, h in zip(weights, g.members))
    sources = {h.source_id for h in g.members}
    u = len(sources)
    alpha = cfg.agreement_weight
    agreement = (1.0 - alpha) + alpha * min(u, cfg.n_sources) / cfg.n_sources
    score = (total / len(g.members)) * agreement
    seed = g.seed
    return StaHypothesis(
        box=Box2D(*corners),
        noun_id=seed.noun_id,
        verb_id=seed.verb_id,
        ttc=ttc,
        score=score,
        source_id=seed.source_id,
    )


def ensemble_predictions(
    sources: list[PredictionSet], cfg: EnsembleConfig | None = None
) -> PredictionSet:
    """Pool, group, merge and re-rank hypotheses per example across sources.

    Hypotheses missing a source_id are tagged with their source's index so
    cross-source agreement can be counted. Uids are unioned across sources.
    """
    if not sources:
        raise ValidationError("ensemble needs at least one source")
    if cfg is None:
        cfg = EnsembleConfig(n_sources=len(sources))

    pooled: dict[str, list[StaHypothesis]] = {}
    for idx, src in enumerate(sources):
        for uid, hyps in src.items():
            bucket = pooled.setdefault(uid, [])
            for h in hyps:
                if h.source_id is None:
                    h = StaHypothesis(
                        box=h.box, noun_id=h.noun_id, verb_id=h.verb_id,
                        ttc=h.ttc, score=h.score, source_id=idx,
                    )
                bucket.append(h)

    out: PredictionSet = {}
    for uid in sorted(pooled):
        merged = [merge_group(g, cfg) for g in group_hypotheses(pooled[uid], cfg)]
        out[uid] = sort_canonical(merged)[: cfg.max_exports]
    return out
