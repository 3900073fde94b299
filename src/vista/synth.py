"""Seeded synthetic scenarios: ground truth plus noisy multi-source predictions.

Makes the metric, NMS, and ensemble stages testable at desk scale without
any real dataset. Distributions carry no realism claims; they exist to
exercise the algorithms. Everything is deterministic under the seed via
the counter-based RNG.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boxes import Box2D
from .rng import CounterRng
from .types import GroundTruthInstance, StaHypothesis, Taxonomy, check_fields, check_settings, setting, sort_canonical

CANVAS_W = 1920.0
CANVAS_H = 1080.0
TTC_RANGE = (0.1, 3.0)


@dataclass(frozen=True)
class NoiseConfig:
    box_jitter_sigma: float = setting(0.0, "finite and >= 0")   # pixels, per corner
    label_flip_prob: float = setting(0.0, "in [0, 1]")
    verb_flip_prob: float = setting(0.0, "in [0, 1]")
    ttc_noise_sigma: float = setting(0.0, "finite and >= 0")    # seconds
    drop_prob: float = setting(0.0, "in [0, 1]")
    seed: int = 0

    __post_init__ = check_fields


def generate_scenario(
    n_examples: int = 10,
    n_nouns: int = 8,
    n_verbs: int = 6,
    gts_per_example: int = 2,
    seed: int = NoiseConfig.seed,
) -> tuple[Taxonomy, list[GroundTruthInstance]]:
    """Random taxonomy and ground truth on a 1920x1080 canvas. The seed
    defaults to the noise's, which `vista synth` passes for both."""
    check_settings([("n_examples", n_examples, "int", ">= 1"), ("n_nouns", n_nouns, "int", ">= 1"),
                    ("n_verbs", n_verbs, "int", ">= 1"), ("gts_per_example", gts_per_example, "int", ">= 1"),
                    ("seed", seed, "int", None)])
    taxonomy = Taxonomy(
        noun_names=tuple(f"noun_{i:03d}" for i in range(n_nouns)),
        verb_names=tuple(f"verb_{i:03d}" for i in range(n_verbs)),
    )
    gts = []
    for ex in range(n_examples):
        rng = CounterRng(seed, stream=ex + 1)
        uid = f"ex_{ex:04d}"
        for _ in range(gts_per_example):
            w = rng.uniform(40.0, 400.0)
            h = rng.uniform(40.0, 300.0)
            x1 = rng.uniform(0.0, CANVAS_W - w)
            y1 = rng.uniform(0.0, CANVAS_H - h)
            gts.append(
                GroundTruthInstance(
                    example_uid=uid,
                    box=Box2D(x1, y1, x1 + w, y1 + h),
                    noun_id=rng.randint(n_nouns),
                    verb_id=rng.randint(n_verbs),
                    ttc=rng.uniform(*TTC_RANGE),
                )
            )
    return taxonomy, gts


def _flip_category(rng: CounterRng, current: int, n: int) -> int:
    """Uniformly random category different from `current` (needs n >= 2)."""
    return (current + 1 + rng.randint(n - 1)) % n


def perturb_to_predictions(
    taxonomy: Taxonomy,
    gts: list[GroundTruthInstance],
    noise: NoiseConfig,
    n_sources: int = 1,
) -> list[dict[str, list[StaHypothesis]]]:
    """One independently perturbed prediction set per source.

    Each ground truth gets Gaussian corner jitter, category flips to a
    uniformly random other id, Gaussian TTC noise clamped at 0, and a
    Bernoulli drop. Surviving predictions are scored 1 / (1 + distortion),
    so less-perturbed hypotheses rank higher; zero noise reproduces the
    ground truth with score exactly 1.0.
    """
    check_settings([("n_sources", n_sources, "int", ">= 1")])
    sources: list[dict[str, list[StaHypothesis]]] = []
    for s in range(n_sources):
        preds: dict[str, list[StaHypothesis]] = {}
        for gi, gt in enumerate(gts):
            rng = CounterRng(noise.seed, stream=((s + 1) << 32) ^ (gi + 1))
            if rng.uniform() < noise.drop_prob:
                continue
            jitter = [rng.gaussian(0.0, noise.box_jitter_sigma) for _ in range(4)]
            x1, x2 = sorted((gt.box.x1 + jitter[0], gt.box.x2 + jitter[2]))
            y1, y2 = sorted((gt.box.y1 + jitter[1], gt.box.y2 + jitter[3]))
            distortion = sum(abs(j) for j in jitter) / 100.0

            noun_id = gt.noun_id
            if rng.uniform() < noise.label_flip_prob and taxonomy.n_nouns > 1:
                noun_id = _flip_category(rng, noun_id, taxonomy.n_nouns)
                distortion += 1.0
            verb_id = gt.verb_id
            if rng.uniform() < noise.verb_flip_prob and taxonomy.n_verbs > 1:
                verb_id = _flip_category(rng, verb_id, taxonomy.n_verbs)
                distortion += 1.0

            ttc_delta = rng.gaussian(0.0, noise.ttc_noise_sigma)
            ttc = max(0.0, gt.ttc + ttc_delta)
            distortion += abs(ttc_delta)

            hyp = StaHypothesis(
                box=Box2D(x1, y1, x2, y2),
                noun_id=noun_id,
                verb_id=verb_id,
                ttc=ttc,
                score=1.0 / (1.0 + distortion),
                source_id=s,
            )
            preds.setdefault(gt.example_uid, []).append(hyp)
        for uid in preds:
            preds[uid] = sort_canonical(preds[uid])
        sources.append(preds)
    return sources
