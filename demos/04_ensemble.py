"""Merging prediction sets from several noisy sources.

Three perturbed copies of the same ground truth play the role of
different heads/checkpoints; ensembling groups compatible hypotheses and
boosts the ones that several sources agree on.
"""

from vista import (
    EnsembleConfig,
    EvalConfig,
    NoiseConfig,
    as_gt_table,
    as_table,
    ensemble_predictions,
    evaluate,
    generate_scenario,
    perturb_to_predictions,
)

taxonomy, annotations = generate_scenario(
    n_examples=12, n_nouns=6, n_verbs=5, gts_per_example=2, seed=21
)
noise = NoiseConfig(
    box_jitter_sigma=25, label_flip_prob=0.15, ttc_noise_sigma=0.15, drop_prob=0.1, seed=21
)
# synth gives lists of objects; the stages take tables.
gts = as_gt_table(annotations)
sources = [
    {uid: as_table(hyps) for uid, hyps in source.items()}
    for source in perturb_to_predictions(taxonomy, annotations, noise, n_sources=3)
]

cfg = EvalConfig()
for i, src in enumerate(sources):
    report = evaluate(src, gts, cfg)
    print(f"source {i}: Overall mAP = {report.map_overall:6.2f}")

merged = ensemble_predictions(sources, EnsembleConfig(n_sources=3))
report = evaluate(merged, gts, cfg)
print(f"ensemble: Overall mAP = {report.map_overall:6.2f}")

uid = next(iter(merged))
print(f"\nmerged hypotheses for {uid}:")
table = merged[uid]
for (x1, y1, x2, y2), noun, verb, ttc, score in zip(
    table.boxes.tolist(), table.noun.tolist(), table.verb.tolist(), table.ttc.tolist(), table.score.tolist()
):
    print(
        f"  noun {noun} verb {verb}  ttc {ttc:4.2f}  "
        f"score {score:.3f}  box ({x1:.0f}, {y1:.0f}, {x2:.0f}, {y2:.0f})"
    )
