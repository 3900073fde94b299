"""From raw per-proposal head outputs to an export-ready hypothesis table.

Builds the head-output tensors of a batch of random proposals, then walks
the inference chain: expansion into noun x verb pairs, class-aware NMS,
and the top-10 cut. NMS stops once the cap's worth of hypotheses survive,
so it is run twice here: uncapped (cap = the table's length) to count
every survivor, and with the export cap as the chain runs it.
"""

import numpy as np

from vista import (
    InferenceConfig,
    Taxonomy,
    class_aware_nms,
    expand_hypotheses,
    finalize_submission,
    proposals_from_tensors,
)

rng = np.random.default_rng(1)
taxonomy = Taxonomy(
    noun_names=("cup", "knife", "plank", "pan", "bowl"),
    verb_names=("take", "cut", "place", "stir"),
)

n_proposals = 40
x1, y1 = rng.uniform(0, 600, n_proposals), rng.uniform(0, 400, n_proposals)
batch = proposals_from_tensors(
    {
        "proposal_boxes": np.stack(
            [x1, y1, x1 + rng.uniform(30, 200, n_proposals), y1 + rng.uniform(30, 150, n_proposals)],
            axis=1,
        ),
        "objectness": rng.uniform(0.1, 1.0, n_proposals),
        "noun_logits": rng.standard_normal((n_proposals, taxonomy.n_nouns)),
        "verb_logits": rng.standard_normal((n_proposals, taxonomy.n_verbs)),
        "box_deltas": rng.standard_normal((n_proposals, taxonomy.n_nouns, 4)) * 0.05,
        "ttc_raw": rng.standard_normal(n_proposals),
        "quality": rng.uniform(0.1, 1.0, n_proposals),
    }
)

cfg = InferenceConfig(k_noun=3, k_verb=3, nms_iou=0.5, max_exports=10)
expanded = expand_hypotheses(batch, taxonomy, cfg)
print(f"{len(batch)} proposals -> {len(expanded)} expanded hypotheses")

every_survivor = class_aware_nms(expanded, cfg.nms_iou, len(expanded))
print(f"class-aware NMS keeps {len(every_survivor)} without a cap")

kept = class_aware_nms(expanded, cfg.nms_iou, cfg.max_exports)
final = finalize_submission(kept, cfg.max_exports)
print(f"with the export cap ({cfg.max_exports}) it stops at {len(kept)}; export keeps {len(final)}\n")
print("rank  noun    verb    ttc    score")
for i, (noun, verb, ttc, score) in enumerate(
    zip(final.noun.tolist(), final.verb.tolist(), final.ttc.tolist(), final.score.tolist())
):
    print(
        f"{i:>4}  {taxonomy.noun_names[noun]:<6}  "
        f"{taxonomy.verb_names[verb]:<6}  {ttc:5.2f}  {score:.4f}"
    )
