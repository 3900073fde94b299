"""From raw per-proposal head outputs to an export-ready hypothesis table.

Builds the head-output tensors of a batch of random proposals, then walks
the inference chain: expansion into noun x verb pairs, class-aware NMS,
and the top-10 cut. Expansion scores every pair but builds a row (its
refined box and TTC, checked and ranked) only when NMS reads that deep,
and NMS stops once the cap's worth of hypotheses survive. So the demo
compares the rows scored with the rows built, then runs NMS uncapped
(cap = the number of rows) to count every survivor, which builds them all.

It also writes the tensors as `head_outputs.vstf` and the vocabulary as
`taxonomy.json` in the working directory, the inputs that
`vista postprocess` reads.
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
from vista.io_formats import write_taxonomy, write_tensor_file

rng = np.random.default_rng(1)
taxonomy = Taxonomy(
    noun_names=("cup", "knife", "plank", "pan", "bowl"),
    verb_names=("take", "cut", "place", "stir"),
)

n_proposals = 40
x1, y1 = rng.uniform(0, 600, n_proposals), rng.uniform(0, 400, n_proposals)
tensors = {
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
batch = proposals_from_tensors(tensors)

cfg = InferenceConfig(k_noun=3, k_verb=3, nms_iou=0.5, max_exports=10)
expanded = expand_hypotheses(batch, taxonomy, cfg)
print(f"{len(batch)} proposals -> {len(expanded)} scored hypotheses, {len(expanded.table)} rows built")

kept = class_aware_nms(expanded, cfg.nms_iou, cfg.max_exports)
final = finalize_submission(kept, cfg.max_exports)
print(f"with the export cap ({cfg.max_exports}) NMS stops at {len(kept)} survivors, "
      f"having built {len(expanded.table)} of {len(expanded)} rows; export keeps {len(final)}")

every_survivor = class_aware_nms(expanded, cfg.nms_iou, len(expanded))
print(f"without a cap it keeps {len(every_survivor)}, and all {len(expanded.table)} rows are built\n")
print("rank  noun    verb    ttc    score")
for i, (noun, verb, ttc, score) in enumerate(
    zip(final.noun.tolist(), final.verb.tolist(), final.ttc.tolist(), final.score.tolist())
):
    print(
        f"{i:>4}  {taxonomy.noun_names[noun]:<6}  "
        f"{taxonomy.verb_names[verb]:<6}  {ttc:5.2f}  {score:.4f}"
    )

write_tensor_file(tensors, "head_outputs.vstf")
write_taxonomy(taxonomy, "taxonomy.json")
print("\nwrote head_outputs.vstf and taxonomy.json; run the chain on them with:")
print("  vista postprocess head_outputs.vstf taxonomy.json --out run")
