"""Short-term object interaction anticipation toolkit.

Pure-computation stages downstream of frozen backbones: sampling
arithmetic, temporal-context fusion kernels, prediction post-processing,
class-aware NMS, multi-source ensembling, and the four-variant Top-5 mAP
evaluation protocol, plus a seeded synthetic harness so every stage can
be exercised without real data.
"""

from .boxes import Box2D
from .ensemble import (
    EnsembleConfig,
    Grouping,
    HypothesisGroup,
    ensemble_predictions,
    group_hypotheses,
    merge_group,
)
from .errors import ValidationError
from .evaluation import (
    EvalConfig,
    EvalReport,
    MatchVariant,
    average_precision,
    evaluate,
    format_report_table,
    top_k_filter,
)
from .fusion import (
    ContextMlpParams,
    FilmParams,
    ProbeParams,
    attentive_probe,
    film_modulate,
    fuse_tensors,
    roi_context_fuse,
)
from .oracle import brute_force_evaluate
from .postprocess import (
    InferenceConfig,
    ProposalBatch,
    RankedHypotheses,
    apply_box_deltas,
    class_aware_nms,
    expand_hypotheses,
    finalize_submission,
    nms_block,
    proposals_from_tensors,
    softmax,
    ttc_column,
    ttc_from_raw,
)
from .sampling import plan_frames
from .synth import NoiseConfig, generate_scenario, perturb_to_predictions
from .types import (
    GroundTruthInstance,
    GroundTruthTable,
    HypothesisTable,
    PredictionSet,
    StaHypothesis,
    Taxonomy,
    as_gt_table,
    as_predictions,
    as_table,
    canonical_order,
    rank_within,
    sort_canonical,
)

__version__ = "0.1.0"
