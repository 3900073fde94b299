"""Brute-force evaluation oracle for tiny instances.

Recomputes the four-variant Top-5 mAP protocol from first principles with
plain Python loops: its own scalar IoU, explicitly enumerated match
candidacy, and a precision-recall curve built rank by rank. It shares no
arithmetic with `evaluation.evaluate` and exists so the fast path can be
checked against an independent derivation. Guarded to small instances.
"""

from __future__ import annotations

from .errors import ValidationError
from .evaluation import ALL_VARIANTS, EvalConfig, EvalReport, MatchVariant
from .types import GroundTruthInstance, StaHypothesis

MAX_PREDS_PER_CLASS = 8


def _iou_scalar(a, b) -> float:
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    ix1, iy1 = max(ax1, bx1), max(ay1, by1)
    ix2, iy2 = min(ax2, bx2), min(ay2, by2)
    if ix2 <= ix1 or iy2 <= iy1:
        return 0.0
    inter = (ix2 - ix1) * (iy2 - iy1)
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def _candidate_valid(pred, gt, variant, cfg) -> bool:
    """Enumerated validity of one prediction/ground-truth pairing."""
    if pred.noun_id != gt.noun_id:
        return False
    if _iou_scalar(pred.box, gt.box) <= cfg.iou_min:
        return False
    need_verb = variant in (MatchVariant.NOUN_VERB, MatchVariant.OVERALL)
    need_ttc = variant in (MatchVariant.NOUN_TTC, MatchVariant.OVERALL)
    if need_verb and pred.verb_id != gt.verb_id:
        return False
    if need_ttc and abs(pred.ttc - gt.ttc) >= cfg.ttc_max_error:
        return False
    return True


def _rank_key(h: StaHypothesis, uid: str):
    return (-h.score, h.noun_id, h.verb_id, h.box.x1, h.box.y1, h.box.x2, h.box.y2, h.ttc, uid)


def _ap_from_curve(flags: list[bool], n_gt: int) -> float:
    """AP via direct enumeration: every true positive contributes the best
    precision achievable at its rank or any later rank, times 1/n_gt."""
    ap = 0.0
    for i, flag in enumerate(flags):
        if not flag:
            continue
        best = 0.0
        for j in range(i, len(flags)):
            tp_at_j = sum(1 for f in flags[: j + 1] if f)
            best = max(best, tp_at_j / (j + 1))
        ap += best / n_gt
    return ap


def brute_force_evaluate(
    preds: dict[str, list[StaHypothesis]],
    gts: list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Same contract as `evaluation.evaluate`, computed independently.

    Refuses instances with more than MAX_PREDS_PER_CLASS surviving
    predictions in any noun class; intended for tests only.
    """
    ranked: list[tuple[StaHypothesis, str]] = []
    for uid, hyps in preds.items():
        per_example = sorted(hyps, key=lambda h: _rank_key(h, uid))[: cfg.top_k]
        for h in per_example:
            ranked.append((h, uid))
    ranked.sort(key=lambda rec: _rank_key(rec[0], rec[1]))

    per_class_count: dict[int, int] = {}
    for h, _ in ranked:
        per_class_count[h.noun_id] = per_class_count.get(h.noun_id, 0) + 1
    oversized = {c: n for c, n in per_class_count.items() if n > MAX_PREDS_PER_CLASS}
    if oversized:
        raise ValidationError(
            f"instance too large for the brute-force oracle "
            f"(classes over {MAX_PREDS_PER_CLASS} predictions: {oversized})"
        )

    n_gt_per_class: dict[int, int] = {}
    for gt in gts:
        n_gt_per_class[gt.noun_id] = n_gt_per_class.get(gt.noun_id, 0) + 1
    scored_classes = sorted(n_gt_per_class)

    maps: dict[str, float] = {}  # by map_key
    per_noun_ap: dict[int, dict[str, float]] = {c: {} for c in scored_classes}
    counts: dict[str, dict[str, int]] = {}
    for variant in ALL_VARIANTS:
        taken = [False] * len(gts)
        flags_per_class: dict[int, list[bool]] = {}
        matched = 0
        for hyp, uid in ranked:
            valid = [
                gi
                for gi, gt in enumerate(gts)
                if not taken[gi]
                and gt.example_uid == uid
                and _candidate_valid(hyp, gt, variant, cfg)
            ]
            chosen = -1
            if valid:
                chosen = max(valid, key=lambda gi: (_iou_scalar(hyp.box, gts[gi].box), -gi))
                taken[chosen] = True
                matched += 1
            flags_per_class.setdefault(hyp.noun_id, []).append(chosen >= 0)

        aps = []
        for cls in scored_classes:
            ap = _ap_from_curve(flags_per_class.get(cls, []), n_gt_per_class[cls])
            per_noun_ap[cls][variant.value] = ap
            aps.append(ap)
        maps[variant.map_key] = 100.0 * (sum(aps) / len(aps)) if aps else 0.0
        counts[variant.value] = {
            "matched": matched,
            "unmatched_predictions": len(ranked) - matched,
            "unmatched_ground_truths": len(gts) - matched,
        }

    return EvalReport(**maps, per_noun_ap=per_noun_ap, counts=counts)
