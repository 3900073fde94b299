import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vista import boxes, evaluation
from vista.boxes import Box2D, count_blocks
from vista.errors import ValidationError
from vista.evaluation import (
    EvalConfig,
    MatchVariant,
    average_precision,
    evaluate,
    format_report_table,
    top_k_filter,
)
from vista.oracle import _iou_scalar, brute_force_evaluate
from vista.rng import CounterRng
from vista.synth import NoiseConfig, generate_scenario, perturb_to_predictions
from vista.types import (
    GroundTruthInstance,
    GroundTruthTable,
    HypothesisTable,
    StaHypothesis,
    as_gt_table,
    as_table,
    sort_canonical,
)

from test_postprocess import columns

CFG = EvalConfig()


def gt(uid="ex", x1=0.0, y1=0.0, x2=10.0, y2=10.0, noun=0, verb=0, ttc=1.0):
    return GroundTruthInstance(
        example_uid=uid, box=Box2D(x1, y1, x2, y2), noun_id=noun, verb_id=verb, ttc=ttc
    )


def pred(x1=0.0, y1=0.0, x2=10.0, y2=10.0, noun=0, verb=0, ttc=1.0, score=0.9):
    return StaHypothesis(box=Box2D(x1, y1, x2, y2), noun_id=noun, verb_id=verb, ttc=ttc, score=score)


def exact_copy_pred(g, score=1.0):
    return StaHypothesis(box=g.box, noun_id=g.noun_id, verb_id=g.verb_id, ttc=g.ttc, score=score)


def matches(p, g, variant, cfg=CFG):
    """Whether the prediction matches the ground truth under the variant:
    with one prediction and one ground truth, whether `evaluate` counts a
    match."""
    return evaluate({g.example_uid: [p]}, [g], cfg).counts[variant.value]["matched"] == 1


class TestMatches:
    def test_exact_copy_matches_all_variants(self):
        g = gt()
        p = exact_copy_pred(g)
        for variant in MatchVariant:
            assert matches(p, g, variant, CFG)

    def test_iou_exactly_half_does_not_match(self):
        g = gt(x1=0, y1=0, x2=10, y2=10)
        # (0,0,10,5) vs (0,0,10,10): intersection 50, union 100 -> IoU 0.5
        p = pred(x1=0, y1=0, x2=10, y2=5)
        assert _iou_scalar(p.box, g.box) == pytest.approx(0.5)
        for variant in MatchVariant:
            assert not matches(p, g, variant, CFG)

    def test_ttc_error_030_fails_only_ttc_variants(self):
        g = gt(ttc=1.0)
        p = pred(ttc=1.30)
        assert matches(p, g, MatchVariant.NOUN, CFG)
        assert matches(p, g, MatchVariant.NOUN_VERB, CFG)
        assert not matches(p, g, MatchVariant.NOUN_TTC, CFG)
        assert not matches(p, g, MatchVariant.OVERALL, CFG)

    def test_ttc_error_exactly_at_tolerance_fails(self):
        assert not matches(pred(ttc=1.25), gt(ttc=1.0), MatchVariant.NOUN_TTC, CFG)

    def test_wrong_verb_fails_verb_variants(self):
        g = gt(verb=0)
        p = pred(verb=1)
        assert matches(p, g, MatchVariant.NOUN, CFG)
        assert not matches(p, g, MatchVariant.NOUN_VERB, CFG)
        assert matches(p, g, MatchVariant.NOUN_TTC, CFG)
        assert not matches(p, g, MatchVariant.OVERALL, CFG)


class TestTopKFilter:
    def test_truncates_to_k(self):
        hyps = [pred(score=0.1 * (i + 1)) for i in range(7)]
        kept = top_k_filter(as_table(hyps), 5)
        assert len(kept) == 5
        assert columns(kept) == columns(as_table(sort_canonical(hyps)[:5]))

    def test_short_list_unchanged(self):
        hyps = [pred(score=0.5), pred(score=0.2), pred(score=0.9)]
        assert len(top_k_filter(as_table(hyps), 5)) == 3

    def test_tie_break_deterministic_under_permutation(self):
        hyps = [pred(noun=n, verb=v, score=0.5) for n in range(3) for v in range(3)]
        assert columns(top_k_filter(as_table(hyps), 5)) == columns(top_k_filter(as_table(list(reversed(hyps))), 5))


class TestAveragePrecision:
    def test_single_match(self):
        assert average_precision([True], 1) == 1.0

    def test_single_miss(self):
        assert average_precision([False], 1) == 0.0

    def test_interpolated_example(self):
        # 2 gts, ranked [TP, FP, TP]: AP = (1/2)*1 + (1/2)*(2/3) = 5/6
        assert average_precision([True, False, True], 2) == pytest.approx(5 / 6)

    def test_empty_predictions(self):
        assert average_precision([], 3) == 0.0

    def test_requires_ground_truth(self):
        with pytest.raises(ValidationError):
            average_precision([True], 0)


class TestEvaluate:
    def make_perfect(self, seed=5):
        taxonomy, gts = generate_scenario(4, 3, 3, 2, seed=seed)
        preds = {}
        for g in gts:
            preds.setdefault(g.example_uid, []).append(exact_copy_pred(g))
        return taxonomy, gts, preds

    def test_perfect_predictions_score_100(self):
        _, gts, preds = self.make_perfect()
        report = evaluate(preds, gts, CFG)
        assert report.map_overall == 100.0
        assert report.map_noun == 100.0
        assert report.map_noun_verb == 100.0
        assert report.map_noun_ttc == 100.0

    def test_empty_predictions_score_0(self):
        _, gts, _ = self.make_perfect()
        report = evaluate({}, gts, CFG)
        assert report.map_overall == 0.0
        assert report.map_noun == 0.0

    def test_matches_brute_force_on_synthetic_instance(self):
        taxonomy, gts = generate_scenario(3, 2, 2, 2, seed=9)
        preds = perturb_to_predictions(
            taxonomy, gts, NoiseConfig(box_jitter_sigma=25, label_flip_prob=0.2, seed=9), 1
        )[0]
        fast = evaluate(preds, gts, CFG)
        slow = brute_force_evaluate(preds, gts, CFG)
        for variant in MatchVariant:
            assert fast.variant_map(variant) == pytest.approx(slow.variant_map(variant), abs=1e-9)

    def test_metric_nesting(self):
        for seed in range(10):
            taxonomy, gts = generate_scenario(4, 3, 3, 2, seed=seed)
            preds = perturb_to_predictions(
                taxonomy,
                gts,
                NoiseConfig(
                    box_jitter_sigma=30,
                    label_flip_prob=0.2,
                    verb_flip_prob=0.3,
                    ttc_noise_sigma=0.3,
                    seed=seed,
                ),
                1,
            )[0]
            r = evaluate(preds, gts, CFG)
            assert r.map_overall <= min(r.map_noun_verb, r.map_noun_ttc) + 1e-9
            assert max(r.map_noun_verb, r.map_noun_ttc) <= r.map_noun + 1e-9

    def test_score_rescaling_invariance(self):
        taxonomy, gts = generate_scenario(3, 2, 2, 2, seed=11)
        preds = perturb_to_predictions(
            taxonomy, gts, NoiseConfig(box_jitter_sigma=20, seed=11), 1
        )[0]
        scaled = {
            uid: [
                StaHypothesis(h.box, h.noun_id, h.verb_id, h.ttc, h.score * 0.25, h.source_id)
                for h in hyps
            ]
            for uid, hyps in preds.items()
        }
        a = evaluate(preds, gts, CFG)
        b = evaluate(scaled, gts, CFG)
        for variant in MatchVariant:
            assert a.variant_map(variant) == pytest.approx(b.variant_map(variant), abs=1e-12)

    def test_low_score_addition_below_cut_changes_nothing(self):
        taxonomy, gts = generate_scenario(2, 2, 2, 5, seed=13)
        preds = perturb_to_predictions(taxonomy, gts, NoiseConfig(seed=13), 1)[0]
        # each example already carries 5 hypotheses at the top_k cap
        augmented = {
            uid: hyps + [pred(x1=500, x2=520, y1=500, y2=520, score=1e-6)]
            for uid, hyps in preds.items()
        }
        a = evaluate(preds, gts, CFG)
        b = evaluate(augmented, gts, CFG)
        for variant in MatchVariant:
            assert a.variant_map(variant) == b.variant_map(variant)

    def test_zero_area_boxes_score_zero(self):
        _, gts, preds = self.make_perfect()
        collapsed = {
            uid: [
                StaHypothesis(
                    Box2D(h.box.x1, h.box.y1, h.box.x1, h.box.y1),
                    h.noun_id, h.verb_id, h.ttc, h.score,
                )
                for h in hyps
            ]
            for uid, hyps in preds.items()
        }
        r = evaluate(collapsed, gts, CFG)
        for variant in MatchVariant:
            assert r.variant_map(variant) == 0.0

    def test_ttc_degradation_only_hurts_ttc_variants(self):
        taxonomy, gts = generate_scenario(3, 2, 2, 2, seed=17)
        preds = perturb_to_predictions(
            taxonomy, gts, NoiseConfig(box_jitter_sigma=15, seed=17), 1
        )[0]
        degraded = {
            uid: [
                StaHypothesis(h.box, h.noun_id, h.verb_id, h.ttc + 10.0, h.score, h.source_id)
                for h in hyps
            ]
            for uid, hyps in preds.items()
        }
        a = evaluate(preds, gts, CFG)
        b = evaluate(degraded, gts, CFG)
        assert b.map_noun == a.map_noun
        assert b.map_noun_verb == a.map_noun_verb
        assert b.map_noun_ttc <= a.map_noun_ttc
        assert b.map_overall <= a.map_overall

    def test_ground_truth_list_and_table_score_alike(self):
        taxonomy, gts = generate_scenario(4, 3, 3, 2, seed=23)
        preds = perturb_to_predictions(taxonomy, gts, NoiseConfig(box_jitter_sigma=20, seed=23), 1)[0]
        assert evaluate(preds, gts, CFG) == evaluate(preds, as_gt_table(gts), CFG)


class TestReportRendering:
    def test_table_has_four_columns(self):
        taxonomy, gts = generate_scenario(2, 2, 2, 1, seed=3)
        preds = perturb_to_predictions(taxonomy, gts, NoiseConfig(seed=3), 1)[0]
        table = format_report_table(evaluate(preds, gts, CFG))
        assert "Overall" in table and "Noun+Verb" in table and "Noun+TTC" in table
        assert "100.00" in table

    def test_text_is_pinned_byte_for_byte(self):
        # The header, the labels in report order and the column widths:
        # each column is as wide as its label or its value, right-aligned.
        report = evaluation.EvalReport(map_overall=7.5, map_noun=100.0, map_noun_verb=0.0, map_noun_ttc=100 / 3,
                                       per_noun_ap={}, counts={})
        assert format_report_table(report) == (
            "Top-5 mAP report (local protocol: per-example top-5 truncation stand-in "
            "for the official server aggregation)\n"
            "Overall    Noun  Noun+Verb  Noun+TTC\n"
            "   7.50  100.00       0.00     33.33"
        )
        assert list(report.to_dict())[:5] == ["header", "map_overall", "map_noun", "map_noun_verb", "map_noun_ttc"]

    def test_report_dict_round_trips_variants(self):
        taxonomy, gts = generate_scenario(2, 2, 2, 1, seed=4)
        preds = perturb_to_predictions(taxonomy, gts, NoiseConfig(seed=4), 1)[0]
        doc = evaluate(preds, gts, CFG).to_dict()
        assert set(doc["counts"]) == {"overall", "noun", "noun_verb", "noun_ttc"}


class TestBruteForceGuard:
    def test_rejects_large_instances(self):
        gts = [gt(uid=f"e{i}") for i in range(20)]
        preds = {f"e{i}": [exact_copy_pred(gts[i])] for i in range(20)}
        with pytest.raises(ValidationError):
            brute_force_evaluate(preds, gts, CFG)

    def test_perfect_tiny_instance(self):
        gts = [gt(uid="a"), gt(uid="b", noun=1)]
        preds = {"a": [exact_copy_pred(gts[0])], "b": [exact_copy_pred(gts[1])]}
        r = brute_force_evaluate(preds, gts, CFG)
        for variant in MatchVariant:
            assert r.variant_map(variant) == 100.0

    def test_dominated_predictions_never_score_higher(self):
        # degrade every dimension: smaller IoU, wrong verb, worse ttc
        base = gt(uid="a")
        good = {"a": [exact_copy_pred(base)]}
        bad = {"a": [pred(x1=3, y1=3, x2=13, y2=13, verb=1, ttc=2.0)]}
        r_good = brute_force_evaluate(good, [base], CFG)
        r_bad = brute_force_evaluate(bad, [base], CFG)
        for variant in MatchVariant:
            assert r_bad.variant_map(variant) <= r_good.variant_map(variant)


coordinate = st.sampled_from([0.0, 2.0, 5.0, 8.0, 10.0])
box = st.tuples(coordinate, coordinate, coordinate, coordinate).map(
    lambda c: Box2D(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
)
uid = st.sampled_from(["a", "b"])
tiny_gts = st.lists(
    st.builds(GroundTruthInstance, uid, box, st.integers(0, 1), st.integers(0, 1),
              st.sampled_from([0.5, 0.75, 1.0])),
    max_size=6,
)
tiny_preds = st.lists(
    st.tuples(uid, st.builds(StaHypothesis, box, st.integers(0, 1), st.integers(0, 1),
                             st.sampled_from([0.5, 0.75, 1.0]), st.sampled_from([0.25, 0.5, 1.0]))),
    max_size=8,
)


class TestRankingTies:
    def test_iou_tie_goes_to_the_first_ground_truth(self):
        # A overlaps both ground truths with IoU 0.5; taking the first
        # leaves B, which overlaps only the first, unmatched.
        gts = [gt(x1=0, y1=0, x2=10, y2=5), gt(x1=0, y1=5, x2=10, y2=10)]
        preds = {"ex": [pred(score=0.9), pred(x1=0, y1=0, x2=10, y2=5, score=0.8)]}
        cfg = EvalConfig(iou_min=0.4)
        report = evaluate(preds, gts, cfg)
        assert report.counts["noun"]["matched"] == 1
        assert report.counts == brute_force_evaluate(preds, gts, cfg).counts

    def test_full_tie_across_examples_ranks_by_uid(self):
        # The same hypothesis in two examples, matched only in "b": uid
        # "a" ranks first whatever the order of the dict, so the class
        # reads FP then TP.
        preds = {"b": [pred()], "a": [pred()]}
        gts = [gt(uid="b")]
        report = evaluate(preds, gts, CFG)
        assert report.map_noun == pytest.approx(50.0)
        assert report.map_noun == brute_force_evaluate(preds, gts, CFG).map_noun


def assert_as_oracle(fast, slow):
    assert fast.counts == slow.counts
    assert fast.per_noun_ap.keys() == slow.per_noun_ap.keys()
    for cls, aps in slow.per_noun_ap.items():
        assert fast.per_noun_ap[cls] == pytest.approx(aps, abs=1e-12)
    for variant in MatchVariant:
        assert fast.variant_map(variant) == pytest.approx(slow.variant_map(variant), abs=1e-9)


def preds_of(pairs) -> dict:
    preds = {}
    for example, h in pairs:
        preds.setdefault(example, []).append(h)
    return preds


def evaluate_in_blocks(preds, gts, cfg, pair_block, example_block):
    """evaluate with PAIR_BLOCK set to pair_block and boxes.EXAMPLE_BLOCK
    to example_block, and the (block size, blocks) of each of its
    `count_blocks` calls: the example blocks it matches, which shows that
    the size took effect."""
    saved = evaluation.PAIR_BLOCK, boxes.EXAMPLE_BLOCK
    calls = []

    def recording_count_blocks(counts, block):
        calls.append((block, list(count_blocks(counts, block))))
        return iter(calls[-1][1])

    evaluation.PAIR_BLOCK, boxes.EXAMPLE_BLOCK = pair_block, example_block
    evaluation.count_blocks = recording_count_blocks
    try:
        return evaluate(preds, gts, cfg), calls
    finally:
        evaluation.PAIR_BLOCK, boxes.EXAMPLE_BLOCK = saved
        evaluation.count_blocks = count_blocks


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(tiny_gts, tiny_preds, st.sampled_from([1, 2, 5]), st.sampled_from([0.1, 0.5]))
    def test_evaluate_equals_brute_force_on_lists_and_tables(self, gts, pairs, top_k, iou_min):
        # Coarse grids give full ties within and across examples, IoU
        # exactly at iou_min and TTC errors exactly at the tolerance.
        preds = preds_of(pairs)
        cfg = EvalConfig(iou_min=iou_min, ttc_max_error=0.25, top_k=top_k)
        slow = brute_force_evaluate(preds, gts, cfg)
        for given_preds in (preds, {u: as_table(hyps) for u, hyps in preds.items()}):
            assert_as_oracle(evaluate(given_preds, gts, cfg), slow)

    @settings(max_examples=200, deadline=None)
    @given(tiny_gts, tiny_preds, st.sampled_from([1, 2, 5]), st.sampled_from([1, 7, 1 << 17]),
           st.sampled_from([1, 7, 1 << 17]))
    def test_blocks_do_not_change_the_report(self, gts, pairs, top_k, block, example_block):
        preds = preds_of(pairs)
        cfg = EvalConfig(iou_min=0.1, top_k=top_k)
        blocked, calls = evaluate_in_blocks(preds, gts, cfg, block, example_block)
        ((size, cut),) = calls
        assert size == example_block
        n_examples = len(set(preds) | {g.example_uid for g in gts})
        assert [start for start, _ in cut] + [n_examples] == [0] + [stop for _, stop in cut]
        if example_block == 1:
            assert len(cut) == n_examples
        assert blocked == evaluate(preds, gts, cfg)
        assert_as_oracle(blocked, brute_force_evaluate(preds, gts, cfg))


def crowded_instance(n_examples: int, n_preds: int = 100, n_gts: int = 8, seed: int = 0):
    """A score-like instance built from numpy columns: each example has
    n_gts annotations over 128 nouns and 81 verbs, and n_preds hypotheses
    jittered around them, each with the right noun and the right verb
    with probability 0.7."""
    rng = np.random.default_rng(seed)
    uids = [f"ex{i:04d}" for i in range(n_examples)]
    n = n_examples * n_gts
    corner = rng.uniform(0.0, 1600.0, (n, 2))
    gt_boxes = np.hstack([corner, corner + rng.uniform(40.0, 300.0, (n, 2))])
    gt_noun, gt_verb, gt_ttc = rng.integers(0, 128, n), rng.integers(0, 81, n), rng.uniform(0.0, 2.0, n)
    gts = GroundTruthTable(uid=np.repeat(uids, n_gts).tolist(), boxes=gt_boxes, noun=gt_noun, verb=gt_verb,
                           ttc=gt_ttc)
    preds = {}
    for e, uid in enumerate(uids):
        of = e * n_gts + rng.integers(0, n_gts, n_preds)
        boxes = gt_boxes[of] + rng.normal(0.0, 15.0, (n_preds, 4))
        right = rng.random((2, n_preds)) < 0.7
        preds[uid] = sort_canonical(HypothesisTable(
            boxes=np.hstack([np.minimum(boxes[:, :2], boxes[:, 2:]), np.maximum(boxes[:, :2], boxes[:, 2:])]),
            noun=np.where(right[0], gt_noun[of], rng.integers(0, 128, n_preds)),
            verb=np.where(right[1], gt_verb[of], rng.integers(0, 81, n_preds)),
            ttc=np.abs(gt_ttc[of] + rng.normal(0.0, 0.2, n_preds)),
            score=rng.uniform(0.01, 1.0, n_preds),
        ))
    return preds, gts


class TestBoundedMemory:
    @pytest.mark.parametrize("block", [1, 7, 1 << 17])
    def test_blocks_do_not_change_a_crowded_report(self, block):
        # Each example has 108 rows: blocks of 1 or 7 take them one at a time.
        preds, gts = crowded_instance(40)
        for top_k in (5, 100):
            cfg = EvalConfig(top_k=top_k)
            blocked, calls = evaluate_in_blocks(preds, gts, cfg, block, block)
            assert [(size, len(cut)) for size, cut in calls] == [(block, 1 if block == 1 << 17 else 40)]
            assert blocked.to_dict() == evaluate(preds, gts, cfg).to_dict()

    # On this instance (100k hypotheses, 7.75 MB of tables) the peak was
    # 3.15x the tables at top-k 100 and 1.24x at top-5 while evaluate
    # copied each example's sorted top-k and then all of them; 1.57x and
    # 0.73x with one ranking, the kept rows' columns gathered alone and the
    # pairs in blocks of 2^14; and 0.62x and 0.55x with the pairs, corners,
    # ids and TTCs made one block of whole examples at a time.
    @pytest.mark.parametrize("top_k, bound", [(100, 1.0), (5, 0.75)], ids=["100", "5"])
    def test_peak_allocation_within_a_multiple_of_the_tables(self, top_k, bound):
        preds, gts = crowded_instance(1000)
        table_bytes = sum(getattr(table, name).nbytes for table in preds.values()
                          for name in ("boxes", "noun", "verb", "ttc", "score", "source", "has_source"))
        table_bytes += sum(column.nbytes for column in (gts.boxes, gts.noun, gts.verb, gts.ttc))
        tracemalloc.start()
        try:
            evaluate(preds, gts, EvalConfig(top_k=top_k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * table_bytes
