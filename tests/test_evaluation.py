import hashlib
import json
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vista import boxes, evaluation, io_formats
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
from vista.cli import EXIT_OK, EXIT_VALIDATION, main
from vista.io_formats import SubmissionFile, _load_json, predictions_from_dict, write_ground_truth, write_submission
from vista.oracle import _iou_scalar, brute_force_evaluate
from vista.rng import CounterRng
from vista.synth import NoiseConfig, generate_scenario, perturb_to_predictions
from vista.types import (
    GroundTruthInstance,
    GroundTruthTable,
    HypothesisTable,
    StaHypothesis,
    Taxonomy,
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
    to example_block, and the example blocks it matches, in order, each as
    the count of each of its examples, hypotheses plus ground truths,
    checked to be `count_blocks`' cut at example_block of the examples in
    the order they came, which shows that the size took effect."""
    saved = evaluation.PAIR_BLOCK, boxes.EXAMPLE_BLOCK
    blocks = []
    match = evaluation._match_block

    def recording_match_block(tables, sizes, g, gt_code, *rest):
        blocks.append((sizes + np.bincount(gt_code, minlength=len(sizes))).tolist())
        return match(tables, sizes, g, gt_code, *rest)

    evaluation.PAIR_BLOCK, boxes.EXAMPLE_BLOCK = pair_block, example_block
    evaluation._match_block = recording_match_block
    try:
        report = evaluate(preds, gts, cfg)
    finally:
        evaluation.PAIR_BLOCK, boxes.EXAMPLE_BLOCK = saved
        evaluation._match_block = match
    counts = np.array([count for block in blocks for count in block], dtype=np.int64)
    assert [stop - start for start, stop in count_blocks(counts, example_block)] == list(map(len, blocks))
    return report, blocks


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
        blocked, blocks = evaluate_in_blocks(preds, gts, cfg, block, example_block)
        # Every example with predictions is matched once; one with ground truth alone keeps no row.
        assert sum(map(len, blocks)) == len(preds)
        if example_block == 1:
            assert len(blocks) == len(preds)
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


CROWDED_TAXONOMY = Taxonomy(tuple(f"n{i}" for i in range(128)), tuple(f"v{i}" for i in range(81)))


def rounded_scores(preds):
    """The predictions with every score rounded to two decimals, in
    canonical order: ties in score within and across examples."""
    return {uid: sort_canonical(HypothesisTable(boxes=t.boxes, noun=t.noun, verb=t.verb, ttc=t.ttc,
                                                score=np.round(t.score, 2)))
            for uid, t in preds.items()}


class TestTiedScores:
    """Pins the report `vista evaluate` writes when scores tie, within one
    example and across examples of one noun class, so that each class's
    order on ties, canonical with the uid last, holds bit for bit. The
    digests were recorded with one ranking of every row of the submission,
    before evaluate ranked blocks of whole examples on their own."""

    GOLDEN = {
        5: "ee3478eebd0f1cff08f0773615c6bbb07656bb76f7b7e035b71ed68a8365b656",
        100: "704bf2c9be9503a5bc98627ce37486ac7e8e7303434657d3f4294cccf3d34c7c",
    }

    @pytest.fixture(scope="class")
    def instance(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("tied")
        preds, gts = crowded_instance(200)
        preds = rounded_scores(preds)
        write_ground_truth(CROWDED_TAXONOMY, gts, root / "gt.json")
        write_submission(preds, root / "sub.json")
        return root, preds

    def test_instance_ties_within_and_across_examples(self, instance):
        _, preds = instance
        keys = [(uid, noun, score) for uid, t in preds.items() for noun, score in zip(t.noun.tolist(), t.score.tolist())]
        assert len(set(keys)) < len(keys)  # within an example
        assert len({key[1:] for key in set(keys)}) < len(set(keys))  # across examples

    @pytest.mark.parametrize("block", [1, 7, boxes.EXAMPLE_BLOCK])
    @pytest.mark.parametrize("top_k", list(GOLDEN))
    def test_report_bytes_are_pinned(self, instance, monkeypatch, top_k, block):
        root, _ = instance
        monkeypatch.chdir(root)  # relative paths keep the provenance, and so the digest, fixed
        monkeypatch.setattr(boxes, "EXAMPLE_BLOCK", block)
        out = f"top{top_k}_block{block}"
        assert main(["evaluate", "gt.json", "sub.json", "--top-k", str(top_k), "--out", out]) == EXIT_OK
        assert hashlib.sha256((root / out / "report.json").read_bytes()).hexdigest() == self.GOLDEN[top_k]


class TestTopKBeyondInt64:
    """A top_k beyond int64 keeps every row, as a top_k of the largest
    example's row count does, given to evaluate or as the flag."""

    @staticmethod
    def instance():
        """Examples of 1 to 96 rows, with tied scores."""
        preds, gts = crowded_instance(20)
        return {uid: table.head(1 + 5 * e) for e, (uid, table) in enumerate(rounded_scores(preds).items())}, gts

    @pytest.mark.parametrize("top_k", [2**63, 10**30])
    def test_evaluate(self, top_k):
        preds, gts = self.instance()
        largest = max(map(len, preds.values()))
        assert largest == 96
        assert (evaluate(preds, gts, EvalConfig(top_k=top_k)).to_dict()
                == evaluate(preds, gts, EvalConfig(top_k=largest)).to_dict())

    def test_flag(self, tmp_path):
        preds, gts = self.instance()
        write_ground_truth(CROWDED_TAXONOMY, gts, tmp_path / "gt.json")
        write_submission(preds, tmp_path / "sub.json")
        for top_k in (2**63, 96):
            assert main(["evaluate", str(tmp_path / "gt.json"), str(tmp_path / "sub.json"), "--top-k", str(top_k),
                         "--out", str(tmp_path / str(top_k))]) == EXIT_OK
        assert (tmp_path / str(2**63) / "report.txt").read_bytes() == (tmp_path / "96" / "report.txt").read_bytes()


class TestBoundedMemory:
    @pytest.mark.parametrize("block", [1, 7, 1 << 17])
    def test_blocks_do_not_change_a_crowded_report(self, block):
        # Each example has 108 rows: blocks of 1 or 7 take them one at a time.
        preds, gts = crowded_instance(40)
        for top_k in (5, 100):
            cfg = EvalConfig(top_k=top_k)
            blocked, blocks = evaluate_in_blocks(preds, gts, cfg, block, block)
            assert len(blocks) == (1 if block == 1 << 17 else 40)
            assert blocked.to_dict() == evaluate(preds, gts, cfg).to_dict()

    # On this instance (100k hypotheses, 7.75 MB of tables) the peak was
    # 3.15x the tables at top-k 100 and 1.24x at top-5 while evaluate
    # copied each example's sorted top-k and then all of them; 1.57x and
    # 0.73x with one ranking, the kept rows' columns gathered alone and the
    # pairs in blocks of 2^14; 0.62x and 0.44x with the pairs, corners,
    # ids and TTCs made one block of whole examples at a time; and 0.36x
    # and 0.08x with each block ranked on its own and only each kept row's
    # class, score and flags held. With the scores rounded to two
    # decimals, nearly every kept row ties in class and score with
    # another, and the keys that order them are gathered for those rows:
    # 1.44x and 0.15x, against the 1.564x that one ranking of every row
    # took at both top-k. With the predictions held as runs (a dict of
    # tables coerced to one run per uid), each block's views and columns
    # freed before the next, and the tied rows found without a sort:
    # 0.363x, 0.088x, 1.247x and 0.157x. The bounds are those plus 25%.
    # With the runs walked in the order they come, each block matched as
    # it is pooled, and the tied rows' keys, their uid's rank too,
    # gathered by a second walk: 0.385x, 0.086x, 1.277x and 0.177x.
    @pytest.mark.parametrize("top_k, tied, bound", [(100, False, 0.454), (5, False, 0.11), (100, True, 1.559),
                                                    (5, True, 0.196)], ids=["100", "5", "100-tied", "5-tied"])
    def test_peak_allocation_within_a_multiple_of_the_tables(self, top_k, tied, bound):
        preds, gts = crowded_instance(1000)
        if tied:
            preds = rounded_scores(preds)
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

    # tracemalloc does not see numpy's sort scratch buffers, so the traced
    # bounds above would not catch a sort of every kept row coming back.
    # Here each sort is counted instead: on this instance (8,000 ground
    # truths, 100,000 kept rows) the largest is the ground truths' and a
    # block's are at most 3,700. With the scores rounded, 99,937 kept rows
    # tie in class and score with another, in 12,727 runs of at most 22
    # rows; they are sorted a piece of whole runs at a time.
    def test_no_sort_is_larger_than_a_block_or_the_ground_truths(self, monkeypatch):
        preds, gts = crowded_instance(1000)
        tied = rounded_scores(preds)
        nouns = set(gts.noun.tolist())
        runs = Counter((noun if noun in nouns else -1, score) for table in tied.values()
                       for noun, score in zip(table.noun.tolist(), table.score.tolist()))
        for instance, largest_run in ((preds, 1), (tied, max(runs.values()))):
            sorted_sizes = []
            for name in ("argsort", "lexsort", "sort"):
                def counted(keys, *args, _name=name, _sort=getattr(np, name), **kwargs):
                    sorted_sizes.append(len(keys[0]) if _name == "lexsort" else np.size(keys))
                    return _sort(keys, *args, **kwargs)
                monkeypatch.setattr(np, name, counted)
            evaluate(instance, gts, EvalConfig(top_k=100))
            monkeypatch.undo()
            assert sorted_sizes and max(sorted_sizes) <= max(len(gts), boxes.EXAMPLE_BLOCK, largest_run)


def results_text(preds: dict, order: list[str]) -> str:
    """A submission document of preds, its uids written in `order` and
    each uid's rows in their table's order, not as `write_submission`
    sorts them."""
    return json.dumps({"results": {uid: [
        {"box": box, "noun_category_id": noun, "verb_category_id": verb, "time_to_contact": ttc, "score": score}
        for box, noun, verb, ttc, score in zip(preds[uid].boxes.tolist(), preds[uid].noun.tolist(),
                                               preds[uid].verb.tolist(), preds[uid].ttc.tolist(),
                                               preds[uid].score.tolist())] for uid in order}}, indent=1)


def walked(path, gts, cfg, walks: list | None = None):
    """evaluate of the submission at path as `vista evaluate` reads it,
    appending to `walks` each walk of the file."""
    with SubmissionFile(path) as source:
        if walks is not None:
            walk = source.walk
            source.walk = lambda start: walks.append(1) or walk(start)
        return evaluate(source, gts, cfg)


class TestStreamedEvaluation:
    """`evaluate` of a `SubmissionFile` matches each block of examples as
    the file is read, keeps only what it scores of each kept row, and
    orders tied rows from a second walk of the file."""

    # What a kept row holds, which the peak may grow by: its class (2
    # bytes for 128 nouns), score, four TP flags and place in the classes'
    # order. The slack covers what grows with the ground truth (about 60
    # bytes an annotation), which the caller holds anyway.
    KEPT_ROW_BYTES = 2 + 8 + 4 + 8
    SLACK = 256 * 1024

    @pytest.mark.parametrize("top_k", [5, 100])
    def test_peak_grows_by_the_kept_rows_alone(self, tmp_path, top_k):
        # 300 more examples of 100 rows: 2.2 MB more of columns, had they
        # been held; 0.18 MB (top-5) and 0.55 MB (top-100) more at the peak.
        peaks = []
        for n in (100, 400):
            preds, gts = crowded_instance(n)
            path = tmp_path / f"sub{n}.json"
            write_submission(preds, path)
            del preds
            tracemalloc.start()
            try:
                walked(path, gts, EvalConfig(top_k=top_k))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 300 * min(top_k, 100) * self.KEPT_ROW_BYTES + self.SLACK, peaks

    @staticmethod
    def tied_instance():
        """Eight small examples with scores rounded to one decimal, the
        last a copy of the first under its own uid: ties in class and score
        within and across examples, and full ties across two examples. Few
        enough rows per class for the oracle."""
        preds, gts = crowded_instance(8, n_preds=6, n_gts=3, seed=4)
        preds = {uid: HypothesisTable(boxes=t.boxes, noun=t.noun, verb=t.verb, ttc=t.ttc,
                                      score=np.maximum(np.round(t.score, 1), 0.1)) for uid, t in preds.items()}
        preds["ex0007"] = preds["ex0000"]
        return preds, gts

    @staticmethod
    def objects(preds, gts):
        """The instance as the oracle takes it: lists of StaHypothesis and GroundTruthInstance."""
        return ({uid: [StaHypothesis(Box2D(*box), noun, verb, ttc, score) for box, noun, verb, ttc, score in zip(
            t.boxes.tolist(), t.noun.tolist(), t.verb.tolist(), t.ttc.tolist(), t.score.tolist())]
            for uid, t in preds.items()},
            [GroundTruthInstance(uid, Box2D(*box), noun, verb, ttc) for uid, box, noun, verb, ttc in zip(
                gts.uid, gts.boxes.tolist(), gts.noun.tolist(), gts.verb.tolist(), gts.ttc.tolist())])

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_tied_rows_out_of_uid_order_score_as_the_dict_and_the_oracle(self, tmp_path, monkeypatch, source):
        # Chunks of 512 bytes read an example or two at a time, and blocks
        # of 20 hypotheses and ground truths take one to three examples.
        if source == "pipe" and not os.path.isdir("/dev/fd"):
            pytest.skip("needs /dev/fd")
        preds, gts = self.tied_instance()
        order = ["ex0005", "ex0007", "ex0001", "ex0000", "ex0003", "ex0006", "ex0002", "ex0004"]
        data = results_text(preds, order).encode()
        assert len(data) < 16384  # it fits in a pipe's buffer
        monkeypatch.setattr(io_formats, "_CHUNK", 512)
        monkeypatch.setattr(boxes, "EXAMPLE_BLOCK", 20)
        path = tmp_path / "sub.json"
        path.write_bytes(data)
        read_end = None
        if source == "pipe":
            read_end, write_end = os.pipe()
            os.write(write_end, data)
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
        for top_k in (1, 5):
            cfg = EvalConfig(top_k=top_k)
            walks = []
            try:
                report = walked(path, gts, cfg, walks)
            finally:
                if read_end is not None:
                    os.close(read_end)
                    read_end = None
            assert walks == [1, 1]  # the second walk orders the ties
            assert report.to_dict() == evaluate(preds, gts, cfg).to_dict()
            assert_as_oracle(report, brute_force_evaluate(*self.objects(preds, gts), cfg))
            if source == "pipe":
                break

    def test_a_uid_repeated_after_the_first_chunk_scores_as_the_whole_document(self, tmp_path, monkeypatch):
        # The walk matches blocks of the first uids before it meets the
        # repeat; the whole parse keeps the last value, and the evaluation
        # starts again from it, so the walk's blocks never reach the report.
        preds, gts = crowded_instance(30, n_preds=20)
        path = tmp_path / "sub.json"
        path.write_text(results_text(preds, sorted(preds)).replace('"ex0029"', '"ex0002": [],\n "ex0029"'))
        monkeypatch.setattr(io_formats, "_CHUNK", 4096)
        monkeypatch.setattr(boxes, "EXAMPLE_BLOCK", 64)
        assert path.stat().st_size > 20 * 4096
        matched = []
        init = evaluation._Matched.__init__
        monkeypatch.setattr(evaluation._Matched, "__init__", lambda self, *args: matched.append(self) or init(self, *args))
        whole = predictions_from_dict(_load_json(path), path)
        assert len(whole["ex0002"]) == 0
        for top_k in (5, 100):
            matched.clear()
            cfg = EvalConfig(top_k=top_k)
            report = walked(path, gts, cfg)
            assert len(matched) == 2 and len(matched[0].cls) > 0  # blocks matched before the restart
            assert report.to_dict() == evaluate(whole, gts, cfg).to_dict()

    @pytest.mark.parametrize("rewrite", ["scores", "a repeated uid"])
    def test_a_file_rewritten_between_the_walks_exits_2(self, tmp_path, monkeypatch, capsys, rewrite):
        preds, gts = self.tied_instance()
        write_ground_truth(CROWDED_TAXONOMY, gts, tmp_path / "gt.json")
        path = tmp_path / "sub.json"
        text = results_text(preds, sorted(preds))
        path.write_text(text)
        if rewrite == "scores":
            changed = text.replace('"score": 0.', '"score": 0.0')  # every score divided by ten
        else:
            changed = text.replace('"ex0001"', '"ex0000"')
        walk = SubmissionFile.walk

        def rewriting_walk(source, start):
            if walks:
                path.write_text(changed)
            walks.append(1)
            return walk(source, start)

        walks = []
        monkeypatch.setattr(SubmissionFile, "walk", rewriting_walk)
        assert main(["evaluate", str(tmp_path / "gt.json"), str(path), "--out", str(tmp_path / "out")]) == (
            EXIT_VALIDATION)
        assert walks == [1, 1]
        assert capsys.readouterr().err == f"error: {path}: changed while it was read\n"
