"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so the whole gate can be read off `pytest -s
tests/test_acceptance.py`.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from vista.boxes import Box2D
from vista.ensemble import EnsembleConfig, ensemble_predictions, group_hypotheses, merge_group
from vista.errors import ValidationError
from vista.evaluation import EvalConfig, MatchVariant, evaluate
from vista.fusion import FilmParams, ProbeParams, attentive_probe, film_modulate, roi_context_fuse
from vista.io_formats import (
    load_ground_truth,
    load_predictions,
    read_tensor_file,
    write_ground_truth,
    write_submission,
    write_tensor_file,
)
from vista.oracle import _iou_scalar, brute_force_evaluate
from vista.postprocess import (
    InferenceConfig,
    class_aware_nms,
    expand_hypotheses,
    finalize_submission,
    proposals_from_tensors,
    ttc_from_raw,
)
from vista.rng import CounterRng
from vista.synth import NoiseConfig, generate_scenario, perturb_to_predictions
from vista.types import GroundTruthInstance, StaHypothesis, as_gt_table, as_table

from test_ensemble import compatible
from test_evaluation import matches
from test_fusion import probe_oracle, rand_array, zero_residual_mlp
from test_postprocess import TAXONOMY, chain, columns, make_hypothesis, make_tensors, row_set, table_of

CFG = EvalConfig()


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def tiny_instance(seed):
    """Random instance small enough for the brute-force oracle:
    <= 5 examples, <= 4 noun classes, <= 6 predictions per class."""
    rng = CounterRng(seed, stream=99)
    n_examples = 1 + rng.randint(5)
    gts_per_example = 1 if n_examples > 3 else 1 + rng.randint(2)
    taxonomy, gts = generate_scenario(
        n_examples=n_examples,
        n_nouns=1 + rng.randint(4),
        n_verbs=1 + rng.randint(3),
        gts_per_example=gts_per_example,
        seed=seed,
    )
    noise = NoiseConfig(
        box_jitter_sigma=rng.uniform(0, 60),
        label_flip_prob=rng.uniform(0, 0.4),
        verb_flip_prob=rng.uniform(0, 0.4),
        ttc_noise_sigma=rng.uniform(0, 0.4),
        drop_prob=rng.uniform(0, 0.3),
        seed=seed,
    )
    preds = perturb_to_predictions(taxonomy, gts, noise, 1)[0]
    return preds, gts


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence on 200 tiny instances"):
        start = time.perf_counter()
        for seed in range(200):
            preds, gts = tiny_instance(seed)
            fast = evaluate(preds, gts, CFG)
            slow = brute_force_evaluate(preds, gts, CFG)
            for variant in MatchVariant:
                assert abs(fast.variant_map(variant) - slow.variant_map(variant)) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_protocol_fidelity():
    with criterion(2, "matching-rule fidelity"):
        g = GroundTruthInstance("ex", Box2D(0, 0, 10, 10), 0, 0, 1.0)
        # IoU exactly 0.5 must not match (strict inequality)
        half = StaHypothesis(Box2D(0, 0, 10, 5), 0, 0, 1.0, 0.9)
        assert _iou_scalar(half.box, g.box) == pytest.approx(0.5)
        assert all(not matches(half, g, v, CFG) for v in MatchVariant)
        # TTC error 0.30 fails only the TTC-constrained variants
        late = StaHypothesis(Box2D(0, 0, 10, 10), 0, 0, 1.30, 0.9)
        assert matches(late, g, MatchVariant.NOUN, CFG)
        assert matches(late, g, MatchVariant.NOUN_VERB, CFG)
        assert not matches(late, g, MatchVariant.NOUN_TTC, CFG)
        assert not matches(late, g, MatchVariant.OVERALL, CFG)
        # perfect copies score 100.00 everywhere
        taxonomy, gts = generate_scenario(4, 3, 3, 2, seed=77)
        perfect = perturb_to_predictions(taxonomy, gts, NoiseConfig(seed=77), 1)[0]
        report = evaluate(perfect, gts, CFG)
        for variant in MatchVariant:
            assert report.variant_map(variant) == 100.0


def test_criterion_3_metric_nesting():
    with criterion(3, "metric nesting Overall <= min(N+V, N+TTC) <= Noun"):
        for seed in range(60):
            preds, gts = tiny_instance(seed)
            r = evaluate(preds, gts, CFG)
            assert r.map_overall <= min(r.map_noun_verb, r.map_noun_ttc) + 1e-9
            assert max(r.map_noun_verb, r.map_noun_ttc) <= r.map_noun + 1e-9


def test_criterion_4_noise_monotonicity():
    with criterion(4, "box-jitter monotonicity over 20 seeds"):
        monotone = 0
        for seed in range(1, 21):
            taxonomy, gts = generate_scenario(6, 5, 4, 2, seed=seed)
            curve = []
            for sigma in (0.0, 10.0, 40.0, 120.0):
                noise = NoiseConfig(box_jitter_sigma=sigma, seed=seed)
                preds = perturb_to_predictions(taxonomy, gts, noise, 1)[0]
                curve.append(evaluate(preds, gts, CFG).map_overall)
            assert curve[0] == 100.0, f"seed {seed}: zero noise gave {curve[0]}"
            if all(a >= b - 1e-9 for a, b in zip(curve, curve[1:])):
                monotone += 1
        assert monotone >= 19, f"monotone in only {monotone}/20 seeds"


def test_criterion_5_postprocessing_chain(tmp_path):
    with criterion(5, "post-processing chain: idempotence, determinism, caps"):
        # NMS idempotence on 1000 random hypothesis sets
        for seed in range(1000):
            rng = CounterRng(50_000 + seed)
            hyps = [make_hypothesis(rng) for _ in range(2 + rng.randint(18))]
            once = class_aware_nms(table_of(hyps), 0.5, len(hyps))
            assert columns(class_aware_nms(once, 0.5, len(once))) == columns(once)
        # determinism under input permutation (tensor rows reversed), byte-identical exports
        rng = CounterRng(60_001)
        tensors = make_tensors(rng, 40)
        reversed_rows = {name: arr[::-1] for name, arr in tensors.items()}
        cfg = InferenceConfig(k_noun=2, k_verb=2)
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        write_submission(
            {"ex": chain(tensors, cfg)}, a_path
        )
        write_submission(
            {"ex": chain(reversed_rows, cfg)}, b_path
        )
        assert a_path.read_bytes() == b_path.read_bytes()
        # proposal cap of 300
        many = proposals_from_tensors(make_tensors(rng, 350))
        capped = expand_hypotheses(many, TAXONOMY, InferenceConfig(k_noun=1, k_verb=1))
        assert len(capped) == 300
        # export cap of 100
        surplus = table_of([make_hypothesis(rng) for _ in range(250)])
        assert len(finalize_submission(surplus, 100)) == 100


def test_criterion_6_fusion_kernels():
    with criterion(6, "fusion kernels vs scalar oracles on 100 random shapes"):
        for trial in range(100):
            rng = CounterRng(70_000 + trial)
            t = 1 + rng.randint(6)
            d_in = 1 + rng.randint(6)
            d_att = 1 + rng.randint(4)
            d_out = 1 + rng.randint(4)
            params = ProbeParams(
                rand_array(rng, d_in, d_att),
                rand_array(rng, d_in, d_out),
                rand_array(rng, d_att),
            )
            seq = rand_array(rng, t, d_in)
            token, weights = attentive_probe(seq, params)
            exp_token, exp_weights = probe_oracle(seq, params)
            assert abs(weights.sum() - 1.0) < 1e-6
            np.testing.assert_allclose(weights, exp_weights, atol=1e-9)
            np.testing.assert_allclose(token, exp_token, atol=1e-9)
            perm = np.arange(t)
            np.random.default_rng(trial).shuffle(perm)
            token_p, _ = attentive_probe(seq[perm], params)
            np.testing.assert_allclose(token_p, token, atol=1e-6)

            # FiLM identity parameters are bit-exact
            c = 1 + rng.randint(4)
            fmap = rand_array(rng, c, 2, 2)
            identity = FilmParams(
                gamma_proj=np.zeros((d_out, c)),
                gamma_bias=np.ones(c),
                beta_proj=np.zeros((d_out, c)),
                beta_bias=np.zeros(c),
            )
            assert np.array_equal(film_modulate(fmap, token, identity), fmap)

            # zero-residual context MLP is an exact identity
            d_roi = 1 + rng.randint(5)
            roi = rand_array(rng, d_roi)
            fused = roi_context_fuse(roi, token, zero_residual_mlp(d_roi, d_out))
            assert np.array_equal(fused, roi)


def test_criterion_7_ensemble_sanity():
    with criterion(7, "ensemble: rank preservation, hulls, grouping trace"):
        # N identical sources preserve single-source ranking
        taxonomy, gts = generate_scenario(4, 3, 3, 3, seed=31)
        noise = NoiseConfig(box_jitter_sigma=15, ttc_noise_sigma=0.1, seed=31)
        src = {uid: as_table(hyps) for uid, hyps in perturb_to_predictions(taxonomy, gts, noise, 1)[0].items()}
        single = ensemble_predictions([src])
        quad = ensemble_predictions([src] * 4)
        for uid in single:
            assert single[uid].noun.tolist() == quad[uid].noun.tolist()
            assert single[uid].verb.tolist() == quad[uid].verb.tolist()
            for a, b in zip(single[uid].boxes.tolist(), quad[uid].boxes.tolist()):
                assert a == pytest.approx(b, abs=1e-9)
        # merged members stay in the convex hull / ttc interval
        for seed in range(30):
            rng = CounterRng(80_000 + seed)
            base = make_hypothesis(rng)
            members = [base] + [
                StaHypothesis(
                    Box2D(
                        base.box.x1 + rng.uniform(-3, 3),
                        base.box.y1 + rng.uniform(-3, 3),
                        base.box.x2 + rng.uniform(-3, 3),
                        base.box.y2 + rng.uniform(-3, 3),
                    ),
                    base.noun_id,
                    base.verb_id,
                    max(0.0, base.ttc + rng.uniform(-0.2, 0.2)),
                    rng.uniform(0.01, 1.0),
                    source_id=s,
                )
                for s in range(1, 4)
            ]
            groups = group_hypotheses(as_table(members))
            merged, _ = merge_group(groups, 4)
            for g, box, ttc in zip(groups, merged.boxes.tolist(), merged.ttc.tolist(), strict=True):
                for i in range(4):
                    corners = g.members.boxes[:, i].tolist()
                    assert min(corners) - 1e-9 <= box[i] <= max(corners) + 1e-9
                ttcs = g.members.ttc.tolist()
                assert min(ttcs) - 1e-9 <= ttc <= max(ttcs) + 1e-9
        # three-hypothesis greedy-grouping trace: A~B, B~C, A!~C
        cfg = EnsembleConfig(box_iou_min=0.3)
        a = StaHypothesis(Box2D(0, 0, 10, 10), 0, 0, 1.0, 0.9)
        b = StaHypothesis(Box2D(4, 0, 14, 10), 0, 0, 1.0, 0.6)
        c = StaHypothesis(Box2D(8, 0, 18, 10), 0, 0, 1.0, 0.3)
        assert compatible(a, b, cfg) and compatible(b, c, cfg) and not compatible(a, c, cfg)
        groups = group_hypotheses(as_table([a, b, c]), cfg)
        assert [row_set(g.members) for g in groups] == [row_set(as_table([a, b])), row_set(as_table([c]))]


def test_criterion_8_softplus_ttc():
    with criterion(8, "softplus TTC head behavior"):
        assert abs(ttc_from_raw(0.0) - math.log(2.0)) < 1e-12
        assert ttc_from_raw(750.0) == pytest.approx(750.0)
        assert ttc_from_raw(-750.0) >= 0.0
        rng = CounterRng(90_000)
        for _ in range(500):
            raw = rng.uniform(-750.0, 750.0)
            value = ttc_from_raw(raw)
            assert math.isfinite(value) and value >= 0.0


def test_criterion_9_io_round_trips(tmp_path):
    with criterion(9, "I/O round trips and structured failures"):
        for seed in range(50):
            taxonomy, gts = generate_scenario(2 + seed % 3, 3, 3, 2, seed=seed)
            noise = NoiseConfig(box_jitter_sigma=10, ttc_noise_sigma=0.1, seed=seed)
            preds = perturb_to_predictions(taxonomy, gts, noise, 1)[0]

            g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
            write_ground_truth(taxonomy, as_gt_table(gts), g1)
            t2, gts2 = load_ground_truth(g1)
            write_ground_truth(t2, gts2, g2)
            assert g1.read_bytes() == g2.read_bytes()

            s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
            write_submission({uid: as_table(hyps) for uid, hyps in preds.items()}, s1)
            write_submission(load_predictions(s1), s2)
            assert s1.read_bytes() == s2.read_bytes()

            rng = CounterRng(seed, stream=5)
            tensors = {
                f"t{i}": np.array(
                    [rng.gaussian() for _ in range(8)], dtype=np.float32
                ).reshape(2, 4)
                for i in range(3)
            }
            v1, v2 = tmp_path / "v1.vstf", tmp_path / "v2.vstf"
            write_tensor_file(tensors, v1)
            write_tensor_file(read_tensor_file(v1), v2)
            assert v1.read_bytes() == v2.read_bytes()

        # malformed inputs fail with structured errors, never partial values
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{ nope")
        with pytest.raises(ValidationError):
            load_predictions(bad_json)
        bad_tensor = tmp_path / "bad.vstf"
        bad_tensor.write_bytes(b"VSTF" + b"\x01\x00\x00\x00" + b"\x40\x00\x00\x00")
        with pytest.raises(ValidationError):
            read_tensor_file(bad_tensor)


def test_criterion_10_performance_floor():
    with criterion(10, "10k predictions vs 1k ground truths under 1 s"):
        n_examples, gts_per_example = 250, 4   # 1000 ground truths
        taxonomy, gts = generate_scenario(n_examples, 200, 10, gts_per_example, seed=3)
        noise = NoiseConfig(box_jitter_sigma=20, label_flip_prob=0.1, seed=3)
        sources = perturb_to_predictions(taxonomy, gts, noise, 10)
        preds = {}
        for src in sources:
            for uid, hyps in src.items():
                preds.setdefault(uid, []).extend(hyps)
        total = sum(len(v) for v in preds.values())
        assert total == 10_000, f"built {total} predictions"
        start = time.perf_counter()
        report = evaluate(preds, gts, CFG)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"evaluation took {elapsed:.2f}s"
        assert 0.0 <= report.map_overall <= 100.0
