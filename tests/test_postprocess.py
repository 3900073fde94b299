import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vista.boxes as boxes
import vista.postprocess as postprocess
from vista.boxes import Box2D, pair_iou
from vista.errors import ValidationError
from vista.io_formats import read_tensor_file, write_tensor_file
from vista.oracle import _iou_scalar
from vista.postprocess import (
    BOX_DELTA_CLAMP,
    InferenceConfig,
    RankedHypotheses,
    apply_box_deltas,
    class_aware_nms,
    expand_hypotheses,
    finalize_submission,
    nms_block,
    postprocess_container,
    proposals_from_tensors,
    softmax,
    ttc_column,
    ttc_from_raw,
)
from vista.rng import CounterRng
from vista.types import (
    HypothesisTable,
    StaHypothesis,
    Taxonomy,
    as_table,
    sort_canonical,
)

TAXONOMY = Taxonomy(
    noun_names=("cup", "knife", "plank", "pan"),
    verb_names=("take", "cut", "place"),
)


def make_tensors(rng, n_proposals, n_nouns=4, n_verbs=3):
    """Head-output tensors of n_proposals random proposals, one row each."""
    boxes, objectness, noun_logits, verb_logits, deltas, ttc_raw, quality = ([] for _ in range(7))
    for _ in range(n_proposals):
        x1 = rng.uniform(0, 500)
        y1 = rng.uniform(0, 300)
        boxes.append([x1, y1, x1 + rng.uniform(10, 200), y1 + rng.uniform(10, 150)])
        objectness.append(rng.uniform(0.05, 1.0))
        noun_logits.append([rng.gaussian() for _ in range(n_nouns)])
        verb_logits.append([rng.gaussian() for _ in range(n_verbs)])
        deltas.append([[rng.gaussian(0, 0.1) for _ in range(4)] for _ in range(n_nouns)])
        ttc_raw.append(rng.gaussian())
        quality.append(rng.uniform(0.05, 1.0))
    return {
        "proposal_boxes": np.array(boxes).reshape(-1, 4),
        "objectness": np.array(objectness),
        "noun_logits": np.array(noun_logits).reshape(-1, n_nouns),
        "verb_logits": np.array(verb_logits).reshape(-1, n_verbs),
        "box_deltas": np.array(deltas).reshape(-1, n_nouns, 4),
        "ttc_raw": np.array(ttc_raw),
        "quality": np.array(quality),
    }


def rows(tensors, index):
    """The proposals of a tensor dict selected by index, in that order."""
    return {name: arr[index] for name, arr in tensors.items()}


def expand(tensors, cfg=InferenceConfig()):
    """Every expanded row, as one table in canonical order."""
    ranked = expand_hypotheses(proposals_from_tensors(tensors), TAXONOMY, cfg)
    return ranked.head(len(ranked))


def chain(tensors, cfg=InferenceConfig()):
    return class_aware_nms(expand_hypotheses(proposals_from_tensors(tensors), TAXONOMY, cfg),
                           cfg.nms_iou, cfg.max_exports)


def make_hypothesis(rng, n_nouns=4, n_verbs=3):
    x1 = rng.uniform(0, 400)
    y1 = rng.uniform(0, 400)
    return StaHypothesis(
        box=Box2D(x1, y1, x1 + rng.uniform(5, 120), y1 + rng.uniform(5, 120)),
        noun_id=rng.randint(n_nouns),
        verb_id=rng.randint(n_verbs),
        ttc=rng.uniform(0.1, 3.0),
        score=rng.uniform(0.01, 1.0),
    )


def table_of(hyps):
    """A HypothesisTable of the hypotheses, in canonical order."""
    return sort_canonical(
        HypothesisTable(
            boxes=np.array([h.box.corners() for h in hyps], dtype=np.float64).reshape(-1, 4),
            noun=[h.noun_id for h in hyps],
            verb=[h.verb_id for h in hyps],
            ttc=[h.ttc for h in hyps],
            score=[h.score for h in hyps],
        )
    )


def columns(table):
    """Every column of a table as lists, to compare tables row for row."""
    return {name: getattr(table, name).tolist()
            for name in ("boxes", "noun", "verb", "ttc", "score", "source", "has_source")}


def row_set(table):
    """The rows of a table as a set of tuples, to compare tables in any row order."""
    return set(zip(map(tuple, table.boxes.tolist()), table.noun.tolist(), table.verb.tolist(),
                   table.ttc.tolist(), table.score.tolist(), table.source.tolist(), table.has_source.tolist()))


def rank_key(h):
    """The canonical order of one hypothesis: score descending, then
    ascending noun, verb, corners and TTC."""
    return (-h.score, h.noun_id, h.verb_id, h.box.x1, h.box.y1, h.box.x2, h.box.y2, h.ttc)


def nms(hyps, nms_iou=0.5):
    """The columns of every survivor: the cap is the number of hypotheses."""
    table = table_of(hyps)
    return columns(class_aware_nms(table, nms_iou, len(table)))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_stability_under_large_logits(self):
        np.testing.assert_allclose(softmax([1000.0, 1000.0, 1000.0]), [1 / 3] * 3)

    def test_analytic_ratio(self):
        np.testing.assert_allclose(softmax([0.0, math.log(3)]), [0.25, 0.75], atol=1e-12)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValidationError):
            softmax([])
        with pytest.raises(ValidationError):
            softmax([1.0, math.inf])

    def test_leaves_a_float64_input_as_it_was(self):
        # The rows are computed in place, on a copy of an array the caller owns.
        logits = np.array([0.5, -1.0, 2.0])
        probs = softmax(logits)
        assert logits.tolist() == [0.5, -1.0, 2.0]
        assert not np.shares_memory(probs, logits)


class TestTtcFromRaw:
    def test_zero_gives_ln2(self):
        assert ttc_from_raw(0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_positive_asymptote(self):
        assert ttc_from_raw(50.0) == pytest.approx(50.0, abs=1e-9)

    def test_large_negative_stays_positive(self):
        value = ttc_from_raw(-50.0)
        assert value == pytest.approx(math.exp(-50.0), rel=1e-6)
        assert value > 0.0

    def test_no_overflow_at_extremes(self):
        assert ttc_from_raw(750.0) == pytest.approx(750.0)
        assert ttc_from_raw(-750.0) >= 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ttc_from_raw(math.inf)

    def test_column_form_is_bit_identical(self):
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 36.0, -36.0,
                 745.0, -745.0, 746.0, -746.0, 1e308, -1e308]
        draws = np.random.default_rng(7)
        raw = np.concatenate([
            edges, draws.normal(0.0, 3.0, 2000), draws.normal(0.0, 400.0, 2000),
            draws.choice([-1.0, 1.0], 2000) * 10.0 ** draws.uniform(-323.0, 308.0, 2000),
        ])
        expected = np.array([ttc_from_raw(value) for value in raw.tolist()])
        assert ttc_column(raw).tobytes() == expected.tobytes()


class TestApplyBoxDeltas:
    def test_identity_deltas(self):
        box = [[3.0, 4.0, 10.0, 12.0]]
        np.testing.assert_array_equal(apply_box_deltas(box, [[0, 0, 0, 0]]), box)

    def test_center_shift(self):
        out = apply_box_deltas([[0, 0, 2, 2]], [[0.5, 0, 0, 0]])
        np.testing.assert_array_equal(out, [[1, 0, 3, 2]])

    def test_log_size_clamp(self):
        out = apply_box_deltas([[0, 0, 2, 2]], [[0, 0, 100.0, 0]])
        assert out[0, 2] - out[0, 0] == pytest.approx(2 * math.exp(BOX_DELTA_CLAMP))

    def test_zero_size_proposal_rejected(self):
        with pytest.raises(ValidationError):
            apply_box_deltas([[1, 1, 1, 5]], [[0, 0, 0, 0]])

    def test_matches_scalar_decode_bit_for_bit(self):
        # The scalar definition: centre 0.5 * (x1 + x2), math.exp on the
        # clamped log-size delta. Sigma 0.05 puts many exp arguments where
        # a vectorised exp may round differently.
        rng = CounterRng(31)
        boxes = np.array([[rng.uniform(0, 50), rng.uniform(0, 50), 0, 0] for _ in range(400)])
        boxes[:, 2:] = boxes[:, :2] + np.array([[rng.uniform(1, 90), rng.uniform(1, 90)] for _ in range(400)])
        deltas = np.array([[rng.gaussian(0, 0.05) for _ in range(4)] for _ in range(400)])
        got = apply_box_deltas(boxes, deltas)
        for (x1, y1, x2, y2), (dx, dy, dw, dh), out in zip(boxes.tolist(), deltas.tolist(), got.tolist()):
            cx, cy, w, h = 0.5 * (x1 + x2), 0.5 * (y1 + y2), x2 - x1, y2 - y1
            cx += dx * w
            cy += dy * h
            w *= math.exp(min(dw, BOX_DELTA_CLAMP))
            h *= math.exp(min(dh, BOX_DELTA_CLAMP))
            assert out == [cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h]


class TestExpandHypotheses:
    def test_degenerate_expansion_uses_argmax(self):
        tensors = make_tensors(CounterRng(11), 1)
        cfg = InferenceConfig(k_noun=1, k_verb=1)
        hyps = expand(tensors, cfg)
        assert len(hyps) == 1
        assert hyps.noun[0] == int(np.argmax(tensors["noun_logits"][0]))
        assert hyps.verb[0] == int(np.argmax(tensors["verb_logits"][0]))

    def test_counting(self):
        tensors = make_tensors(CounterRng(12), 7)
        hyps = expand(tensors, InferenceConfig(k_noun=3, k_verb=3))
        assert len(hyps) == 9 * 7

    def test_score_is_product_of_four_factors(self):
        tensors = make_tensors(CounterRng(13), 1)
        hyps = expand(tensors, InferenceConfig(k_noun=4, k_verb=3))
        p_noun = softmax(tensors["noun_logits"][0])
        p_verb = softmax(tensors["verb_logits"][0])
        prior = tensors["objectness"][0] * tensors["quality"][0]
        for score, noun, verb in zip(hyps.score.tolist(), hyps.noun.tolist(), hyps.verb.tolist()):
            assert score == pytest.approx(prior * p_noun[noun] * p_verb[verb], abs=1e-9)

    def test_proposal_cap_by_objectness(self):
        tensors = make_tensors(CounterRng(14), 10)
        cfg = InferenceConfig(max_proposals=4, k_noun=1, k_verb=1)
        hyps = expand(tensors, cfg)
        assert len(hyps) == 4
        by_objectness = np.argsort(-tensors["objectness"], kind="stable")
        # every surviving hypothesis traces back to a top-objectness proposal
        retained = expand(rows(tensors, by_objectness[:4]), cfg)
        assert columns(hyps) == columns(retained)
        objectness = tensors["objectness"][by_objectness]
        assert min(objectness[:4]) > max(objectness[4:])

    def test_k_clamped_to_vocabulary(self):
        hyps = expand(make_tensors(CounterRng(15), 1), InferenceConfig(k_noun=50, k_verb=50))
        assert len(hyps) == TAXONOMY.n_nouns * TAXONOMY.n_verbs

    def test_underflowing_scores_dropped(self):
        tensors = make_tensors(CounterRng(16), 3)
        tensors["noun_logits"][1] = [1000.0, 0.0, 0.0, 0.0]
        hyps = expand(tensors, InferenceConfig(k_noun=4, k_verb=3))
        # proposal 1 keeps only its noun-0 pairs; the others underflow
        assert len(hyps) == 2 * 12 + 3
        assert np.all(hyps.score > 0.0)

    def test_output_in_canonical_order(self):
        hyps = expand(make_tensors(CounterRng(17), 20))
        keys = [(-score, noun, verb, *box, ttc) for box, noun, verb, ttc, score in zip(
            hyps.boxes.tolist(), hyps.noun.tolist(), hyps.verb.tolist(), hyps.ttc.tolist(), hyps.score.tolist())]
        assert keys == sorted(keys)

    def test_tied_probabilities_pick_the_lower_ids(self):
        # Logit ties give probability ties; the top k must be those of a
        # stable sort: the lowest ids first among equals.
        tensors = make_tensors(CounterRng(20), 6)
        tensors["noun_logits"][:] = [0.5, 2.0, 2.0, 0.5]
        tensors["verb_logits"][:3] = 1.0
        tensors["verb_logits"][3:] = [0.0, 3.0, 3.0]
        batch = proposals_from_tensors(tensors)
        for k_noun, k_verb in ((1, 1), (2, 2), (3, 2), (4, 3)):
            ranked = expand_hypotheses(batch, TAXONOMY, InferenceConfig(k_noun=k_noun, k_verb=k_verb))
            table = ranked.head(len(ranked))
            p_noun = postprocess._softmax_rows(tensors["noun_logits"].copy())
            p_verb = postprocess._softmax_rows(tensors["verb_logits"].copy())
            nouns = np.argsort(-p_noun, axis=1, kind="stable")[:, :k_noun]
            verbs = np.argsort(-p_verb, axis=1, kind="stable")[:, :k_verb]
            pairs = {(int(n), int(v)) for p in range(6) for n in nouns[p] for v in verbs[p]}
            assert set(zip(table.noun.tolist(), table.verb.tolist())) == pairs
            for probs, ids in ((p_noun, nouns), (p_verb, verbs)):
                top_ids, top = postprocess._top_ids(probs.copy(), ids.shape[1])
                assert top_ids.tolist() == ids.tolist()
                assert top.tobytes() == np.take_along_axis(probs, ids, axis=1).tobytes()
        assert postprocess._top_ids(p_noun, 2)[0].tolist() == [[1, 2]] * 6
        assert postprocess._top_ids(p_verb, 2)[0].tolist() == [[0, 1]] * 3 + [[1, 2]] * 3

    def test_no_proposals_no_hypotheses(self):
        assert len(expand(make_tensors(CounterRng(18), 0))) == 0

    def test_logit_width_must_match_taxonomy(self):
        with pytest.raises(ValidationError, match="do not match taxonomy"):
            expand(make_tensors(CounterRng(19), 2, n_nouns=5))


class TestClassAwareNms:
    def test_single_hypothesis_unchanged(self):
        rng = CounterRng(16)
        h = make_hypothesis(rng)
        assert nms([h]) == columns(as_table([h]))

    def test_high_overlap_same_noun_suppressed(self):
        a = StaHypothesis(Box2D(0, 0, 10, 10), 0, 0, 1.0, 0.9)
        b = StaHypothesis(Box2D(0.5, 0.5, 10.5, 10.5), 0, 1, 1.0, 0.5)
        assert nms([a, b], nms_iou=0.5) == columns(as_table([a]))

    def test_identical_boxes_different_nouns_both_kept(self):
        a = StaHypothesis(Box2D(0, 0, 10, 10), 0, 0, 1.0, 0.9)
        b = StaHypothesis(Box2D(0, 0, 10, 10), 1, 0, 1.0, 0.5)
        assert nms([a, b]) == columns(as_table([a, b]))

    def test_idempotent_and_subset(self):
        for seed in range(30):
            rng = CounterRng(1000 + seed)
            hyps = [make_hypothesis(rng) for _ in range(40)]
            once = class_aware_nms(table_of(hyps), 0.4, len(hyps))
            assert columns(class_aware_nms(once, 0.4, len(once))) == columns(once)
            assert row_set(once) <= row_set(as_table(hyps))

    def test_top_hypothesis_per_class_survives(self):
        rng = CounterRng(17)
        hyps = [make_hypothesis(rng) for _ in range(60)]
        table = table_of(hyps)
        kept = row_set(class_aware_nms(table, 0.3, len(table)))
        for noun in set(h.noun_id for h in hyps):
            best = min((h for h in hyps if h.noun_id == noun), key=rank_key)
            assert row_set(as_table([best])) <= kept


def brute_force_nms(hyps, nms_iou):
    """The columns of greedy per-noun NMS over hypothesis objects with the
    oracle's scalar IoU."""
    kept = []
    for h in sorted(hyps, key=rank_key):
        if not any(k.noun_id == h.noun_id and _iou_scalar(h.box, k.box) > nms_iou for k in kept):
            kept.append(h)
    return columns(as_table(kept))


coordinate = st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0, 10.0])
hypothesis_rows = st.lists(
    st.tuples(
        coordinate, coordinate, coordinate, coordinate,
        st.integers(0, 2), st.integers(0, 1),
        st.sampled_from([0.5, 1.0]), st.sampled_from([0.25, 0.5, 0.75]),
    ),
    max_size=30,
)


# Ints and -0.0 next to their float equals: the key tuples compare them
# as equal numbers, and so must the table order.
mixed = st.sampled_from([0, 0.0, -0.0, 1, 2.5, 4, 4.0])
mixed_rows = st.lists(
    st.tuples(mixed, mixed, mixed, mixed, st.integers(0, 1), st.integers(0, 1),
              st.sampled_from([0, -0.0, 0.5, 1, 1.0]), st.sampled_from([0.25, 0.5, 1, 1.0])),
    max_size=30,
)


def hypotheses_from(raw):
    return [
        StaHypothesis(Box2D(min(a, c), min(b, d), max(a, c), max(b, d)), noun, verb, ttc, score)
        for a, b, c, d, noun, verb, ttc, score in raw
    ]


class TestKernelEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(hypothesis_rows, mixed_rows))
    def test_table_order_equals_sorted_canonical_key(self, raw):
        # Coarse coordinate and score grids force partial and full ties;
        # the repeated rows are full ties of distinct objects.
        hyps = hypotheses_from(raw + raw[::3])
        expected = sorted(hyps, key=rank_key)
        assert columns(table_of(hyps)) == columns(as_table(expected))
        ordered = sort_canonical(hyps)
        assert ordered == expected
        assert [id(h) for h in ordered] == [id(h) for h in expected]

    @settings(max_examples=200, deadline=None)
    @given(hypothesis_rows, st.lists(st.floats(0.01, 1.0), min_size=30, max_size=30))
    def test_order_by_distinct_scores_equals_sorted_canonical_key(self, raw, scores):
        # Scores that are mostly all distinct take the single-argsort path.
        hyps = [replace(h, score=s) for h, s in zip(hypotheses_from(raw), scores)]
        assert columns(table_of(hyps)) == columns(as_table(sorted(hyps, key=rank_key)))

    @settings(max_examples=300, deadline=None)
    @given(hypothesis_rows, st.sampled_from([1e-4, 0.3, 0.5, 0.99, 1.0]))
    def test_nms_equals_brute_force_greedy(self, raw, nms_iou):
        hyps = hypotheses_from(raw)
        assert nms(hyps, nms_iou) == brute_force_nms(hyps, nms_iou)

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    def test_nms_blocks_do_not_change_the_result(self, monkeypatch, block):
        rng = CounterRng(40)
        hyps = [make_hypothesis(rng, n_nouns=2) for _ in range(120)]
        expected = brute_force_nms(hyps, 0.1)
        lowers = record_pair_blocks(monkeypatch, postprocess, block)
        assert nms(hyps, 0.1) == expected
        assert len(lowers) > 1 and in_blocks(lowers, block)

    def test_zero_area_and_identical_boxes(self):
        flat = Box2D(5, 5, 5, 9)
        box = Box2D(0, 0, 10, 10)
        hyps = [
            StaHypothesis(flat, 0, 0, 1.0, 0.9),
            StaHypothesis(flat, 0, 1, 1.0, 0.8),
            StaHypothesis(box, 0, 0, 1.0, 0.7),
            StaHypothesis(box, 0, 1, 1.0, 0.6),
            StaHypothesis(box, 0, 2, 1.0, 0.6),
        ]
        for nms_iou in (1e-4, 0.3, 0.5, 0.99, 1.0):
            assert nms(hyps, nms_iou) == brute_force_nms(hyps, nms_iou)
        assert nms(hyps, 0.99) == columns(as_table(hyps[:3]))
        assert nms(hyps, 1.0) == columns(as_table(hyps))


def record_pair_blocks(patch, module, block):
    """Set the pair block size of `boxes.greedy_owners` to block, and
    record the lower rows (the last argument) of each `module.pair_iou`
    call."""
    lowers = []

    def recording_pair_iou(corners, area, higher, lower):
        lowers.append(lower.tolist())
        return pair_iou(corners, area, higher, lower)

    patch.setattr(boxes, "PAIR_BLOCK", block)
    patch.setattr(module, "pair_iou", recording_pair_iou)
    return lowers


def in_blocks(lowers, block):
    """Whether each recorded call compared at most block pairs, or the
    pairs of one lower row: a block of `boxes.pair_blocks`."""
    return all(len(lower) <= block or len(set(lower)) == 1 for lower in lowers)


def count_compared_pairs(monkeypatch):
    """Patch the IoU of class_aware_nms to count the row pairs it compares."""
    compared = [0]

    def counting_pair_iou(corners, area, a, b):
        compared[0] += len(a)
        return pair_iou(corners, area, a, b)

    monkeypatch.setattr(postprocess, "pair_iou", counting_pair_iou)
    return compared


def same_noun_pairs(table):
    nouns = table.noun.tolist()
    return sum(nouns.count(noun) * (nouns.count(noun) - 1) // 2 for noun in set(nouns))


class TestBoundedNms:
    @settings(max_examples=300, deadline=None)
    @given(hypothesis_rows, st.sampled_from([1e-4, 0.3, 0.5, 0.99, 1.0]), st.data(),
           st.sampled_from([1, 7, 1 << 17]))
    def test_cap_gives_the_first_survivors(self, raw, nms_iou, data, block):
        # Coarse grids force full ties, zero-area and identical boxes.
        table = table_of(hypotheses_from(raw))
        cap = data.draw(st.integers(1, len(table) + 2), label="cap")
        with pytest.MonkeyPatch.context() as patch:
            lowers = record_pair_blocks(patch, postprocess, block)
            capped = class_aware_nms(table, nms_iou, cap)
            every = class_aware_nms(table, nms_iou, len(table))
        assert columns(capped) == columns(every.take(slice(0, cap)))
        assert in_blocks(lowers, block)

    def test_chain_compares_fewer_pairs_once_the_cap_is_reached(self, monkeypatch):
        tensors = make_tensors(CounterRng(41), 60)
        cfg = InferenceConfig(k_noun=2, k_verb=3, max_exports=10)
        expanded = expand(tensors, cfg)
        every = class_aware_nms(expanded, cfg.nms_iou, len(expanded))
        assert len(every) > cfg.max_exports
        compared = count_compared_pairs(monkeypatch)
        exported = chain(tensors, cfg)
        assert columns(exported) == columns(every.take(slice(0, cfg.max_exports)))
        assert 0 < compared[0] < same_noun_pairs(expanded) / 4

    @pytest.mark.parametrize("cap", [1, 5, 100])
    def test_each_pair_compared_once_when_the_cap_is_not_reached(self, monkeypatch, cap):
        # Identical boxes: one survivor per noun, fewer than the cap for 5
        # and 100, so the windows double up to the whole table.
        box = Box2D(0, 0, 10, 10)
        hyps = [StaHypothesis(box, i % 3, 0, 1.0, 1.0 - i / 64) for i in range(40)]
        table = table_of(hyps)
        compared = count_compared_pairs(monkeypatch)
        kept = class_aware_nms(table, 0.5, cap)
        assert len(kept) == min(cap, 3)
        if cap > 3:
            assert compared[0] == same_noun_pairs(table)
        else:
            assert compared[0] < same_noun_pairs(table)

    def test_cap_zero_and_empty_table(self):
        rng = CounterRng(42)
        table = table_of([make_hypothesis(rng) for _ in range(5)])
        assert len(class_aware_nms(table, 0.5, 0)) == 0
        empty = table.take(slice(0, 0))
        assert len(class_aware_nms(empty, 0.5, len(empty))) == 0
        assert len(class_aware_nms(empty, 0.5, 3)) == 0


def full_expansion(batch, taxonomy, cfg):
    """Every expanded row at once, in canonical order: each retained
    proposal's boxes and TTC decoded, the whole grid checked by the table
    rules and sorted. The reference that the rows built on demand must
    reproduce, bit for bit."""
    retained = np.argsort(-batch.objectness.astype(np.float64), kind="stable")[: cfg.max_proposals]
    k_noun = min(cfg.k_noun, taxonomy.n_nouns)
    k_verb = min(cfg.k_verb, taxonomy.n_verbs)
    p_noun = postprocess._softmax_rows(batch.noun_logits[retained].astype(np.float64))
    p_verb = postprocess._softmax_rows(batch.verb_logits[retained].astype(np.float64))
    top_nouns = np.argsort(-p_noun, axis=1, kind="stable")[:, :k_noun]
    top_verbs = np.argsort(-p_verb, axis=1, kind="stable")[:, :k_verb]
    refined = apply_box_deltas(
        batch.proposal_boxes[retained].astype(np.float64)[:, None, :],
        batch.box_deltas[retained[:, None], top_nouns].astype(np.float64),
    )
    ttc = np.array([ttc_from_raw(t) for t in batch.ttc_raw[retained].astype(np.float64).tolist()])
    prior = batch.objectness[retained].astype(np.float64) * batch.quality[retained].astype(np.float64)
    score = (
        prior[:, None, None]
        * np.take_along_axis(p_noun, top_nouns, axis=1)[:, :, None]
        * np.take_along_axis(p_verb, top_verbs, axis=1)[:, None, :]
    )
    shape = score.shape
    positive = score.reshape(-1) > 0.0
    return sort_canonical(HypothesisTable(
        boxes=np.broadcast_to(refined[:, :, None, :], shape + (4,)).reshape(-1, 4)[positive],
        noun=np.broadcast_to(top_nouns[:, :, None], shape).reshape(-1)[positive],
        verb=np.broadcast_to(top_verbs[:, None, :], shape).reshape(-1)[positive],
        ttc=np.broadcast_to(ttc[:, None, None], shape).reshape(-1)[positive],
        score=score.reshape(-1)[positive],
    ))


def column_bytes(table):
    """Every column of a table as bytes, to compare tables bit for bit."""
    return {name: getattr(table, name).tobytes()
            for name in ("boxes", "noun", "verb", "ttc", "score", "source", "has_source")}


def coarse_batch(draw, n_nouns, n_verbs):
    """Head outputs with coarse values, so that scores tie across window
    boundaries (equal priors and logits) and underflow (logit gaps of
    800), and with repeated proposals, so that whole rows tie."""
    value = st.sampled_from
    proposal = st.tuples(
        value([0.0, 1.0, 5.0]), value([0.0, 2.0]), value([1.0, 4.0]), value([1.0, 3.0]),
        value([0.25, 0.5, 1.0]), value([0.5, 1.0]), value([-1.0, 0.0, 2.0]),
        st.lists(value([0.0, 0.0, 1.0, 2.0, -800.0]), min_size=n_nouns, max_size=n_nouns),
        st.lists(value([0.0, 1.0, -800.0]), min_size=n_verbs, max_size=n_verbs),
        st.lists(st.lists(value([0.0, 0.1, -0.25, 20.0]), min_size=4, max_size=4),
                 min_size=n_nouns, max_size=n_nouns),
    )
    raw = draw(st.lists(proposal, max_size=8))
    raw += raw[::2]
    dtype = draw(value([np.float32, np.float64]))
    x1, y1, w, h, objectness, quality, ttc_raw, nouns, verbs, deltas = list(zip(*raw)) or [()] * 10
    tensors = {
        "proposal_boxes": np.array([[a, b, a + c, b + d] for a, b, c, d in zip(x1, y1, w, h)], dtype).reshape(-1, 4),
        "objectness": np.array(objectness, dtype), "quality": np.array(quality, dtype),
        "ttc_raw": np.array(ttc_raw, dtype),
        "noun_logits": np.array(nouns, dtype).reshape(-1, n_nouns),
        "verb_logits": np.array(verbs, dtype).reshape(-1, n_verbs),
        "box_deltas": np.array(deltas, dtype).reshape(-1, n_nouns, 4),
    }
    return proposals_from_tensors(tensors)


def coarse_setting(draw):
    """The noun and verb counts of a taxonomy of 1 to 5 of each, the
    taxonomy, and a config with expansion widths of 1 to 5."""
    n_nouns, n_verbs = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    taxonomy = Taxonomy(tuple(f"n{i}" for i in range(n_nouns)), tuple(f"v{i}" for i in range(n_verbs)))
    cfg = InferenceConfig(max_proposals=draw(st.integers(1, 12)), k_noun=draw(st.integers(1, 5)),
                          k_verb=draw(st.integers(1, 5)))
    return n_nouns, n_verbs, taxonomy, cfg


@st.composite
def expansion_inputs(draw):
    """One coarse batch (`coarse_batch`), its taxonomy and a config."""
    n_nouns, n_verbs, taxonomy, cfg = coarse_setting(draw)
    return coarse_batch(draw, n_nouns, n_verbs), taxonomy, cfg


@st.composite
def block_inputs(draw):
    """One to five coarse batches of one taxonomy, so that scores and
    whole rows also tie across examples, the taxonomy and a config."""
    n_nouns, n_verbs, taxonomy, cfg = coarse_setting(draw)
    return [coarse_batch(draw, n_nouns, n_verbs) for _ in range(draw(st.integers(1, 5)))], taxonomy, cfg


def count_decoded_boxes(monkeypatch):
    """Patch the box decode of expand_hypotheses to record each (proposal
    box, deltas) input it decodes."""
    decoded = []

    def counting_apply_box_deltas(boxes, deltas):
        decoded.extend(zip(map(tuple, np.asarray(boxes).tolist()), map(tuple, np.asarray(deltas).tolist())))
        return apply_box_deltas(boxes, deltas)

    monkeypatch.setattr(postprocess, "apply_box_deltas", counting_apply_box_deltas)
    return decoded


class TestRankedExpansion:
    @settings(max_examples=300, deadline=None)
    @given(expansion_inputs(), st.data())
    def test_head_is_the_prefix_of_the_full_expansion(self, inputs, data):
        batch, taxonomy, cfg = inputs
        full = full_expansion(batch, taxonomy, cfg)
        ranked = expand_hypotheses(batch, taxonomy, cfg)
        assert len(ranked) == len(full)
        depths = data.draw(st.lists(st.integers(0, len(full) + 2), max_size=4), label="depths")
        for n in depths + [len(ranked)] + depths[:1]:
            assert column_bytes(ranked.head(n)) == column_bytes(full.head(n))
        assert len(ranked.table) == len(full)

    def test_head_in_any_order(self):
        tensors = make_tensors(CounterRng(45), 12)
        tensors["objectness"][:] = tensors["quality"][:] = 0.5  # ties between proposals
        batch = proposals_from_tensors(tensors)
        cfg = InferenceConfig(k_noun=3, k_verb=2)
        full = full_expansion(batch, TAXONOMY, cfg)
        ranked = expand_hypotheses(batch, TAXONOMY, cfg)
        for n in (7, 3, len(ranked), 5):
            assert column_bytes(ranked.head(n)) == column_bytes(full.head(n))

    def test_chain_decodes_few_boxes_each_at_most_once(self, monkeypatch):
        # Nearly equal verb probabilities: the three rows of a (proposal,
        # noun) box rank next to each other, suppress each other, and some
        # straddle a window boundary, so a later window needs a box that
        # an earlier one decoded.
        tensors = make_tensors(CounterRng(41), 60)
        tensors["verb_logits"][:] = [0.0, -0.01, -0.02]
        cfg = InferenceConfig(k_noun=2, k_verb=3, max_exports=10)
        decoded = count_decoded_boxes(monkeypatch)
        exported = chain(tensors, cfg)
        assert len(exported) == cfg.max_exports
        assert cfg.max_exports < len(decoded) < 60 * 2 * 3 / 4
        assert len(set(decoded)) == len(decoded)

    def test_flat_proposal_ranked_past_every_window_rejected(self):
        tensors = make_tensors(CounterRng(43), 60)
        last = int(np.argmin(tensors["objectness"]))
        tensors["objectness"][last] = tensors["quality"][last] = 1e-3
        cfg = InferenceConfig(k_noun=2, k_verb=3, max_exports=10)
        ranked = expand_hypotheses(proposals_from_tensors(tensors), TAXONOMY, cfg)
        class_aware_nms(ranked, cfg.nms_iou, cfg.max_exports)
        # NMS read no row of the last proposal: each scores below 1e-6.
        assert ranked.head(len(ranked.table)).score[-1] > 1e-6
        tensors["proposal_boxes"][last] = [3.0, 3.0, 3.0, 9.0]
        with pytest.raises(ValidationError) as err:
            chain(tensors, cfg)
        assert err.value.problems == [f"proposal {last}: must have positive size, got [3.0, 3.0, 3.0, 9.0]"]
        # A proposal the cap drops is never expanded, and never checked.
        assert len(chain(tensors, replace(cfg, max_proposals=59))) == cfg.max_exports

    def test_overflowing_float64_row_in_the_export_rejected(self):
        with pytest.raises(ValidationError, match="box coordinates must be finite"):
            chain(overflowing(44), InferenceConfig(max_exports=10))


def identical_boxes(rng, n_proposals):
    """Head outputs of proposals with one box and one favoured noun: the
    rows of a noun suppress each other, so fewer rows survive than a cap
    of 10 and NMS reads every window. Each proposal's deltas differ a
    little, so no two decode the same inputs."""
    tensors = make_tensors(rng, n_proposals)
    tensors["proposal_boxes"][:] = [10.0, 10.0, 60.0, 60.0]
    tensors["noun_logits"][:, 0] += 3.0
    tensors["box_deltas"] *= 0.01
    return tensors


def overflowing(seed):
    """Head outputs whose four rows of proposal 2 rank high and have
    refined boxes that overflow: finite float64 corners, but exp(4) times
    the width of 1e307."""
    tensors = make_tensors(CounterRng(seed), 6)
    tensors["proposal_boxes"][2] = [0.0, 0.0, 1e307, 1e307]
    tensors["box_deltas"][2, :, 2] = 4.0
    tensors["objectness"][2] = tensors["quality"][2] = 0.9
    tensors["noun_logits"][2] = [6.0, 0.0, 6.0, 0.0]
    tensors["verb_logits"][2] = [6.0, 6.0, 0.0]
    return tensors


def read_as_given(monkeypatch, path, examples):
    """Write {uid: tensors} to a container at path, and make
    postprocess_container read each tensor back as the float64 array it
    was given. A container holds float32, within whose range no score
    underflows and no refined box overflows, so this is how a container
    reaches the row checks; the values written are clipped to that range."""
    given = {f"{uid}/{name}": np.asarray(arr, dtype=np.float64)
             for uid, tensors in examples.items() for name, arr in tensors.items()}
    write_tensor_file({name: np.clip(arr, -1e30, 1e30) for name, arr in given.items()}, path)

    class AsGiven(postprocess.TensorFile):
        def read(self, name):
            super().read(name)
            return given[name]

    monkeypatch.setattr(postprocess, "TensorFile", AsGiven)


def record_blocks(monkeypatch):
    """Record the retained proposals of each example of each block that
    postprocess_container suppresses."""
    blocks = []

    def recording_nms_block(ranked, nms_iou, max_exports):
        blocks.append(ranked.sizes.tolist())
        return nms_block(ranked, nms_iou, max_exports)

    monkeypatch.setattr(postprocess, "nms_block", recording_nms_block)
    return blocks


def alone(tensors, cfg):
    """The column bytes of the chain of one example alone."""
    return column_bytes(chain(tensors, cfg))


BLOCK_CFG = InferenceConfig(k_noun=2, k_verb=3, max_exports=10)


class TestExampleBlocks:
    @settings(max_examples=200, deadline=None)
    @given(block_inputs(), st.integers(0, 40))
    def test_a_block_gives_each_example_its_export_alone(self, inputs, max_exports):
        batches, taxonomy, cfg = inputs
        expected = [column_bytes(class_aware_nms(expand_hypotheses(batch, taxonomy, cfg), cfg.nms_iou, max_exports))
                    for batch in batches]
        ranked = RankedHypotheses.concat([expand_hypotheses(batch, taxonomy, cfg) for batch in batches])
        assert [column_bytes(export) for export in nms_block(ranked, cfg.nms_iou, max_exports)] == expected

    def test_container_blocks_give_each_example_its_export_alone(self, tmp_path, monkeypatch):
        underflowing = make_tensors(CounterRng(61), 20)
        underflowing["objectness"][:] = underflowing["quality"][:] = 1e-200  # every score is 1e-400 or less
        examples = {
            "a_empty": make_tensors(CounterRng(60), 0),
            "b_underflowing": underflowing,
            "c_identical": identical_boxes(CounterRng(62), 40),
            "d_few_rows": make_tensors(CounterRng(63), 1),  # 6 rows, fewer than the cap
            **{f"e{i}_random": make_tensors(CounterRng(64 + i), 30) for i in range(4)},
        }
        expected = {uid: alone(tensors, BLOCK_CFG) for uid, tensors in examples.items()}
        assert len(expand(examples["b_underflowing"], BLOCK_CFG)) == 0
        assert len(expand(examples["c_identical"], BLOCK_CFG)) == 40 * 6
        read_as_given(monkeypatch, tmp_path / "heads.vstf", examples)
        monkeypatch.setattr(boxes, "EXAMPLE_BLOCK", 40)
        blocks = record_blocks(monkeypatch)
        decoded = count_decoded_boxes(monkeypatch)
        exports = postprocess_container(tmp_path / "heads.vstf", TAXONOMY, BLOCK_CFG)
        assert {uid: column_bytes(export) for uid, export in exports.items()} == expected
        assert blocks == [[0, 20], [40], [1, 30], [30], [30], [30]]
        assert len(decoded) > 0 and len(set(decoded)) == len(decoded)

    def test_a_plain_container_keys_its_example_by_the_file_stem(self, tmp_path):
        path = tmp_path / "x.vstf"
        write_tensor_file(make_tensors(CounterRng(65), 10), path)
        for given in (path, str(path)):
            exports = postprocess_container(given, TAXONOMY, BLOCK_CFG)
            assert list(exports) == ["x"]
            assert column_bytes(exports["x"]) == alone(read_tensor_file(path), BLOCK_CFG)


class TestBlockProblems:
    def test_an_unread_overflowing_row_next_to_a_deep_reader_passes(self, tmp_path, monkeypatch):
        quiet = make_tensors(CounterRng(43), 60)
        last = int(np.argmin(quiet["objectness"]))
        quiet["objectness"][last] = quiet["quality"][last] = 1e-3
        quiet["proposal_boxes"][last] = [0.0, 0.0, 1e307, 1e307]
        quiet["box_deltas"][last, :, 2] = 4.0
        with pytest.raises(ValidationError, match="box coordinates must be finite"):
            expand(quiet, BLOCK_CFG)  # read to the end, its last rows overflow
        examples = {"a_quiet": quiet, "b_deep": identical_boxes(CounterRng(62), 40)}
        expected = {uid: alone(tensors, BLOCK_CFG) for uid, tensors in examples.items()}
        read_as_given(monkeypatch, tmp_path / "heads.vstf", examples)
        blocks = record_blocks(monkeypatch)
        exports = postprocess_container(tmp_path / "heads.vstf", TAXONOMY, BLOCK_CFG)
        assert blocks == [[60, 40]]
        assert {uid: column_bytes(export) for uid, export in exports.items()} == expected
        assert len(exports["b_deep"]) < BLOCK_CFG.max_exports  # so it read every window

    def test_row_problems_of_two_blocks_listed_in_uid_order(self, tmp_path, monkeypatch):
        examples = {"a": make_tensors(CounterRng(70), 6), "b": overflowing(44), "c": make_tensors(CounterRng(71), 6),
                    "d": overflowing(45)}
        read_as_given(monkeypatch, tmp_path / "heads.vstf", examples)
        monkeypatch.setattr(boxes, "EXAMPLE_BLOCK", 12)
        blocks = record_blocks(monkeypatch)
        with pytest.raises(ValidationError) as err:
            postprocess_container(tmp_path / "heads.vstf", TAXONOMY, InferenceConfig(max_exports=10))
        assert blocks == [[6, 6], [6, 6]]
        assert err.value.problems == ROW_PROBLEMS

    def test_a_batch_problem_in_a_later_block_hides_every_chain_problem(self, tmp_path, monkeypatch):
        bad = make_tensors(CounterRng(72), 6)
        bad["quality"][2] = 1.5
        examples = {"a": overflowing(44), "b": make_tensors(CounterRng(73), 6, n_nouns=5),
                    "c": make_tensors(CounterRng(74), 6), "d": make_tensors(CounterRng(75), 6), "e": bad}
        read_as_given(monkeypatch, tmp_path / "heads.vstf", examples)
        monkeypatch.setattr(boxes, "EXAMPLE_BLOCK", 6)
        blocks = record_blocks(monkeypatch)
        with pytest.raises(ValidationError) as err:
            postprocess_container(tmp_path / "heads.vstf", TAXONOMY, InferenceConfig(max_exports=10))
        assert blocks == [[6], [6]]  # a and c; d's block is never suppressed
        assert err.value.problems == ["example 'e': proposal 2: quality must be in (0, 1], got 1.5"]


# The problems of test_row_problems_of_two_blocks_listed_in_uid_order, as
# postprocess_container gave them when it ran one example at a time.
ROW_PROBLEMS = [f"example {uid!r}: row {i}: box coordinates must be finite"
                for uid, rows in (("b", range(0, 4)), ("d", range(3, 7))) for i in rows]


class TestBlockMemory:
    def peak(self, path, taxonomy) -> int:
        """The allocation peak of postprocess_container beyond what its
        result holds."""
        cfg = InferenceConfig()
        postprocess_container(path, taxonomy, cfg)  # numpy's lazily made state is not counted
        tracemalloc.start()
        try:
            exports = postprocess_container(path, taxonomy, cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(exports) > 0
        return peak - held

    def test_three_blocks_hold_less_than_one_more_example(self, tmp_path, monkeypatch):
        # 200 proposals over 128 nouns and 81 verbs: 0.58 MB of float32
        # tensors an example, of which the rows need about 30 KB.
        n_proposals, n_nouns, n_verbs = 200, 128, 81
        taxonomy = Taxonomy(tuple(f"n{i}" for i in range(n_nouns)), tuple(f"v{i}" for i in range(n_verbs)))
        rng = np.random.default_rng(5)

        def container(name, n_examples):
            tensors = {}
            for e in range(n_examples):
                corner = rng.uniform(0.0, 1000.0, (n_proposals, 2))
                tensors.update({f"ex{e}/{name}": arr for name, arr in {
                    "proposal_boxes": np.hstack([corner, corner + rng.uniform(20.0, 300.0, (n_proposals, 2))]),
                    "objectness": rng.uniform(0.05, 1.0, n_proposals), "quality": rng.uniform(0.05, 1.0, n_proposals),
                    "noun_logits": rng.normal(0.0, 2.0, (n_proposals, n_nouns)),
                    "verb_logits": rng.normal(0.0, 2.0, (n_proposals, n_verbs)),
                    "box_deltas": rng.normal(0.0, 0.1, (n_proposals, n_nouns, 4)),
                    "ttc_raw": rng.normal(0.0, 1.0, n_proposals)}.items()})
            write_tensor_file(tensors, tmp_path / name)
            return tmp_path / name

        one_example, three_blocks = container("one.vstf", 1), container("three.vstf", 6)
        example_bytes = 4 * n_proposals * (4 + 1 + n_nouns + n_verbs + 4 * n_nouns + 1 + 1)
        monkeypatch.setattr(boxes, "EXAMPLE_BLOCK", 2 * n_proposals)
        blocks = record_blocks(monkeypatch)
        assert self.peak(three_blocks, taxonomy) - self.peak(one_example, taxonomy) < example_bytes
        assert blocks[:3] == [[n_proposals] * 2] * 3


class TestHypothesisTable:
    def test_every_bad_row_listed(self):
        with pytest.raises(ValidationError) as err:
            HypothesisTable(
                boxes=[[0, 0, 1, 1], [2, 0, 1, 1], [0, 0, 1, math.nan]],
                noun=[0, -1, 0], verb=[0, 0, 0], ttc=[-0.5, 1.0, 1.0], score=[0.5, 0.0, 0.2],
            )
        assert sorted(err.value.problems) == [
            "row 0: ttc must be finite and >= 0",
            "row 1: box has x1 > x2",
            "row 1: noun_id must be >= 0",
            "row 1: score must be finite and > 0",
            "row 2: box coordinates must be finite",
        ]

    def test_column_shapes_checked(self):
        with pytest.raises(ValidationError, match="verb must have shape"):
            HypothesisTable(boxes=[[0, 0, 1, 1]], noun=[0], verb=[0, 1], ttc=[1.0], score=[0.5])

    def test_source_needs_its_mask(self):
        row = dict(boxes=[[0, 0, 1, 1]], noun=[0], verb=[0], ttc=[1.0], score=[0.5])
        with pytest.raises(ValidationError, match="given together"):
            HypothesisTable(**row, source=[3])
        with pytest.raises(ValidationError, match="given together"):
            HypothesisTable(**row, has_source=[True])
        assert not HypothesisTable(**row).has_source.any()

    def test_columns_are_read_only_copies(self):
        score = np.array([0.5, 0.25])
        table = HypothesisTable(boxes=np.ones((2, 4)), noun=[0, 1], verb=[0, 0], ttc=[1.0, 2.0], score=score)
        score[0] = 0.0
        assert table.score[0] == 0.5
        with pytest.raises(ValueError):
            table.score[1] = 1.0


class TestFinalizeSubmission:
    def test_truncates_to_cap(self):
        rng = CounterRng(18)
        hyps = [make_hypothesis(rng) for _ in range(150)]
        out = finalize_submission(table_of(hyps), 100)
        assert len(out) == 100
        assert columns(out) == columns(as_table(sorted(hyps, key=rank_key)[:100]))

    def test_short_list_kept_whole(self):
        rng = CounterRng(19)
        hyps = [make_hypothesis(rng) for _ in range(5)]
        out = finalize_submission(table_of(hyps), 100)
        assert len(out) == 5
        assert columns(out) == columns(as_table(sorted(hyps, key=rank_key)))

    def test_deterministic_under_permutation(self):
        rng = CounterRng(20)
        hyps = [make_hypothesis(rng) for _ in range(30)]
        shuffled = list(reversed(hyps))
        assert columns(finalize_submission(table_of(hyps), 10)) == columns(
            finalize_submission(table_of(shuffled), 10)
        )


class TestFullChain:
    def test_permutation_invariance(self):
        tensors = make_tensors(CounterRng(21), 25)
        cfg = InferenceConfig(k_noun=2, k_verb=2, max_exports=20)
        assert columns(chain(tensors, cfg)) == columns(chain(rows(tensors, slice(None, None, -1)), cfg))

    def test_ttc_shift_does_not_change_ranking(self):
        tensors = make_tensors(CounterRng(22), 10)
        shifted = dict(tensors, ttc_raw=tensors["ttc_raw"] + 1.5)
        base = chain(tensors)
        moved = chain(shifted)
        assert (base.noun.tolist(), base.verb.tolist(), base.boxes.tolist()) == (
            moved.noun.tolist(), moved.verb.tolist(), moved.boxes.tolist()
        )


class TestProposalTensors:
    def test_missing_names_reported_exhaustively(self):
        with pytest.raises(ValidationError) as err:
            proposals_from_tensors({"objectness": np.zeros(2)})
        missing = [p for p in err.value.problems if "missing tensor" in p]
        assert len(missing) == 6

    def test_round_trip_through_records(self, tmp_path):
        tensors = make_tensors(CounterRng(23), 4)
        write_tensor_file(tensors, tmp_path / "heads.vstf")
        batch = proposals_from_tensors(read_tensor_file(tmp_path / "heads.vstf"))
        assert len(batch) == 4
        np.testing.assert_allclose(batch.objectness, tensors["objectness"], rtol=1e-6)
        np.testing.assert_allclose(batch.proposal_boxes, tensors["proposal_boxes"], rtol=1e-5)

    def test_every_shape_problem_listed(self):
        tensors = make_tensors(CounterRng(24), 5)
        tensors["objectness"] = tensors["objectness"][:3]
        tensors["box_deltas"] = tensors["box_deltas"][:, :2]
        tensors["verb_logits"] = tensors["verb_logits"][:4]
        with pytest.raises(ValidationError) as err:
            proposals_from_tensors(tensors)
        named = sorted(p.split()[0] for p in err.value.problems)
        assert named == ["box_deltas", "objectness", "verb_logits"]

    def test_tensors_that_are_not_real_rejected(self):
        tensors = make_tensors(CounterRng(27), 5)
        tensors["quality"] = tensors["quality"] + 0j
        tensors["ttc_raw"] = tensors["ttc_raw"].astype(str)[:4]
        with pytest.raises(ValidationError) as err:
            proposals_from_tensors(tensors)
        assert err.value.problems == [
            f"ttc_raw must hold real numbers, got dtype {tensors['ttc_raw'].dtype}",
            "ttc_raw must have shape (P,) with P=5, got (4,)",
            "quality must hold real numbers, got dtype complex128",
        ]

    def test_every_bad_value_listed(self):
        tensors = make_tensors(CounterRng(25), 5)
        tensors["objectness"][[1, 3]] = 0.0
        tensors["quality"][4] = 1.5
        tensors["box_deltas"][2, 1, 3] = math.nan
        tensors["proposal_boxes"][0, 0] = tensors["proposal_boxes"][0, 2] + 1.0
        with pytest.raises(ValidationError) as err:
            proposals_from_tensors(tensors)
        assert len(err.value.problems) == 5
        assert all(p.startswith("proposal ") for p in err.value.problems)

    def test_float32_tensors_are_not_copied(self):
        tensors = {k: v.astype(np.float32) for k, v in make_tensors(CounterRng(26), 6).items()}
        batch = proposals_from_tensors(tensors)
        assert batch.box_deltas.dtype == np.float32
        assert np.shares_memory(batch.box_deltas, tensors["box_deltas"])
