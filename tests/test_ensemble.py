import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vista.ensemble as ensemble
from vista import boxes
from vista.boxes import Box2D
from vista.ensemble import EnsembleConfig, Grouping, ensemble_predictions, group_hypotheses, merge_group
from vista.errors import ValidationError
from vista.oracle import _iou_scalar
from vista.rng import CounterRng
from vista.types import HypothesisTable, StaHypothesis, as_table, sort_canonical

from test_postprocess import columns, in_blocks, rank_key, record_pair_blocks


def hyp(x1=0.0, y1=0.0, x2=10.0, y2=10.0, noun=0, verb=0, ttc=1.0, score=0.5, source=None):
    return StaHypothesis(
        box=Box2D(x1, y1, x2, y2), noun_id=noun, verb_id=verb, ttc=ttc, score=score,
        source_id=source,
    )


def random_hyp(rng, n_nouns=3, n_verbs=3, source=None):
    x1 = rng.uniform(0, 300)
    y1 = rng.uniform(0, 300)
    return StaHypothesis(
        box=Box2D(x1, y1, x1 + rng.uniform(10, 100), y1 + rng.uniform(10, 100)),
        noun_id=rng.randint(n_nouns),
        verb_id=rng.randint(n_verbs),
        ttc=rng.uniform(0.1, 3.0),
        score=rng.uniform(0.01, 1.0),
        source_id=source,
    )


def compatible(a, b, cfg=EnsembleConfig()):
    """Whether grouping puts the two hypotheses in one group."""
    return len(group_hypotheses(as_table([a, b]), cfg)) == 1


class TestCompatible:
    def test_identical(self):
        a = hyp()
        assert compatible(a, a)

    def test_ttc_threshold(self):
        a = hyp(ttc=1.0)
        b = hyp(ttc=1.3)
        assert not compatible(a, b)
        assert compatible(a, hyp(ttc=1.25))

    def test_verb_is_a_grouping_key(self):
        assert not compatible(hyp(verb=0), hyp(verb=1))

    def test_noun_is_a_grouping_key(self):
        assert not compatible(hyp(noun=0), hyp(noun=1))

    def test_box_overlap_threshold(self):
        assert not compatible(hyp(), hyp(x1=8, x2=18))


class TestGroupHypotheses:
    def test_all_compatible_single_group(self):
        hyps = [hyp(score=s, source=i) for i, s in enumerate((0.9, 0.6, 0.3))]
        groups = list(group_hypotheses(as_table(hyps)))
        assert len(groups) == 1
        assert len(groups[0].members) == 3
        assert groups[0].members.score[0] == 0.9

    def test_disjoint_clusters_split(self):
        hyps = [hyp(), hyp(x1=100, x2=110, y1=100, y2=110)]
        assert len(group_hypotheses(as_table(hyps))) == 2

    def test_seed_anchored_not_transitive(self):
        # A~B and B~C but A and C overlap too little; grouping is tested
        # against the seed A, so C falls into its own group.
        a = hyp(x1=0, x2=10, score=0.9)
        b = hyp(x1=4, x2=14, score=0.6)
        c = hyp(x1=8, x2=18, score=0.3)
        cfg = EnsembleConfig(box_iou_min=0.3)
        assert compatible(a, b, cfg) and compatible(b, c, cfg) and not compatible(a, c, cfg)
        groups = list(group_hypotheses(as_table([a, b, c]), cfg))
        assert [len(g.members) for g in groups] == [2, 1]
        assert columns(groups[0].members.take([0])) == columns(as_table([a]))
        assert columns(groups[1].members.take([0])) == columns(as_table([c]))

    def test_grouped_member_gathers_nothing(self):
        # B joins A's group; C and D are compatible with B only, not with
        # A or with each other, so each seeds a group of its own.
        a = hyp(x1=0, y1=0, x2=4, y2=4, ttc=0.5, score=0.9)
        b = hyp(x1=0, y1=0, x2=4, y2=4, ttc=0.75, score=0.8)
        c = hyp(x1=0, y1=0, x2=4, y2=2, ttc=1.0, score=0.7)
        d = hyp(x1=0, y1=2, x2=4, y2=4, ttc=1.0, score=0.6)
        cfg = EnsembleConfig(box_iou_min=0.3)
        assert compatible(b, c, cfg) and compatible(b, d, cfg) and not compatible(c, d, cfg)
        groups = group_hypotheses(as_table([d, c, b, a]), cfg)
        assert [columns(g.members) for g in groups] == [columns(as_table(m)) for m in ([a, b], [c], [d])]

    def test_partition_property(self):
        for seed in range(20):
            rng = CounterRng(2000 + seed)
            hyps = [random_hyp(rng) for _ in range(30)]
            groups = group_hypotheses(as_table(hyps))
            assert sum(len(g.members) for g in groups) == len(hyps)


def merge_one(members, cfg=EnsembleConfig()):
    """merge_group of one group of exactly these members, in this order,
    the first the seed: a table of one row."""
    table = as_table(list(members))
    merged = merge_group(Grouping(table, np.array([0, len(table)])), cfg)
    assert len(merged) == 1
    return merged


def scalar_compatible(a, b, cfg):
    """Same noun, same verb, IoU >= box_iou_min (the oracle's scalar IoU),
    |TTC gap| <= tolerance."""
    return (
        a.noun_id == b.noun_id
        and a.verb_id == b.verb_id
        and _iou_scalar(a.box, b.box) >= cfg.box_iou_min
        and abs(a.ttc - b.ttc) <= cfg.ttc_tolerance
    )


def brute_force_groups(hyps, cfg):
    """Greedy seed-anchored grouping over hypothesis objects with the
    scalar `scalar_compatible`; the seed always joins its own group."""
    remaining = sorted(hyps, key=rank_key)
    groups = []
    while remaining:
        seed, rest = remaining[0], remaining[1:]
        groups.append([seed] + [h for h in rest if scalar_compatible(seed, h, cfg)])
        remaining = [h for h in rest if not scalar_compatible(seed, h, cfg)]
    return groups


def sequential_sum(values):
    """Floats added one at a time from 0.0. The builtin `sum` is not used:
    from Python 3.12 on it compensates float rounding."""
    total = 0.0
    for value in values:
        total += value
    return total


def scalar_merge(members, cfg):
    """One group merged with Python floats, member by member."""
    total = sequential_sum(h.score for h in members)
    weights = [h.score / total for h in members]
    corners = [sequential_sum(w * h.box.corners()[i] for w, h in zip(weights, members)) for i in range(4)]
    u = len({h.source_id for h in members})
    alpha = cfg.agreement_weight
    agreement = (1.0 - alpha) + alpha * min(u, cfg.n_sources) / cfg.n_sources
    seed = members[0]
    return StaHypothesis(
        Box2D(*corners), seed.noun_id, seed.verb_id,
        sequential_sum(w * h.ttc for w, h in zip(weights, members)),
        (total / len(members)) * agreement, seed.source_id,
    )


coordinate = st.sampled_from([0.0, 2.0, 4.0])
grouping_rows = st.lists(
    st.tuples(
        coordinate, coordinate, coordinate, coordinate,
        st.integers(0, 1), st.integers(0, 1),
        st.sampled_from([0.5, 0.75, 1.0, 1.5]), st.sampled_from([0.25, 0.5, 0.75]),
        st.sampled_from([None, -1, 0, 3]),
    ),
    max_size=30,
)


class TestGroupingEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(grouping_rows, st.sampled_from([1e-4, 0.3, 0.5, 1.0]), st.sampled_from([1, 2, 7, 1 << 17]))
    def test_groups_equal_brute_force_greedy(self, raw, box_iou_min, block):
        # Coarse grids force zero-area boxes, identical boxes, full ties
        # and TTC gaps exactly at the tolerance.
        hyps = [
            StaHypothesis(Box2D(min(a, c), min(b, d), max(a, c), max(b, d)), noun, verb, ttc, score, source)
            for a, b, c, d, noun, verb, ttc, score, source in raw
        ]
        cfg = EnsembleConfig(box_iou_min=box_iou_min, ttc_tolerance=0.25, n_sources=3)
        with pytest.MonkeyPatch.context() as patch:
            lowers = record_pair_blocks(patch, ensemble, block)
            groups = group_hypotheses(as_table(hyps), cfg)
        expected = brute_force_groups(hyps, cfg)
        assert [columns(g.members) for g in groups] == [columns(as_table(g)) for g in expected]
        assert columns(merge_group(groups, cfg)) == columns(as_table([scalar_merge(g, cfg) for g in expected]))
        assert in_blocks(lowers, block)

    def test_merge_is_bit_identical_to_member_by_member_sums(self):
        # Groups of up to 24 members: numpy's pairwise summation would
        # round differently from 8 members on.
        rng = CounterRng(77)
        cfg = EnsembleConfig(n_sources=5)
        for _ in range(40):
            base = random_hyp(rng)
            members = [
                StaHypothesis(
                    Box2D(base.box.x1 + rng.uniform(0, 1), base.box.y1 + rng.uniform(0, 1),
                          base.box.x2 + rng.uniform(0, 1), base.box.y2 + rng.uniform(0, 1)),
                    base.noun_id, base.verb_id, base.ttc + rng.uniform(0, 0.2),
                    rng.uniform(0.01, 1.0), rng.randint(5),
                )
                for _ in range(1 + rng.randint(24))
            ]
            groups = group_hypotheses(as_table(members), cfg)
            assert len(groups) == 1
            expected = scalar_merge(sorted(members, key=rank_key), cfg)
            assert columns(merge_group(groups, cfg)) == columns(as_table([expected]))

    def test_thresholds_are_inclusive(self):
        # IoU exactly 1 (identical boxes) and exactly 0.5, TTC gaps
        # exactly at the tolerance: all join the seed's group.
        seed = hyp(x1=0, y1=0, x2=4, y2=4, ttc=1.0, score=0.9)
        twin = hyp(x1=0, y1=0, x2=4, y2=4, ttc=1.25, score=0.8)
        half = hyp(x1=0, y1=0, x2=4, y2=2, ttc=0.75, score=0.7)
        strict = EnsembleConfig(box_iou_min=1.0)
        assert [len(g.members) for g in group_hypotheses(as_table([seed, twin]), strict)] == [2]
        assert [len(g.members) for g in group_hypotheses(as_table([seed, twin, half]))] == [3]

    def test_zero_area_seed_is_its_own_group(self):
        flat = hyp(x1=5, y1=5, x2=5, y2=9, score=0.9)
        groups = list(group_hypotheses(as_table([flat, hyp(x1=5, y1=5, x2=5, y2=9, score=0.5), hyp(score=0.4)])))
        assert [len(g.members) for g in groups] == [1, 1, 1]
        assert columns(groups[0].members.take([0])) == columns(as_table([flat]))


class TestMergeGroup:
    def test_singleton_identity(self):
        h = hyp(score=0.7, source=0)
        cfg = EnsembleConfig(n_sources=1)
        merged = merge_one([h], cfg)
        assert columns(merged) == columns(as_table([h]))

    def test_equal_weight_corner_average(self):
        a = hyp(x1=0, y1=0, x2=2, y2=2, score=0.5, source=0)
        b = hyp(x1=0, y1=0, x2=4, y2=4, score=0.5, source=0)
        merged = merge_one([a, b])
        assert merged.boxes.tolist() == [[0, 0, 3, 3]]

    def test_weighted_ttc_mean(self):
        a = hyp(ttc=1.0, score=0.6, source=0)
        b = hyp(ttc=2.0, score=0.2, source=0)
        merged = merge_one([a, b])
        assert merged.ttc[0] == pytest.approx(1.25)

    def test_agreement_factor_monotone_in_sources(self):
        a = hyp(score=0.5, source=0)
        b = hyp(score=0.5, source=0)
        c = hyp(score=0.5, source=1)
        cfg = EnsembleConfig(n_sources=2)
        same_source = merge_one([a, b], cfg)
        cross_source = merge_one([a, c], cfg)
        assert cross_source.score[0] > same_source.score[0]

    def test_convex_hull_property(self):
        for seed in range(20):
            rng = CounterRng(3000 + seed)
            base = random_hyp(rng, source=0)
            members = [base]
            for s in range(1, 4):
                members.append(
                    StaHypothesis(
                        box=Box2D(
                            base.box.x1 + rng.uniform(-2, 2),
                            base.box.y1 + rng.uniform(-2, 2),
                            base.box.x2 + rng.uniform(-2, 2),
                            base.box.y2 + rng.uniform(-2, 2),
                        ),
                        noun_id=base.noun_id,
                        verb_id=base.verb_id,
                        ttc=max(0.0, base.ttc + rng.uniform(-0.2, 0.2)),
                        score=rng.uniform(0.01, 1.0),
                        source_id=s,
                    )
                )
            members.sort(key=lambda h: -h.score)
            merged = merge_one(members, EnsembleConfig(n_sources=4))
            for i in range(4):
                corners = [m.box.corners()[i] for m in members]
                assert min(corners) - 1e-9 <= merged.boxes[0, i] <= max(corners) + 1e-9
            assert min(m.ttc for m in members) - 1e-9 <= merged.ttc[0]
            assert merged.ttc[0] <= max(m.ttc for m in members) + 1e-9

    def test_empty_group_rejected(self):
        with pytest.raises((ValidationError, IndexError)):
            merge_one([])


class TestEnsemblePredictions:
    def make_source(self, seed, n_examples=3, per_example=4):
        rng = CounterRng(seed)
        out = {}
        for e in range(n_examples):
            out[f"ex_{e}"] = as_table(sorted(
                (random_hyp(rng) for _ in range(per_example)), key=lambda h: -h.score
            ))
        return out

    def test_identical_sources_preserve_ranking(self):
        src = self.make_source(40)
        single = ensemble_predictions([src])
        tripled = ensemble_predictions([src, src, src])
        for uid in single:
            assert single[uid].noun.tolist() == tripled[uid].noun.tolist()
            assert single[uid].verb.tolist() == tripled[uid].verb.tolist()
            for a, b in zip(single[uid].boxes.tolist(), tripled[uid].boxes.tolist()):
                # duplicate members re-average the corners, so allow float noise
                assert a == pytest.approx(b, abs=1e-9)

    def test_disagreeing_nouns_both_survive(self):
        a = {"ex": as_table([hyp(noun=0, score=0.8)])}
        b = {"ex": as_table([hyp(noun=1, score=0.6)])}
        merged = ensemble_predictions([a, b])
        assert len(merged["ex"]) == 2
        assert set(merged["ex"].noun.tolist()) == {0, 1}

    def test_source_order_invariance(self):
        a = self.make_source(41)
        b = self.make_source(42)
        ab = ensemble_predictions([a, b])
        # swapping sources relabels source_id, so compare everything else
        ba = ensemble_predictions([b, a])

        def unsourced(table):
            return [(box, noun, verb, round(ttc, 12), round(score, 12)) for box, noun, verb, ttc, score in zip(
                table.boxes.tolist(), table.noun.tolist(), table.verb.tolist(), table.ttc.tolist(),
                table.score.tolist())]

        for uid in ab:
            assert unsourced(ab[uid]) == unsourced(ba[uid])

    def test_uid_union(self):
        a = {"only_a": as_table([hyp()])}
        b = {"only_b": as_table([hyp()])}
        merged = ensemble_predictions([a, b])
        assert set(merged) == {"only_a", "only_b"}

    def test_needs_at_least_one_source(self):
        with pytest.raises(ValidationError):
            ensemble_predictions([])


# One example's rows in one source: coarse corners, two nouns and verbs,
# and scores from a few values, so that full ties across examples are
# common; 5e-324 merges to a score that underflows when few sources agree.
source_rows = st.lists(
    st.tuples(
        coordinate, coordinate, coordinate, coordinate,
        st.integers(0, 1), st.integers(0, 1),
        st.sampled_from([0.5, 0.75]), st.sampled_from([5e-324, 0.25, 0.5]),
        st.sampled_from([None, 0, 3]),
    ),
    max_size=5,
)


@st.composite
def ensemble_instances(draw):
    """Sources over up to 8 uids, each uid in some of them (a uid may have
    no rows anywhere), and an ensemble config."""
    n_sources = draw(st.integers(1, 3))
    sources = [{} for _ in range(n_sources)]
    for u in range(draw(st.integers(0, 8))):
        for source in sources:
            if draw(st.booleans()):
                source[f"u{u}"] = sort_canonical(as_table([
                    StaHypothesis(Box2D(min(a, c), min(b, d), max(a, c), max(b, d)), noun, verb, ttc, score, src)
                    for a, b, c, d, noun, verb, ttc, score, src in draw(source_rows)
                ]))
    cfg = EnsembleConfig(agreement_weight=draw(st.sampled_from([0.5, 1.0])),
                         n_sources=n_sources + draw(st.integers(0, 1)), max_exports=draw(st.sampled_from([1, 2, 100])))
    return sources, cfg


def concatenated(preds):
    """The uids of a prediction set, the rows of each, and every column of
    their tables one after another."""
    uids = sorted(preds)
    return uids, [len(preds[uid]) for uid in uids], columns(HypothesisTable.concat([preds[uid] for uid in uids]))


class TestExampleBlocks:
    @settings(max_examples=200, deadline=None)
    @given(ensemble_instances(), st.sampled_from([1, 3, 1 << 17]))
    def test_blocks_equal_each_example_alone(self, instance, block):
        sources, cfg = instance
        uids = sorted(set().union(*sources))
        alone = {uid: ensemble_predictions([{uid: s[uid]} if uid in s else {} for s in sources], cfg)[uid]
                 for uid in uids}
        saved = boxes.EXAMPLE_BLOCK
        boxes.EXAMPLE_BLOCK = block
        try:
            blocked = ensemble_predictions(sources, cfg)
        finally:
            boxes.EXAMPLE_BLOCK = saved
        assert concatenated(blocked) == concatenated(alone)

    def test_an_underflowing_group_is_dropped_in_its_block(self, monkeypatch):
        # u0's one hypothesis merges to 5e-324 * 1/4, which underflows;
        # u1's and u2's tie with each other and keep their rows.
        tiny, half = as_table([hyp(score=5e-324)]), as_table([hyp(score=0.5)])
        cfg = EnsembleConfig(agreement_weight=1.0, n_sources=4)
        for block in (1, 1 << 17):
            monkeypatch.setattr(boxes, "EXAMPLE_BLOCK", block)
            merged = ensemble_predictions([{"u0": tiny, "u1": half, "u2": half}], cfg)
            assert [len(merged[uid]) for uid in ("u0", "u1", "u2")] == [0, 1, 1]
            assert merged["u1"].score.tolist() == merged["u2"].score.tolist() == [0.125]


def crowded_sources(n_examples: int, n_sources: int = 3, per_example: int = 100, seed: int = 0):
    """Sources of n_examples uids, each uid's hypotheses jittered around
    20 objects so that they group across sources."""
    rng = np.random.default_rng(seed)
    sources = [{} for _ in range(n_sources)]
    for e in range(n_examples):
        corner = rng.uniform(0, 500, (20, 2))
        objects = np.hstack([corner, corner + rng.uniform(20, 100, (20, 2))])
        noun, verb, ttc = rng.integers(0, 5, 20), rng.integers(0, 3, 20), rng.uniform(0, 2, 20)
        for source in sources:
            of = rng.integers(0, 20, per_example)
            boxes = objects[of] + rng.normal(0, 2, (per_example, 4))
            source[f"ex{e:04d}"] = sort_canonical(HypothesisTable(
                boxes=np.hstack([np.minimum(boxes[:, :2], boxes[:, 2:]), np.maximum(boxes[:, :2], boxes[:, 2:])]),
                noun=noun[of], verb=verb[of], ttc=np.abs(ttc[of] + rng.normal(0, 0.05, per_example)),
                score=rng.uniform(0.01, 1.0, per_example),
            ))
    return sources


class TestBoundedMemory:
    def temporaries(self, sources) -> int:
        """The allocation peak of ensemble_predictions beyond what its
        result holds."""
        ensemble_predictions(sources)  # numpy's lazily made state is not counted
        tracemalloc.start()
        try:
            merged = ensemble_predictions(sources)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(merged) == len(sources[0])
        return peak - held

    def test_peak_does_not_grow_with_the_examples(self):
        # 40 examples of 300 pooled hypotheses are 3 blocks, 160 are 12.
        few, many = self.temporaries(crowded_sources(40)), self.temporaries(crowded_sources(160))
        assert many < 1.2 * few, f"{many} bytes for 160 examples, {few} for 40"
