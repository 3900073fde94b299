import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vista.boxes as vista_boxes
from vista.boxes import Box2D, box_columns, greedy_owners, pair_iou
from vista.errors import ValidationError
from vista.oracle import _iou_scalar
from vista.types import StaHypothesis, as_table


def iou(a: Box2D, b: Box2D) -> float:
    """`pair_iou` of one pair of boxes."""
    corners, area = box_columns(np.array([a.corners(), b.corners()], dtype=np.float64))
    return float(pair_iou(corners, area, np.array([0]), np.array([1]))[0])


def grid_iou(a: Box2D, b: Box2D, cells: int = 600) -> float:
    """Pixel-membership counting oracle: sample a fine grid over the joint
    extent and count cells inside each box."""
    x_lo = min(a.x1, b.x1)
    x_hi = max(a.x2, b.x2)
    y_lo = min(a.y1, b.y1)
    y_hi = max(a.y2, b.y2)
    dx = (x_hi - x_lo) / cells
    dy = (y_hi - y_lo) / cells
    inter = union = 0
    for i in range(cells):
        x = x_lo + (i + 0.5) * dx
        in_ax = a.x1 <= x <= a.x2
        in_bx = b.x1 <= x <= b.x2
        if not (in_ax or in_bx):
            continue
        for j in range(cells):
            y = y_lo + (j + 0.5) * dy
            in_a = in_ax and a.y1 <= y <= a.y2
            in_b = in_bx and b.y1 <= y <= b.y2
            if in_a or in_b:
                union += 1
            if in_a and in_b:
                inter += 1
    return inter / union if union else 0.0


# dyadic coordinates (multiples of 1/16) keep translation arithmetic exact
dyadic = lambda lo, hi: st.integers(int(lo * 16), int(hi * 16)).map(lambda n: n / 16)
boxes = st.builds(
    lambda x1, y1, w, h: Box2D(x1, y1, x1 + w, y1 + h),
    dyadic(-100, 100),
    dyadic(-100, 100),
    dyadic(0, 50),
    dyadic(0, 50),
)


class TestIou:
    def test_identical(self):
        b = Box2D(0, 0, 1, 1)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box2D(0, 0, 1, 1), Box2D(5, 5, 6, 6)) == 0.0

    def test_partial_overlap_matches_grid_oracle(self):
        a = Box2D(0, 0, 2, 2)
        b = Box2D(1, 1, 3, 3)
        value = iou(a, b)
        assert value == pytest.approx(1 / 7)
        assert value == pytest.approx(grid_iou(a, b), abs=2e-3)

    def test_zero_area_matches_nothing(self):
        point = Box2D(1, 1, 1, 1)
        assert iou(point, point) == 0.0
        assert iou(point, Box2D(0, 0, 2, 2)) == 0.0

    def test_invalid_box_rejected(self):
        # A box is checked where it becomes a table row.
        for box, rule in ((Box2D(2, 0, 1, 1), "box has x1 > x2"),
                          (Box2D(0, 0, math.nan, 1), "box coordinates must be finite")):
            with pytest.raises(ValidationError) as err:
                as_table([StaHypothesis(box, 0, 0, 1.0, 0.5)])
            assert err.value.problems == [f"row 0: {rule}"]

    @given(boxes, boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes, boxes, dyadic(-50, 50), dyadic(-50, 50))
    def test_joint_translation_invariance(self, a, b, tx, ty):
        shifted_a = Box2D(a.x1 + tx, a.y1 + ty, a.x2 + tx, a.y2 + ty)
        shifted_b = Box2D(b.x1 + tx, b.y1 + ty, b.x2 + tx, b.y2 + ty)
        assert iou(shifted_a, shifted_b) == pytest.approx(iou(a, b), abs=1e-9)

    @given(boxes)
    def test_self_iou_is_one_for_positive_area(self, b):
        if (b.x2 - b.x1) * (b.y2 - b.y1) > 0:
            assert iou(b, b) == 1.0


BIG = sys.float_info.max
# Corners drawn from these meet, touch and nest often, span zero widths,
# and overflow a width or an area near the float64 maximum.
SPECIAL = [0.0, -0.0, 1.0, 2.0, 3.0, 0.1, 0.3, 1e-300, 5e-324, 1e154, 1e200, BIG / 2, BIG, -BIG]
corner = st.one_of(dyadic(-100, 100), st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
any_boxes = st.tuples(corner, corner, corner, corner).map(
    lambda c: Box2D(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])))


class TestPairIouIsTheOracleIou:
    """`pair_iou` gives the bits of the oracle's scalar IoU, pair by pair,
    also where a width, an area or the union overflows."""

    @given(st.lists(st.one_of(boxes, any_boxes), min_size=1, max_size=6))
    @example([Box2D(0, 0, 1, 1), Box2D(1, 0, 2, 1), Box2D(0, 1, 1, 2)])    # touching
    @example([Box2D(1, 1, 1, 1), Box2D(0, 0, 2, 2), Box2D(0, 1, 2, 1)])    # zero area
    @example([Box2D(-BIG, -BIG, BIG, BIG), Box2D(-BIG, 0, BIG, BIG), Box2D(0, 0, BIG, BIG)])
    @example([Box2D(0, 0, BIG, BIG), Box2D(BIG / 2, BIG / 2, BIG, BIG)])
    def test_bit_for_bit(self, box_list):
        n = len(box_list)
        a, b = (index.ravel() for index in np.indices((n, n)))
        with np.errstate(over="ignore", invalid="ignore"):
            corners, area = box_columns(np.array([box.corners() for box in box_list], dtype=np.float64))
            got = pair_iou(corners, area, a, b).tolist()
        want = [_iou_scalar(box_list[i], box_list[j]) for i, j in zip(a.tolist(), b.tolist())]
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]


def seed_first_owners(classes, joined):
    """The greedy rule taken seed first, over rows 0, ..., n - 1 in rank
    order: the highest-ranked remaining row is a seed, and it claims every
    remaining row of its class that it joins. classes[i] is the class of
    row i; (h, l) in joined says that row h joins row l. -1 marks a seed."""
    owner = [-1] * len(classes)
    remaining = list(range(len(classes)))
    while remaining:
        seed, remaining = remaining[0], remaining[1:]
        for row in remaining:
            if classes[row] == classes[seed] and (seed, row) in joined:
                owner[row] = seed
        remaining = [row for row in remaining if owner[row] < 0]
    return owner


def pair_joins(joined, asked):
    """A joins predicate over the set of pairs `joined`, recording every
    pair it is asked of in `asked`."""
    def joins(higher, lower):
        pairs = list(zip(higher.tolist(), lower.tolist()))
        asked.extend(pairs)
        return np.array([pair in joined for pair in pairs], dtype=bool)
    return joins


# Rows with one to three key columns of few values, so classes repeat,
# and a random set of joined pairs, any row joining any other.
key_tables = st.integers(0, 24).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=1, max_size=3),
    st.sets(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=4 * n),
))


class TestGreedyOwners:
    """`greedy_owners` settles rows as the seed-first greedy rule does."""

    @settings(deadline=None)
    @given(key_tables, st.sampled_from([1, 3, 1 << 14]))
    def test_equals_seed_first_reference(self, table, block):
        columns, joined = table
        keys = tuple(np.array(column, dtype=np.int64) for column in columns)
        classes = list(zip(*columns))
        asked = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vista_boxes, "PAIR_BLOCK", block)
            owner = greedy_owners(keys, pair_joins(joined, asked), [])
        assert owner == seed_first_owners(classes, joined)
        # Each pair of a row and a row of its class ranked above it, once,
        # in rank order of the lower row and then of the higher.
        assert asked == [(h, low) for low in range(len(classes)) for h in range(low)
                         if classes[h] == classes[low]]

    @settings(deadline=None)
    @given(key_tables, st.lists(st.integers(0, 24), max_size=4))
    def test_settling_growing_prefixes_equals_one_call(self, table, cuts):
        columns, joined = table
        keys = tuple(np.array(column, dtype=np.int64) for column in columns)
        n = len(keys[0])
        owner = []
        for cut in sorted(min(cut, n) for cut in cuts) + [n]:
            greedy_owners(tuple(key[:cut] for key in keys), pair_joins(joined, []), owner)
            assert len(owner) == cut
        assert owner == greedy_owners(keys, pair_joins(joined, []), [])

    def test_chain_alternates_seeds(self):
        # Each row is joined only by the row above it: a claimed row claims
        # nothing, so every other row is a seed.
        joined = {(i, i + 1) for i in range(6)}
        owner = greedy_owners((np.zeros(7, dtype=np.int64),), pair_joins(joined, []), [])
        assert owner == [-1, 0, -1, 2, -1, 4, -1] == seed_first_owners([0] * 7, joined)

    def test_rows_nothing_joins_are_seeds(self):
        keys = (np.array([0, 1, 0, 1, 0]),)
        assert greedy_owners(keys, pair_joins(set(), []), []) == [-1] * 5

    def test_empty_table(self):
        asked = []
        assert greedy_owners((np.array([], dtype=np.int64),), pair_joins(set(), asked), []) == []
        assert asked == []

    @given(st.lists(st.one_of(boxes, st.sampled_from([Box2D(5, 5, 5, 9), Box2D(0, 0, 0, 0), Box2D(0, 0, 10, 10)])),
                    max_size=12),
           st.sampled_from([1e-4, 0.5, 1.0]))
    def test_seeds_that_do_not_join_themselves(self, box_list, threshold):
        # A zero-area box has IoU 0 with every box, itself included: as a
        # seed it claims nothing, and the rows below it fall to later seeds.
        corners, area = box_columns(np.array([b.corners() for b in box_list], dtype=np.float64).reshape(-1, 4))
        owner = greedy_owners((np.zeros(len(box_list), dtype=np.int64),),
                              lambda higher, lower: pair_iou(corners, area, higher, lower) >= threshold, [])
        joined = {(h, low) for h in range(len(box_list)) for low in range(len(box_list))
                  if _iou_scalar(box_list[h], box_list[low]) >= threshold}
        assert owner == seed_first_owners([0] * len(box_list), joined)
