import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vista.boxes import Box2D, box_columns, pair_iou
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
