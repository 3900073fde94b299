import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vista.boxes import Box2D
from vista.errors import ValidationError
from vista.types import (
    GroundTruthInstance,
    GroundTruthTable,
    HypothesisTable,
    StaHypothesis,
    as_gt_table,
    as_table,
    rank_within,
    shape_problems,
)

BOXES = {"proposal_boxes": ("P", 4), "objectness": ("P",)}
CONTEXT = {"roi": ("D_roi",), "token_proj": ("D_token", "D_proj"), "layer1_w": (("D_roi", "D_proj"), "H")}


class TestShapeProblems:
    @pytest.mark.parametrize("contract, shapes, expected", [
        ({"a": (2, 3)}, {"a": (2, 3)}, {}),
        ({"a": (2, 3)}, {"a": (2, 4)}, {"a": "a must have shape (2, 3), got (2, 4)"}),
        ({"a": (2,)}, {"a": ()}, {"a": "a must have shape (2,), got ()"}),
        (BOXES, {"proposal_boxes": (3, 4), "objectness": (3,)}, {}),
        (BOXES, {"proposal_boxes": (3, 4), "objectness": (5,)},
         {"objectness": "objectness must have shape (P,) with P=3, got (5,)"}),
        (CONTEXT, {"roi": (4,), "token_proj": (3, 2), "layer1_w": (6, 5)}, {}),
        (CONTEXT, {"roi": (4,), "token_proj": (3, 2), "layer1_w": (7, 5)},
         {"layer1_w": "layer1_w must have shape (D_roi + D_proj, H) with D_roi=4, D_proj=2, H=5, got (7, 5)"}),
        (CONTEXT, {"roi": (4,), "layer1_w": (7, 5)}, {}),
        (BOXES, {"proposal_boxes": (6,), "objectness": (5,)},
         {"proposal_boxes": "proposal_boxes must have shape (P, 4) with P=6, got (6,)",
          "objectness": "objectness must have shape (P,) with P=6, got (5,)"}),
        (BOXES, {"proposal_boxes": (), "objectness": (5,)},
         {"proposal_boxes": "proposal_boxes must have shape (P, 4), got ()"}),
        (BOXES, {"objectness": (5,)}, {}),
        ({**BOXES, "quality": ("P",)}, {"objectness": (5,), "quality": (4,)},
         {"quality": "quality must have shape (P,) with P=5, got (4,)"}),
        ({"x": ("N", "N")}, {"x": (2, 3)}, {"x": "x must have shape (N, N) with N=2, got (2, 3)"}),
        ({"a": ("P",), "b": ("Q", 2, "P")}, {"a": (3,), "b": (1, 3, 4)},
         {"b": "b must have shape (Q, 2, P) with Q=1, P=3, got (1, 3, 4)"}),
    ], ids=["ints", "int mismatch", "int rank", "symbol", "symbol mismatch", "sum", "sum mismatch",
            "sum unbound", "binds from wrong rank", "unbound without the axis", "missing skipped",
            "missing binds later", "with once per symbol", "with in dim order"])
    def test_table(self, contract, shapes, expected):
        assert shape_problems(contract, {name: np.zeros(shape) for name, shape in shapes.items()}) == expected

    def test_problems_in_contract_order(self):
        contract = {"c": ("P",), "a": ("P", 2), "b": (1,)}
        arrays = {"b": np.zeros(2), "a": np.zeros(3), "c": np.zeros(3)}
        assert list(shape_problems(contract, arrays)) == ["a", "b"]


GOOD_BOX = Box2D(0.0, 0.0, 10.0, 10.0)
# Each box rule, with a box that breaks it.
BAD_BOXES = [
    (Box2D(0.0, 0.0, math.nan, 10.0), "box coordinates must be finite"),
    (Box2D(0.0, -math.inf, 10.0, 10.0), "box coordinates must be finite"),
    (Box2D(10.0, 0.0, 5.0, 10.0), "box has x1 > x2"),
    (Box2D(0.0, 10.0, 10.0, 5.0), "box has y1 > y2"),
]
# Each value rule, with a field value that breaks it.
BAD_VALUES = [
    ("ttc", -0.5, "ttc must be finite and >= 0"),
    ("ttc", math.nan, "ttc must be finite and >= 0"),
    ("ttc", math.inf, "ttc must be finite and >= 0"),
    ("score", 0.0, "score must be finite and > 0"),
    ("score", -1.0, "score must be finite and > 0"),
    ("score", math.nan, "score must be finite and > 0"),
    ("score", math.inf, "score must be finite and > 0"),
    ("noun_id", -1, "noun_id must be >= 0"),
    ("verb_id", -1, "verb_id must be >= 0"),
]


class TestObjectsCheckedAsRows:
    """Objects are not checked on their own: the table they become
    checks them, and names a bad one by its row."""

    def hypothesis(self, **fields):
        return StaHypothesis(**{"box": GOOD_BOX, "noun_id": 0, "verb_id": 0, "ttc": 1.0, "score": 0.5, **fields})

    def annotation(self, **fields):
        return GroundTruthInstance(**{"example_uid": "ex", "box": GOOD_BOX, "noun_id": 0, "verb_id": 0,
                                      "ttc": 1.0, **fields})

    @pytest.mark.parametrize("box, rule", BAD_BOXES)
    def test_bad_box(self, box, rule):
        with pytest.raises(ValidationError) as err:
            as_table([self.hypothesis(), self.hypothesis(box=box)])
        assert err.value.problems == [f"row 1: {rule}"]
        with pytest.raises(ValidationError) as err:
            as_gt_table([self.annotation(), self.annotation(box=box)])
        assert err.value.problems == [f"row 1: {rule}"]

    @pytest.mark.parametrize("name, value, rule", BAD_VALUES)
    def test_bad_value(self, name, value, rule):
        with pytest.raises(ValidationError) as err:
            as_table([self.hypothesis(), self.hypothesis(**{name: value})])
        assert err.value.problems == [f"row 1: {rule}"]
        if name != "score":
            with pytest.raises(ValidationError) as err:
                as_gt_table([self.annotation(), self.annotation(**{name: value})])
            assert err.value.problems == [f"row 1: {rule}"]

    def test_every_bad_field_of_a_row_listed(self):
        with pytest.raises(ValidationError) as err:
            as_table([self.hypothesis(box=Box2D(1.0, 0.0, 0.0, 1.0), noun_id=-2, score=0.0)])
        assert err.value.problems == [
            "row 0: box has x1 > x2", "row 0: score must be finite and > 0", "row 0: noun_id must be >= 0"]

    def test_good_objects_pass(self):
        assert len(as_table([self.hypothesis(), self.hypothesis(box=Box2D(1.0, 1.0, 1.0, 1.0), ttc=0.0)])) == 2
        assert len(as_gt_table([self.annotation(), self.annotation(ttc=0.0)])) == 2


class TestTableShapes:
    def test_hypothesis_table_rows_come_from_score(self):
        with pytest.raises(ValidationError) as err:
            HypothesisTable(boxes=np.zeros((3, 4)), noun=[0, 0], verb=[0], ttc=[1.0, 1.0], score=[0.5, 0.5])
        assert err.value.problems == [
            "boxes must have shape (N, 4) with N=2, got (3, 4)",
            "verb must have shape (N,) with N=2, got (1,)",
        ]

    def test_ground_truth_table_rows_come_from_uid(self):
        with pytest.raises(ValidationError) as err:
            GroundTruthTable(uid=["a", "b"], boxes=np.zeros((2, 3)), noun=[0, 0], verb=[0, 0], ttc=[[1.0], [1.0]])
        assert err.value.problems == [
            "boxes must have shape (N, 4) with N=2, got (2, 3)",
            "ttc must have shape (N,) with N=2, got (2, 1)",
        ]


# One row: corners on a coarse grid, few ids, ttcs and scores, a source
# id or none, and an example code from three, so that scores tie within
# and across codes and full ties are split only by the tie-break columns.
ranked_rows = st.lists(
    st.tuples(
        st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
        st.integers(0, 1), st.integers(0, 1),
        st.sampled_from([0.5, 1.0]), st.sampled_from([0.25, 0.5]),
        st.integers(-1, 1), st.booleans(), st.integers(0, 2),
    ),
    max_size=12,
)


def reference_rank_within(rows, top_k, tie_break: bool) -> list[int]:
    """Each code's rows sorted by the canonical key tuple, then the
    source (rows without one first) when `tie_break`, then row index, cut
    to top_k; the rows kept, ranked by the same key with the code before
    the row index."""
    def key(i):
        x1, y1, w, h, noun, verb, ttc, score, source, has_source, code = rows[i]
        canonical = (-score, noun, verb, x1, y1, x1 + w, y1 + h, ttc)
        return canonical + ((has_source, source) if tie_break else ()) + (code, i)

    kept = []
    for code in {row[-1] for row in rows}:
        ranked = sorted((i for i, row in enumerate(rows) if row[-1] == code), key=key)
        kept += ranked if top_k is None else ranked[:top_k]
    return sorted(kept, key=key)


def ranked_tables(rows, cuts: list[int]) -> list[HypothesisTable]:
    """The rows as tables, split at `cuts`."""
    bounds = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
    return [HypothesisTable(
        boxes=np.array([[x1, y1, x1 + w, y1 + h] for x1, y1, w, h, *_ in part], dtype=np.float64).reshape(-1, 4),
        noun=[row[4] for row in part], verb=[row[5] for row in part], ttc=[row[6] for row in part],
        score=[row[7] for row in part], source=[row[8] for row in part], has_source=[row[9] for row in part],
    ) for part in (rows[a:b] for a, b in zip(bounds, bounds[1:]))]


class TestRankWithin:
    @settings(max_examples=300, deadline=None)
    @given(ranked_rows, st.lists(st.integers(0, 12), max_size=3), st.booleans(),
           st.sampled_from([None, 1, 2, 3, 12, 2**63, 10**30]))
    def test_equals_the_scalar_reference(self, rows, cuts, tie_break, top_k):
        tables = ranked_tables(rows, cuts)
        code = np.array([row[-1] for row in rows], dtype=np.int64)
        source = HypothesisTable.column(tables, "source"), HypothesisTable.column(tables, "has_source")
        got = rank_within(tables if cuts else tables[0], code, top_k, source if tie_break else ())
        assert got.tolist() == reference_rank_within(rows, top_k, tie_break)

    @pytest.mark.parametrize("top_k", [None, 1, 2**63])
    def test_empty(self, top_k):
        empty = ranked_tables([], [])
        code = np.zeros(0, dtype=np.int64)
        assert rank_within(empty[0], code, top_k).tolist() == []
        assert rank_within([], code, top_k).tolist() == []
        assert rank_within(empty * 2, code, top_k).tolist() == []
