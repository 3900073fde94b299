import numpy as np
import pytest

from vista.types import shape_problems

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
