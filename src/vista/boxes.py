"""Axis-aligned box geometry in continuous pixel coordinates.

Boxes use corner coordinates with no +1 pixel convention:
area = (x2 - x1) * (y2 - y1). Zero-area boxes are representable but
match nothing (their IoU against anything is defined as 0).

`iou` is the scalar definition; `pair_iou` computes it over columns for
many pairs at once with the same operations in the same order, so both
give the same bits, and `pair_blocks` enumerates the pairs in bounded
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Box pairs compared at once. Bounds the temporaries of a pairwise pass to
# a few MB however many boxes share one class.
PAIR_BLOCK = 1 << 17


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned box: (x1, y1) top-left, (x2, y2) bottom-right, pixels."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (self.x1, self.y1, self.x2, self.y2)
        problems = []
        if not all(math.isfinite(c) for c in coords):
            problems.append(f"box coordinates must be finite, got {coords}")
        else:
            if self.x1 > self.x2:
                problems.append(f"box has x1 > x2: {coords}")
            if self.y1 > self.y2:
                problems.append(f"box has y1 > y2: {coords}")
        if problems:
            raise ValidationError(problems)

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def iou(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Two boxes whose union has zero area (both degenerate) score 0.
    """
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_columns(boxes: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The x1, y1, x2, y2 columns of (N, 4) corners, contiguous, and the
    areas, as `Box2D.area` computes them."""
    x1, y1, x2, y2 = corners = [np.ascontiguousarray(boxes[:, i]) for i in range(4)]
    return corners, (x2 - x1) * (y2 - y1)


def pair_iou(corners: list[np.ndarray], area: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`iou` of the boxes at rows a[i] and b[i], given the `box_columns`
    of the boxes, with its operations in its order."""
    x1, y1, x2, y2 = corners
    ix = np.minimum(x2[a], x2[b]) - np.maximum(x1[a], x1[b])
    iy = np.minimum(y2[a], y2[b]) - np.maximum(y1[a], y1[b])
    inter = ix * iy
    union = area[a] + area[b] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((ix > 0.0) & (iy > 0.0) & (union > 0.0), inter / union, 0.0)


def pair_blocks(first: np.ndarray, counts: np.ndarray, block: int = PAIR_BLOCK):
    """Pair row i with positions first[i], ..., first[i] + counts[i] - 1.

    Yields (rows, positions) index arrays, one entry per pair, in row
    order and then position order, about `block` pairs at a time (a row
    with more pairs than that comes alone).
    """
    through = np.cumsum(counts)
    start, n = 0, len(counts)
    while start < n:
        budget = through[start] - counts[start] + block
        stop = max(start + 1, int(np.searchsorted(through, budget, side="right")))
        taken = counts[start:stop]
        rows = np.repeat(np.arange(start, stop), taken)
        offsets = np.repeat(first[start:stop] - (np.cumsum(taken) - taken), taken)
        yield rows, offsets + np.arange(len(rows))
        start = stop


def same_key_pairs(keys: np.ndarray, block: int = PAIR_BLOCK):
    """Every pair of rows i < j with keys[i] == keys[j], for sorted keys,
    as (i, j) index arrays from `pair_blocks`."""
    n = len(keys)
    later = np.searchsorted(keys, keys, side="right") - np.arange(n) - 1
    return pair_blocks(np.arange(1, n + 1), later, block)
