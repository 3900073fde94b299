"""Axis-aligned box geometry in continuous pixel coordinates.

Boxes use corner coordinates with no +1 pixel convention:
area = (x2 - x1) * (y2 - y1). Zero-area boxes are representable but
match nothing (their IoU against anything is defined as 0).

The scalar definition of IoU is the oracle's (`oracle._iou_scalar`),
kept as the bit-exact reference that `pair_iou` is tested against;
`pair_iou` computes it over columns for many pairs at once with the
same operations in the same order, so both give the same bits, and
`pair_blocks` enumerates the pairs in bounded blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Box pairs compared at once. Bounds the temporaries of a pairwise pass
# however many boxes share one class: about 75 bytes a pair, 1.2 MB for a
# block of 2^14 (9.6 MB at 2^17), by tracemalloc over one `pair_blocks`
# block scored with `pair_iou`.
PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned box: (x1, y1) top-left, (x2, y2) bottom-right, pixels.

    A box is checked where it becomes a table row (`types.box_rules`):
    its corners must be finite, with x1 <= x2 and y1 <= y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def corners(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def box_columns(*boxes: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The x1, y1, x2, y2 columns of the rows of (N, 4) corners, of one
    array or of several one after another, contiguous, and the areas,
    (x2 - x1) * (y2 - y1). A box whose width or area passes the float
    maximum has an area of inf, or NaN if it has no height, without a
    warning: `pair_iou` gives every pair of it IoU 0."""
    x1, y1, x2, y2 = corners = [np.concatenate([b[:, i] for b in boxes]) for i in range(4)]
    with np.errstate(over="ignore", invalid="ignore"):
        return corners, (x2 - x1) * (y2 - y1)


def pair_iou(corners: list[np.ndarray], area: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The IoU of the boxes at rows a[i] and b[i], given the `box_columns`
    of the boxes, with the operations of `oracle._iou_scalar` in its
    order. Near the float maximum a difference, product or sum may
    overflow to inf or turn NaN, and numpy is kept from warning of it: the
    comparisons and the division that follow give such a pair IoU 0, as
    `oracle._iou_scalar` does. A NaN fails the comparisons, an
    intersection that overflows leaves a union that is NaN or -inf, and a
    finite one over an inf union is 0."""
    x1, y1, x2, y2 = corners
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ix = np.minimum(x2[a], x2[b]) - np.maximum(x1[a], x1[b])
        iy = np.minimum(y2[a], y2[b]) - np.maximum(y1[a], y1[b])
        inter = ix * iy
        union = area[a] + area[b] - inter
        keep = (ix > 0.0) & (iy > 0.0) & (union > 0.0)
        return np.where(keep, inter / union, 0.0)


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
