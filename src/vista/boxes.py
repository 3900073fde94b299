"""Axis-aligned box geometry in continuous pixel coordinates.

Boxes use corner coordinates with no +1 pixel convention:
area = (x2 - x1) * (y2 - y1). Zero-area boxes are representable but
match nothing (their IoU against anything is defined as 0).

The scalar definition of IoU is the oracle's (`oracle._iou_scalar`),
kept as the bit-exact reference that `pair_iou` is tested against;
`pair_iou` computes it over columns for many pairs at once with the
same operations in the same order, so both give the same bits, and
`pair_blocks` enumerates the pairs in bounded blocks. `greedy_owners`
is the one greedy pass over such pairs that NMS and ensemble grouping
share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Box pairs compared at once. Bounds the temporaries of a pairwise pass
# however many boxes share one class: about 75 bytes a pair, 1.2 MB for a
# block of 2^14 (9.6 MB at 2^17), by tracemalloc over one `pair_blocks`
# block scored with `pair_iou`.
PAIR_BLOCK = 1 << 14

# Rows taken at once, in blocks of whole examples, by the passes that work
# example by example: an example's count is its pooled hypotheses in
# `ensemble.ensemble_predictions`, its hypotheses and ground truths in
# `evaluation.evaluate`, and its retained proposals in
# `postprocess.postprocess_container`. Bounds what such a pass holds at
# once however many examples it is given. In the ensemble, about 600
# bytes a hypothesis, 2.5 MB for a block of 2^12 (12.6 MB for the 32,000
# of 64 examples at once), by tracemalloc over the call; blocks of 2^10
# hold 1.0 MB but make twice the numpy calls. In postprocess, about 200
# bytes a proposal held from its example's expansion until its block is
# suppressed, and about 620 at the peak of the block's pass: 2.4 MB for
# the 3,900 proposals of 13 examples of 300 with 3 nouns and 3 verbs each,
# by tracemalloc over `RankedHypotheses.concat` and `nms_block`. All three
# read it at the call.
EXAMPLE_BLOCK = 1 << 12


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


def count_blocks(counts: np.ndarray, block: int):
    """Cut items 0, ..., n - 1, item i counting counts[i], into runs.

    Yields (start, stop) for each run of items start, ..., stop - 1, in
    order: the most items from start whose counts add up to at most
    `block`, or the item at start alone if it counts more.
    """
    through = np.cumsum(counts)
    start, n = 0, len(counts)
    while start < n:
        budget = through[start] - counts[start] + block
        stop = max(start + 1, int(np.searchsorted(through, budget, side="right")))
        yield start, stop
        start = stop


def pair_blocks(first: np.ndarray, counts: np.ndarray, block: int = PAIR_BLOCK):
    """Pair row i with positions first[i], ..., first[i] + counts[i] - 1.

    Yields (rows, positions) index arrays, one entry per pair, in row
    order and then position order, about `block` pairs at a time (a row
    with more pairs than that comes alone, as in `count_blocks`).
    """
    for start, stop in count_blocks(counts, block):
        taken = counts[start:stop]
        rows = np.repeat(np.arange(start, stop), taken)
        offsets = np.repeat(first[start:stop] - (np.cumsum(taken) - taken), taken)
        yield rows, offsets + np.arange(len(rows))


def greedy_owners(keys: tuple[np.ndarray, ...], joins, owner: list[int]) -> list[int]:
    """Settle rows len(owner), ..., n - 1 by the greedy seed rule, in rank
    order, appending their owners to `owner`, which is returned.

    Rows rank by index, and `keys` splits them into classes (key columns
    as `np.lexsort` takes them). A row is a seed, with owner -1, unless a
    seed ranked above it in its class joins it; its owner is then the
    highest-ranked such seed. The seeds are the survivors of greedy NMS,
    and a seed with the rows it owns is a group of seed-anchored grouping.
    A row's owner depends only on the rows ranked above it, so settling a
    table one growing prefix per call gives the owners of one call.

    joins(higher, lower) tells, for arrays of same-class row pairs, whether
    the higher row joins the lower. It is asked once of each pair of a new
    row and a row of its class above it, never of a row with itself, in
    the `pair_blocks` of PAIR_BLOCK pairs (as it is at the call).
    """
    n, settled = len(keys[0]), len(owner)
    by_class = np.lexsort(keys)  # stable: rank order within each class
    position = np.empty(n, dtype=np.intp)  # of each row in by_class
    position[by_class] = np.arange(n)
    starts = np.arange(n) == 0  # of the classes, in by_class
    for key in keys:
        sorted_key = key[by_class]
        starts[1:] |= sorted_key[1:] != sorted_key[:-1]
    first = np.maximum.accumulate(np.where(starts, np.arange(n), 0))[position[settled:]]
    owner += [-1] * (n - settled)
    for rows, above in pair_blocks(first, position[settled:] - first, PAIR_BLOCK):
        lower, higher = settled + rows, by_class[above]
        joined = joins(higher, lower)
        # Pairs come in rank order of the lower row, then of the higher:
        # every row ranked above a lower row is settled when its pairs come.
        for low, high in zip(lower[joined].tolist(), higher[joined].tolist()):
            if owner[low] < 0 and owner[high] < 0:
                owner[low] = high
    return owner
