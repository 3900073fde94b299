"""Domain types shared by every stage of the anticipation pipeline.

All types are immutable after construction and safe for unrestricted
parallel use; every operation over them is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box2D
from .errors import ValidationError

# Per-example prediction lists keyed by example uid, each list kept sorted
# by the canonical hypothesis ordering (see `canonical_key`).
PredictionSet = dict[str, list["StaHypothesis"]]


@dataclass(frozen=True)
class Taxonomy:
    """Noun and verb vocabularies; category ids are indices into these lists."""

    noun_names: tuple[str, ...]
    verb_names: tuple[str, ...]

    def __post_init__(self):
        problems = []
        for kind, names in (("noun", self.noun_names), ("verb", self.verb_names)):
            if len(names) == 0:
                problems.append(f"{kind} vocabulary is empty")
            if len(set(names)) != len(names):
                problems.append(f"{kind} vocabulary has duplicate labels")
        if problems:
            raise ValidationError(problems)

    @property
    def n_nouns(self) -> int:
        return len(self.noun_names)

    @property
    def n_verbs(self) -> int:
        return len(self.verb_names)

    def check_ids(self, noun_id: int, verb_id: int, context: str = "") -> list[str]:
        """Return a list of problems (empty when both ids are in range)."""
        problems = []
        where = f" in {context}" if context else ""
        if not (0 <= noun_id < self.n_nouns):
            problems.append(f"noun_id {noun_id} out of range [0, {self.n_nouns}){where}")
        if not (0 <= verb_id < self.n_verbs):
            problems.append(f"verb_id {verb_id} out of range [0, {self.n_verbs}){where}")
        return problems


@dataclass(frozen=True)
class StaHypothesis:
    """One anticipation hypothesis: where, what, how, when, and how sure."""

    box: Box2D
    noun_id: int
    verb_id: int
    ttc: float
    score: float
    source_id: int | None = None

    def __post_init__(self):
        problems = []
        if not (math.isfinite(self.ttc) and self.ttc >= 0.0):
            problems.append(f"ttc must be finite and >= 0, got {self.ttc}")
        if not (math.isfinite(self.score) and self.score > 0.0):
            problems.append(f"score must be finite and > 0, got {self.score}")
        if self.noun_id < 0:
            problems.append(f"noun_id must be >= 0, got {self.noun_id}")
        if self.verb_id < 0:
            problems.append(f"verb_id must be >= 0, got {self.verb_id}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class GroundTruthInstance:
    """One annotated future interaction for an example."""

    example_uid: str
    box: Box2D
    noun_id: int
    verb_id: int
    ttc: float

    def __post_init__(self):
        problems = []
        if not (math.isfinite(self.ttc) and self.ttc >= 0.0):
            problems.append(f"ttc must be finite and >= 0, got {self.ttc}")
        if self.noun_id < 0:
            problems.append(f"noun_id must be >= 0, got {self.noun_id}")
        if self.verb_id < 0:
            problems.append(f"verb_id must be >= 0, got {self.verb_id}")
        if problems:
            raise ValidationError(problems)


# Column dtypes of a HypothesisTable.
_TABLE_COLUMNS = {
    "boxes": np.float64, "noun": np.int64, "verb": np.int64, "ttc": np.float64, "score": np.float64,
}


@dataclass(frozen=True, eq=False)
class HypothesisTable:
    """One example's hypotheses as columns; row i is one hypothesis.

    boxes (N, 4) float64 corners, noun and verb (N,) int64 ids, ttc and
    score (N,) float64. The columns are read-only and are validated as
    whole arrays, with the rules of StaHypothesis and Box2D. Tables that
    the postprocess stages pass between them are in canonical order
    (`sort_canonical`).
    """

    boxes: np.ndarray
    noun: np.ndarray
    verb: np.ndarray
    ttc: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        for name, dtype in _TABLE_COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        n = len(self.score)
        problems = [
            f"{name} must have shape {shape}, got {getattr(self, name).shape}"
            for name, shape in (
                ("boxes", (n, 4)), ("noun", (n,)), ("verb", (n,)), ("ttc", (n,)), ("score", (n,))
            )
            if getattr(self, name).shape != shape
        ]
        if problems:
            raise ValidationError(problems)
        x1, y1, x2, y2 = self.boxes.T
        finite = np.isfinite(self.boxes).all(axis=1)
        for bad, what in (
            (~finite, "box coordinates must be finite"),
            (finite & (x1 > x2), "box has x1 > x2"),
            (finite & (y1 > y2), "box has y1 > y2"),
            (~(np.isfinite(self.ttc) & (self.ttc >= 0.0)), "ttc must be finite and >= 0"),
            (~(np.isfinite(self.score) & (self.score > 0.0)), "score must be finite and > 0"),
            (self.noun < 0, "noun_id must be >= 0"),
            (self.verb < 0, "verb_id must be >= 0"),
        ):
            problems += [f"row {i}: {what}" for i in np.flatnonzero(bad).tolist()]
        if problems:
            raise ValidationError(problems)

    def __len__(self) -> int:
        return len(self.score)

    def take(self, rows) -> HypothesisTable:
        """The rows selected by a boolean mask, an index array or a slice."""
        return HypothesisTable(
            self.boxes[rows], self.noun[rows], self.verb[rows], self.ttc[rows], self.score[rows]
        )

    def to_hypotheses(self) -> list[StaHypothesis]:
        return [
            StaHypothesis(box=Box2D(*box), noun_id=noun, verb_id=verb, ttc=ttc, score=score)
            for box, noun, verb, ttc, score in zip(
                self.boxes.tolist(), self.noun.tolist(), self.verb.tolist(),
                self.ttc.tolist(), self.score.tolist(),
            )
        ]


def canonical_key(h: StaHypothesis):
    """Total ordering on hypotheses: score descending, then ascending
    (noun_id, verb_id, x1, y1, x2, y2, ttc). Makes every downstream sort,
    truncation, and tie-break bitwise reproducible."""
    return (-h.score, h.noun_id, h.verb_id, h.box.x1, h.box.y1, h.box.x2, h.box.y2, h.ttc)


def sort_canonical(hyps):
    """Put a list of hypotheses or a HypothesisTable in canonical order.

    A table is reordered with one stable lexsort over the `canonical_key`
    fields, so full ties keep their row order, as `sorted` keeps them.
    """
    if isinstance(hyps, HypothesisTable):
        b = hyps.boxes
        return hyps.take(
            np.lexsort((hyps.ttc, b[:, 3], b[:, 2], b[:, 1], b[:, 0], hyps.verb, hyps.noun, -hyps.score))
        )
    return sorted(hyps, key=canonical_key)
