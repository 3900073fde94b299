"""Domain types shared by every stage of the anticipation pipeline.

All types are immutable after construction and safe for unrestricted
parallel use; every operation over them is a pure function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .boxes import Box2D
from .errors import ValidationError

# Per-example predictions keyed by example uid, each a HypothesisTable in
# the canonical hypothesis ordering (see `canonical_order`). Functions that
# take one also take lists of StaHypothesis, the form `synth` returns
# (see `as_table`).
PredictionSet = dict[str, "HypothesisTable"]


def number_problems(name: str, value, integer: bool = False) -> list[str]:
    """The problem with a value that must be a number, or an integer if
    `integer`; empty when there is none. A bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        return [f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}"]
    return []


def field_type_problems(config) -> list[str]:
    """`number_problems` of every field of a config dataclass whose fields
    are all annotated int or float."""
    return [
        problem
        for f in fields(config)
        for problem in number_problems(f.name, getattr(config, f.name), integer=f.type == "int")
    ]


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

    def valid_ids(self, noun: np.ndarray, verb: np.ndarray) -> np.ndarray:
        """Mask of the rows of id columns whose noun and verb are both in range."""
        return (noun >= 0) & (noun < self.n_nouns) & (verb >= 0) & (verb < self.n_verbs)

    def check_ids(self, noun_id: int, verb_id: int) -> list[str]:
        """Return a list of problems (empty when both ids are in range)."""
        problems = []
        if not (0 <= noun_id < self.n_nouns):
            problems.append(f"noun_id {noun_id} out of range [0, {self.n_nouns})")
        if not (0 <= verb_id < self.n_verbs):
            problems.append(f"verb_id {verb_id} out of range [0, {self.n_verbs})")
        return problems


@dataclass(frozen=True)
class StaHypothesis:
    """One anticipation hypothesis: where, what, how, when, and how sure.

    Objects only enter the library: `synth` builds them and the oracle
    reads them, and `as_table` turns a list of them into the
    HypothesisTable every computation runs on."""

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
    """One annotated future interaction for an example. Like
    StaHypothesis, it only enters the library (`as_gt_table`)."""

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
    "source": np.int64, "has_source": np.bool_,
}


def box_rules(boxes: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """The rules of Box2D over the rows of (N, 4) corners, in its order:
    (mask of the rows that break the rule, the rule)."""
    x1, y1, x2, y2 = boxes.T
    finite = np.isfinite(boxes).all(axis=1)
    return [
        (~finite, "box coordinates must be finite"),
        (finite & (x1 > x2), "box has x1 > x2"),
        (finite & (y1 > y2), "box has y1 > y2"),
    ]


def ground_truth_rules(noun, verb, ttc) -> list[tuple[np.ndarray, str]]:
    """The rules of GroundTruthInstance over columns, in its order: (mask
    of the rows that break the rule, the rule)."""
    return [
        (~(np.isfinite(ttc) & (ttc >= 0.0)), "ttc must be finite and >= 0"),
        (noun < 0, "noun_id must be >= 0"),
        (verb < 0, "verb_id must be >= 0"),
    ]


def hypothesis_rules(noun, verb, ttc, score) -> list[tuple[np.ndarray, str]]:
    """The rules of StaHypothesis over columns, in its order: those of
    GroundTruthInstance, with the score's rule second."""
    rules = ground_truth_rules(noun, verb, ttc)
    rules.insert(1, (~(np.isfinite(score) & (score > 0.0)), "score must be finite and > 0"))
    return rules


@dataclass(frozen=True, eq=False)
class HypothesisTable:
    """One example's hypotheses as columns; row i is one hypothesis.

    boxes (N, 4) float64 corners, noun and verb (N,) int64 ids, ttc and
    score (N,) float64, source (N,) int64 ids and has_source (N,) bool,
    which marks the rows that have a source id (any int64 is one, -1
    too). The two are given together; without them no row has a source.
    The columns are read-only and are
    validated as whole arrays, with the rules of StaHypothesis and Box2D.
    Tables that the stages pass between them are in canonical order
    (`sort_canonical`).
    """

    boxes: np.ndarray
    noun: np.ndarray
    verb: np.ndarray
    ttc: np.ndarray
    score: np.ndarray
    source: np.ndarray | None = None
    has_source: np.ndarray | None = None

    def __post_init__(self):
        n = len(np.asarray(self.score))
        if (self.source is None) != (self.has_source is None):
            raise ValidationError("source and has_source must be given together")
        if self.source is None:
            object.__setattr__(self, "source", np.zeros(n, dtype=np.int64))
            object.__setattr__(self, "has_source", np.zeros(n, dtype=bool))
        for name, dtype in _TABLE_COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        problems = [
            f"{name} must have shape {shape}, got {getattr(self, name).shape}"
            for name, shape in [("boxes", (n, 4))] + [(name, (n,)) for name in list(_TABLE_COLUMNS)[1:]]
            if getattr(self, name).shape != shape
        ]
        if problems:
            raise ValidationError(problems)
        for bad, what in box_rules(self.boxes) + hypothesis_rules(self.noun, self.verb, self.ttc, self.score):
            problems += [f"row {i}: {what}" for i in np.flatnonzero(bad).tolist()]
        if problems:
            raise ValidationError(problems)

    @classmethod
    def from_valid(cls, *columns: np.ndarray) -> HypothesisTable:
        """A table of columns, in field order, that already have their
        dtypes and shapes and keep every rule, such as the rows of another
        table: they are marked read-only but not copied or checked again."""
        table = object.__new__(cls)
        attributes = table.__dict__
        for name, column in zip(_TABLE_COLUMNS, columns):
            if column.flags.writeable:
                column.flags.writeable = False
            attributes[name] = column
        return table

    @classmethod
    def concat(cls, tables: list[HypothesisTable]) -> HypothesisTable:
        """The rows of the tables one after another."""
        if not tables:
            return cls(boxes=np.empty((0, 4)), noun=[], verb=[], ttc=[], score=[])
        return cls.from_valid(*(
            np.concatenate([getattr(t, name) for t in tables]) for name in _TABLE_COLUMNS
        ))

    def __len__(self) -> int:
        return len(self.score)

    def take(self, rows) -> HypothesisTable:
        """The rows selected by a boolean mask, an index array or a slice."""
        return HypothesisTable.from_valid(*(getattr(self, name)[rows] for name in _TABLE_COLUMNS))

    def head(self, n: int) -> HypothesisTable:
        """The first n rows; of a canonical table, the n highest ranked."""
        return self.take(slice(0, n))

    def with_default_source(self, source: int) -> HypothesisTable:
        """The table with `source` as the source of every row that has none."""
        return HypothesisTable.from_valid(
            self.boxes, self.noun, self.verb, self.ttc, self.score,
            np.where(self.has_source, self.source, source), np.ones(len(self), dtype=bool),
        )


def as_table(hyps) -> HypothesisTable:
    """A HypothesisTable as it is, or a list of StaHypothesis (`synth`'s
    output) as a table of the same rows in the same order."""
    if isinstance(hyps, HypothesisTable):
        return hyps
    return HypothesisTable(
        boxes=np.array([h.box.corners() for h in hyps], dtype=np.float64).reshape(-1, 4),
        noun=[h.noun_id for h in hyps],
        verb=[h.verb_id for h in hyps],
        ttc=[h.ttc for h in hyps],
        score=[h.score for h in hyps],
        source=[0 if h.source_id is None else h.source_id for h in hyps],
        has_source=[h.source_id is not None for h in hyps],
    )


@dataclass(frozen=True, eq=False)
class GroundTruthTable:
    """A ground truth as columns; row i is one annotation.

    uid (N,) tuple of example uids, boxes (N, 4) float64 corners, noun
    and verb (N,) int64 ids and ttc (N,) float64. The columns are
    read-only and are validated as whole arrays, with the rules of
    GroundTruthInstance and Box2D.
    """

    uid: tuple[str, ...]
    boxes: np.ndarray
    noun: np.ndarray
    verb: np.ndarray
    ttc: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "uid", tuple(self.uid))
        n = len(self.uid)
        problems = []
        for name, dtype, shape in (("boxes", np.float64, (n, 4)), ("noun", np.int64, (n,)),
                                   ("verb", np.int64, (n,)), ("ttc", np.float64, (n,))):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
            if column.shape != shape:
                problems.append(f"{name} must have shape {shape}, got {column.shape}")
        if problems:
            raise ValidationError(problems)
        for bad, what in box_rules(self.boxes) + ground_truth_rules(self.noun, self.verb, self.ttc):
            problems += [f"row {i}: {what}" for i in np.flatnonzero(bad).tolist()]
        if problems:
            raise ValidationError(problems)

    def __len__(self) -> int:
        return len(self.uid)


def as_gt_table(gts) -> GroundTruthTable:
    """A GroundTruthTable as it is, or a list of GroundTruthInstance
    (`synth`'s output) as a table of the same rows in the same order."""
    if isinstance(gts, GroundTruthTable):
        return gts
    return GroundTruthTable(
        uid=[gt.example_uid for gt in gts],
        boxes=np.array([gt.box.corners() for gt in gts], dtype=np.float64).reshape(-1, 4),
        noun=[gt.noun_id for gt in gts],
        verb=[gt.verb_id for gt in gts],
        ttc=[gt.ttc for gt in gts],
    )


def canonical_order(table: HypothesisTable, tie_break=None) -> np.ndarray:
    """The row indices that put a table in canonical order, the total
    order on hypotheses: score descending, then ascending (noun, verb, x1,
    y1, x2, y2, ttc). It makes every downstream sort, truncation and
    tie-break bitwise reproducible. The sort is a stable lexsort, so full
    ties keep their row order unless a `tie_break` column orders them.
    When no two scores are equal, the score alone orders the rows and one
    stable argsort of it gives the same indices."""
    by_score = np.argsort(-table.score, kind="stable")
    ranked = table.score[by_score]
    if not (ranked[1:] == ranked[:-1]).any():
        return by_score
    b = table.boxes
    keys = (table.ttc, b[:, 3], b[:, 2], b[:, 1], b[:, 0], table.verb, table.noun, -table.score)
    return np.lexsort(keys if tie_break is None else (tie_break,) + keys)


def sort_canonical(hyps):
    """Put a HypothesisTable, or a list of StaHypothesis, in canonical
    order. A list comes back as the same objects reordered: `synth` sorts
    its lists with it."""
    if isinstance(hyps, HypothesisTable):
        return hyps.take(canonical_order(hyps))
    return [hyps[i] for i in canonical_order(as_table(hyps)).tolist()]
