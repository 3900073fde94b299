"""Domain types shared by every stage of the anticipation pipeline.

All types are immutable after construction and safe for unrestricted
parallel use; every operation over them is a pure function.

Every array container, the tables here, `postprocess.ProposalBatch` and
the fusion parameters, declares its arrays' dims and fixed dtypes once,
on their fields (`array_field`); `shape_problems` checks against them.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .boxes import Box2D
from .errors import ValidationError


def number_problems(name: str, value, integer: bool = False) -> list[str]:
    """The problem with a value that must be a number, or an integer if
    `integer`; empty when there is none. A bool is not a number here, and
    an int too large for a float is not one either: arithmetic with
    floats would overflow on it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        return [f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}"]
    if not integer:
        try:
            float(value)
        except OverflowError:
            return [f"{name} must be a number within the float range, got {value!r}"]
    return []


# The rules a setting can declare, by the words its problem names them
# with; a value keeps a rule when its test is true. NaN keeps none.
RULES = {
    ">= 1": lambda v: v >= 1,
    "positive": lambda v: v > 0.0,
    "finite and >= 0": lambda v: math.isfinite(v) and v >= 0.0,
    "finite and > 0": lambda v: math.isfinite(v) and v > 0.0,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
}


def setting(default, rule: str):
    """A config field with its default and the `RULES` key of the rule
    its value must keep. A field without one takes any number of its
    type."""
    return field(default=default, metadata={"rule": rule})


def check_settings(settings: list[tuple[str, object, str, str | None]]) -> None:
    """Check settings given as (name, value, type, rule), the type "int"
    or "float" and the rule a `RULES` key or None. Raises a
    ValidationError listing every value not of its type, worded by
    `number_problems`, or if there is none every value that breaks its
    rule, as "<name> must be <rule>, got <value>"."""
    problems = [problem for name, value, kind, _ in settings
                for problem in number_problems(name, value, integer=kind == "int")]
    if not problems:
        problems = [f"{name} must be {rule}, got {value}" for name, value, _, rule in settings
                    if rule is not None and not RULES[rule](value)]
    if problems:
        raise ValidationError(problems)


def check_fields(config) -> None:
    """`check_settings` of every field of a config dataclass, annotated
    int or float and declared with `setting`: its `__post_init__`."""
    check_settings([(f.name, getattr(config, f.name), f.type, f.metadata.get("rule")) for f in fields(config)])


def array_field(*dims, dtype=None, default=MISSING):
    """An array field with its dims, in the symbols of `shape_problems`,
    and its dtype where its class fixes one."""
    return field(default=default, metadata={"dims": dims, "dtype": dtype})


def contract(cls, prefix: str = "") -> dict[str, tuple]:
    """The dims of every array field of a class, by prefixed name."""
    return {prefix + f.name: f.metadata["dims"] for f in fields(cls) if "dims" in f.metadata}


def shape_problems(contract: dict[str, tuple], arrays: dict[str, np.ndarray],
                   sizes: dict[str, int] | None = None) -> dict[str, str]:
    """The shape problem of each array that breaks its contract, by name,
    in contract order. The contract gives each array's dims: an int is a
    fixed size, a symbol a size every use shares and a tuple of symbols
    their sum. A symbol takes its size from `sizes`, or else from the
    first array in contract order that names it outside a sum, at that
    axis if the array has it. Names missing from `arrays` are skipped."""
    shapes = {name: arrays[name].shape for name in contract if name in arrays}
    sizes = dict(sizes or {})
    for name, shape in shapes.items():
        for axis, dim in enumerate(contract[name]):
            if isinstance(dim, str):
                sizes.setdefault(dim, shape[axis] if axis < len(shape) else None)
    problems = {}
    for name, shape in shapes.items():
        terms = [(dim,) if isinstance(dim, str) else dim for dim in contract[name]]
        parts = [[term] if isinstance(term, int) else [sizes.get(s) for s in term] for term in terms]
        if len(shape) != len(terms) or any(None not in part and got != sum(part) for got, part in zip(shape, parts)):
            text = ", ".join(str(t) if isinstance(t, int) else " + ".join(t) for t in terms)
            text += "," if len(terms) == 1 else ""
            symbols = dict.fromkeys(s for term in terms if not isinstance(term, int) for s in term)
            where = ", ".join(f"{s}={sizes[s]}" for s in symbols if sizes.get(s) is not None)
            problems[name] = f"{name} must have shape ({text}){f' with {where}' if where else ''}, got {shape}"
    return problems


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

    def outside_ids(self, noun: np.ndarray, verb: np.ndarray) -> list[tuple[str, np.ndarray, int]]:
        """For the noun and then the verb id column: its name, the mask of
        its rows whose id is out of range and the size of the range."""
        return [(name, (ids < 0) | (ids >= size), size)
                for name, ids, size in (("noun", noun, self.n_nouns), ("verb", verb, self.n_verbs))]


@dataclass(frozen=True)
class StaHypothesis:
    """One anticipation hypothesis: where, what, how, when, and how sure.

    Objects are accepted only where they enter the library: `synth`
    returns them, `as_table` turns a list of them into the
    HypothesisTable every other stage takes, `as_predictions` does so for
    a mapping of uids to lists of them, and `sort_canonical` and the
    oracle also take lists of them. They are not checked on their own:
    the table checks every row."""

    box: Box2D
    noun_id: int
    verb_id: int
    ttc: float
    score: float
    source_id: int | None = None


@dataclass(frozen=True)
class GroundTruthInstance:
    """One annotated future interaction for an example. Like
    StaHypothesis, it is accepted only where it enters the library:
    `synth` returns it, `as_gt_table` checks it as a row of a
    GroundTruthTable, and `evaluation.evaluate` and the oracle also take
    lists of it."""

    example_uid: str
    box: Box2D
    noun_id: int
    verb_id: int
    ttc: float


def box_rules(boxes: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """The rules of a box over the rows of (N, 4) corners: (mask of the
    rows that break the rule, the rule)."""
    x1, y1, x2, y2 = boxes.T
    finite = np.isfinite(boxes).all(axis=1)
    return [
        (~finite, "box coordinates must be finite"),
        (finite & (x1 > x2), "box has x1 > x2"),
        (finite & (y1 > y2), "box has y1 > y2"),
    ]


def ground_truth_rules(noun, verb, ttc) -> list[tuple[np.ndarray, str]]:
    """The value rules of an annotation over the columns of its ids and
    time-to-contact: (mask of the rows that break the rule, the rule)."""
    return [
        (~(np.isfinite(ttc) & (ttc >= 0.0)), "ttc must be finite and >= 0"),
        (noun < 0, "noun_id must be >= 0"),
        (verb < 0, "verb_id must be >= 0"),
    ]


def hypothesis_rules(noun, verb, ttc, score) -> list[tuple[np.ndarray, str]]:
    """The value rules of a hypothesis over columns: those of an
    annotation, with the score's rule second."""
    rules = ground_truth_rules(noun, verb, ttc)
    rules.insert(1, (~(np.isfinite(score) & (score > 0.0)), "score must be finite and > 0"))
    return rules


def _columns(cls) -> dict[str, tuple]:
    """The array fields of a table class, in field order: dtype and dims."""
    return {f.name: (f.metadata["dtype"], f.metadata["dims"]) for f in fields(cls) if "dims" in f.metadata}


def _set_columns(table, columns: dict[str, tuple], n: int, rules) -> None:
    """Set the columns of a frozen table, `_columns` of its class, as
    read-only arrays of their dtypes. Raises a ValidationError listing
    every column whose shape is not its dims with N = n (`shape_problems`),
    or if there is none every row that breaks one of `rules(table)`, rule
    by rule, as "row <i>: <rule>"."""
    arrays = {name: np.array(getattr(table, name), dtype=dtype) for name, (dtype, _) in columns.items()}
    for column in arrays.values():
        column.flags.writeable = False
    table.__dict__.update(arrays)
    problems = list(shape_problems({name: dims for name, (_, dims) in columns.items()}, arrays, {"N": n}).values())
    if not problems:
        problems = [f"row {i}: {rule}" for bad, rule in rules(table) for i in np.flatnonzero(bad).tolist()]
    if problems:
        raise ValidationError(problems)


@dataclass(frozen=True, eq=False)
class HypothesisTable:
    """Hypotheses as columns, of one example or of a block of whole
    examples; row i is one hypothesis.

    Each column is an array field with its dtype and dims (N the rows):
    box corners, noun and verb ids, ttc, score, and source ids with
    has_source, which marks the rows that have one (any int64 is one, -1
    too). The two are given together; without them no row has a source.
    The columns are read-only and are validated as whole arrays, with
    `box_rules` and `hypothesis_rules`. The rows may be in any order:
    each stage ranks the rows it takes (`rank_within`).
    """

    boxes: np.ndarray = array_field("N", 4, dtype=np.float64)
    noun: np.ndarray = array_field("N", dtype=np.int64)
    verb: np.ndarray = array_field("N", dtype=np.int64)
    ttc: np.ndarray = array_field("N", dtype=np.float64)
    score: np.ndarray = array_field("N", dtype=np.float64)
    source: np.ndarray | None = array_field("N", dtype=np.int64, default=None)
    has_source: np.ndarray | None = array_field("N", dtype=np.bool_, default=None)

    def __post_init__(self):
        n = len(np.asarray(self.score))
        if (self.source is None) != (self.has_source is None):
            raise ValidationError("source and has_source must be given together")
        if self.source is None:
            object.__setattr__(self, "source", np.zeros(n, dtype=np.int64))
            object.__setattr__(self, "has_source", np.zeros(n, dtype=bool))
        _set_columns(self, _TABLE_COLUMNS, n, lambda t: (
            box_rules(t.boxes) + hypothesis_rules(t.noun, t.verb, t.ttc, t.score)))

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
        return cls.from_valid(*(cls.column(tables, name) for name in _TABLE_COLUMNS))

    @staticmethod
    def column(tables: list[HypothesisTable], name: str) -> np.ndarray:
        """One column of the rows of the tables one after another."""
        dtype, dims = _TABLE_COLUMNS[name]
        empty = np.empty([0 if dim == "N" else dim for dim in dims], dtype=dtype)
        return np.concatenate([getattr(t, name) for t in tables] + [empty])

    def __len__(self) -> int:
        return len(self.score)

    def take(self, rows) -> HypothesisTable:
        """The rows selected by a boolean mask, an index array or a slice."""
        return HypothesisTable.from_valid(*(getattr(self, name)[rows] for name in _TABLE_COLUMNS))

    def head(self, n: int) -> HypothesisTable:
        """The first n rows; of a canonical table, the n highest ranked."""
        return self.take(slice(0, n))

    def with_default_source(self, source: int | np.ndarray) -> HypothesisTable:
        """The table with `source` (one id, or one per row) as the source
        of every row that has none."""
        return HypothesisTable.from_valid(
            self.boxes, self.noun, self.verb, self.ttc, self.score,
            np.where(self.has_source, self.source, source), np.ones(len(self), dtype=bool),
        )


_TABLE_COLUMNS = _columns(HypothesisTable)


def as_table(hyps) -> HypothesisTable:
    """A HypothesisTable as it is, or a list of StaHypothesis (`synth`'s
    output) as a table of the same rows in the same order. The table's
    rules check the objects: a bad one is named by its row."""
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


# Per-example predictions keyed by example uid, as runs of rows: each run is
# one HypothesisTable, the uids of its examples and CSR bounds, so that no
# object is held per example. Rows are in any order within an example (the
# reader keeps file order; each stage ranks).
class PredictionSet(Mapping):
    """A read-only mapping from example uid to its hypotheses, given as
    runs: (table, uids, bounds), example i of a run having the rows
    bounds[i]:bounds[i + 1] of its table. The submission reader makes one
    run per batch it reads, and the ensemble one per block. A uid is in
    one run only. It keeps the runs' tables (`tables`), and per uid only
    its position, in run order, and where its rows begin and how many
    there are.

    `[uid]` makes a view of the example's rows. Iteration (the uids in run
    order), `len`, `in`, `sizes`, `rows` and `walk` make none per example.
    Any other mapping of uids enters the library through `as_predictions`."""

    __slots__ = ("tables", "_index", "_starts", "_begin", "_sizes")
    name = "predictions"  # what a problem of a walk calls it

    def __init__(self, runs=()):
        tables, index, starts, begin, sizes = [], {}, [], [], []
        for table, uids, bounds in runs:
            bounds = list(map(int, bounds))
            tables.append(table)
            starts.append(len(begin))
            index.update(zip(uids, range(len(begin), len(begin) + len(uids))))
            begin += bounds[:-1]
            sizes += [end - first for first, end in zip(bounds, bounds[1:])]
        if len(index) != len(begin):
            raise ValueError("a uid is in two runs")
        self.tables = tuple(tables)
        self._index: dict[str, int] = index  # each uid's position, in run order
        self._starts = starts  # the position of each run's first uid
        self._begin = np.array(begin, dtype=np.int64)  # each position's first row in its run
        self._sizes = np.array(sizes + [0], dtype=np.int64)  # its rows, and 0 for a uid not here

    def _span(self, position: int) -> tuple[int, int, int]:
        """The run of the uid at a position and the bounds of its rows."""
        first = int(self._begin[position])
        return bisect_right(self._starts, position) - 1, first, first + int(self._sizes[position])

    def _view(self, run: int, first: int, end: int) -> HypothesisTable:
        """Rows first, ..., end - 1 of a run: its table if they are all of it."""
        table = self.tables[run]
        return table if first == 0 and end == len(table) else table.take(slice(first, end))

    def __getitem__(self, uid: str) -> HypothesisTable:
        return self._view(*self._span(self._index[uid]))

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, uid) -> bool:
        return uid in self._index

    def sizes(self, uids=None) -> np.ndarray:
        """The rows of each of the uids (every uid here, in run order, if
        None), 0 for a uid not here, as int64."""
        if uids is None:
            return self._sizes[:-1]
        return self._sizes[[self._index.get(uid, -1) for uid in uids]]

    def rows(self, uids) -> list[HypothesisTable]:
        """The rows of the uids, one uid after another (a uid not here has
        none), as views of the runs: one per stretch of uids whose rows
        follow each other in one run, the run's table itself if they are
        all of it."""
        spans = []
        for position in map(self._index.get, uids):
            if position is None:
                continue
            run, first, end = self._span(position)
            if spans and spans[-1][0] == run and spans[-1][2] == first:
                spans[-1][2] = end
            else:
                spans.append([run, first, end])
        return [self._view(*span) for span in spans]

    def walk(self, start):
        """Pass each run with a uid, (table, uids, bounds), in run order to
        the consumer that start() makes, and return that consumer. Every
        walk passes the same runs: a submission file's reader walks alike
        (`io_formats.SubmissionFile`)."""
        consume = start()
        uids = list(self._index)
        for run, (table, first) in enumerate(zip(self.tables, self._starts)):
            end = self._starts[run + 1] if run + 1 < len(self._starts) else len(uids)
            if first < end:
                begin = self._begin[first:end].tolist()
                consume((table, uids[first:end], begin + [begin[-1] + int(self._sizes[end - 1])]))
        return consume


def as_predictions(preds) -> PredictionSet:
    """A PredictionSet as it is, or any other mapping from uid to a
    HypothesisTable or a list of StaHypothesis (`as_table`) as one run per
    uid, in its order: the tables are not copied."""
    if isinstance(preds, PredictionSet):
        return preds
    return PredictionSet((table, (uid,), (0, len(table)))
                         for uid, table in zip(preds, map(as_table, preds.values())))


@dataclass(frozen=True, eq=False)
class GroundTruthTable:
    """A ground truth as columns; row i is one annotation.

    uid is a tuple of example uids, and each other column an array field
    with its dtype and dims (N the rows): box corners, noun and verb ids
    and ttc. The columns are read-only and are validated as whole arrays,
    with `box_rules` and `ground_truth_rules`.
    """

    uid: tuple[str, ...]
    boxes: np.ndarray = array_field("N", 4, dtype=np.float64)
    noun: np.ndarray = array_field("N", dtype=np.int64)
    verb: np.ndarray = array_field("N", dtype=np.int64)
    ttc: np.ndarray = array_field("N", dtype=np.float64)

    def __post_init__(self):
        object.__setattr__(self, "uid", tuple(self.uid))
        _set_columns(self, _GT_COLUMNS, len(self.uid), lambda t: (
            box_rules(t.boxes) + ground_truth_rules(t.noun, t.verb, t.ttc)))

    def __len__(self) -> int:
        return len(self.uid)


_GT_COLUMNS = _columns(GroundTruthTable)


def as_gt_table(gts) -> GroundTruthTable:
    """A GroundTruthTable as it is, or a list of GroundTruthInstance
    (`synth`'s output) as a table of the same rows in the same order. The
    table's rules check the objects: a bad one is named by its row."""
    if isinstance(gts, GroundTruthTable):
        return gts
    return GroundTruthTable(
        uid=[gt.example_uid for gt in gts],
        boxes=np.array([gt.box.corners() for gt in gts], dtype=np.float64).reshape(-1, 4),
        noun=[gt.noun_id for gt in gts],
        verb=[gt.verb_id for gt in gts],
        ttc=[gt.ttc for gt in gts],
    )


def canonical_order(table: HypothesisTable | list[HypothesisTable], tie_break: tuple = ()) -> np.ndarray:
    """The row indices that put a table in canonical order: score
    descending, then ascending (noun, verb, x1, y1, x2, y2, ttc), then
    the `tie_break` columns, the last the most significant, as in
    `np.lexsort`, then each row's own source: none first, then ascending
    source id. The order is total: rows it ties are equal in every
    column, so the order of the indices does not depend on the order of
    the rows, and every downstream sort, truncation and tie-break is
    bitwise reproducible. When no two scores are equal, the score alone
    orders the rows and one stable argsort of it gives the same indices.

    Given a list of tables, it orders their rows one after another, and
    pools the key columns other than the score only when two scores are
    equal."""
    def column(name: str) -> np.ndarray:
        return getattr(table, name) if isinstance(table, HypothesisTable) else HypothesisTable.column(table, name)

    score = column("score")
    by_score = np.argsort(-score, kind="stable")
    ranked = score[by_score]
    if not (ranked[1:] == ranked[:-1]).any():
        return by_score
    b = column("boxes")
    keys = (column("ttc"), b[:, 3], b[:, 2], b[:, 1], b[:, 0], column("verb"), column("noun"), -score)
    return np.lexsort((column("source"), column("has_source")) + tie_break + keys)


def rank_within(tables: HypothesisTable | list[HypothesisTable], code: np.ndarray,
                top_k: int | None = None) -> np.ndarray:
    """The rows that each example keeps, as indices into the rows of the
    tables one after another; `code` gives each row's example, a
    non-negative int. The examples come one after another in ascending
    code, each with its rows in canonical order (`canonical_order`, a
    total order), cut to its first top_k (every row when top_k is None).
    Every row is ranked once, and one stable sort by code puts each
    example's rows together: that order restricted to one code is the
    code's own canonical order. This is the one ranking within examples,
    of postprocess's rows, the ensemble's export cut and evaluate's top-k,
    one block of whole examples at a time."""
    rank = canonical_order(tables)
    rank = rank[np.argsort(code[rank], kind="stable")]
    if top_k is None or top_k >= len(rank):
        return rank
    ranked_code = code[rank]
    # A row's place in its code's run: its position less where the run starts.
    return rank[np.arange(len(rank)) - np.searchsorted(ranked_code, ranked_code) < top_k]


def sort_canonical(hyps):
    """Put a HypothesisTable, or a list of StaHypothesis, in canonical
    order (`canonical_order`). A list comes back as the same objects
    reordered: `synth` sorts its lists with it."""
    order = canonical_order(as_table(hyps))
    if isinstance(hyps, HypothesisTable):
        return hyps.take(order)
    # Lists stay accepted: synth and the benchmark's oracle check sort them.
    return [hyps[i] for i in order.tolist()]
