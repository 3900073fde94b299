"""Readers and writers for every artifact file the toolkit touches.

Human-facing documents (taxonomy, ground truth, submissions, reports) are
JSON, serialized deterministically (sorted keys, fixed indentation) so
reruns are byte-identical. Dense tensors use a small binary container:
magic "VSTF", version u32, then named tensors (name length u32 + UTF-8
name + rank u32 + dims u64 + row-major little-endian float32 data).

All loaders are total: they return a fully validated value or raise a
structured error listing every problem found, never a partial value.

Ground-truth annotations and submission entries are read by one reader,
`_read_entries`. An id is any value `int()` takes, a time-to-contact,
score or box corner any value `float()` takes (bools and numeric strings
too), a box a 4-element list, a uid a non-empty string; a missing or null
`source_id` means none. Problems are listed entry by entry, in file order,
and within an entry: object and uid, box, fields, taxonomy, values.
"""

from __future__ import annotations

import json
import struct
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from operator import is_not, itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FormatError, ValidationError
from .types import (
    GroundTruthTable,
    HypothesisTable,
    PredictionSet,
    Taxonomy,
    as_gt_table,
    as_table,
    box_rules,
    ground_truth_rules,
    hypothesis_rules,
    sort_canonical,
)

TENSOR_MAGIC = b"VSTF"
TENSOR_VERSION = 1

SUBMISSION_CHALLENGE = "ego4d_sta"
SUBMISSION_VERSION = "1.0"

_KNOWN_SUBMISSION_KEYS = {"version", "challenge", "results", "provenance"}
_KNOWN_GT_KEYS = {"taxonomy", "taxonomy_path", "annotations", "provenance"}


def _dump_json(doc, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_json(path):
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except RecursionError:
        raise ValidationError(f"{path}: invalid JSON: nested too deeply to parse")
    except ValueError as e:  # an integer beyond the interpreter's digit limit
        raise ValidationError(f"{path}: invalid JSON: {str(e).partition(';')[0]}")


def _warn_unknown(found: set[str], known: set[str], where: str, stacklevel: int = 3) -> None:
    extras = sorted(found - known)
    if extras:
        warnings.warn(f"{where}: ignoring unknown fields {extras}", stacklevel=stacklevel)


# -- taxonomy ---------------------------------------------------------------

def taxonomy_to_dict(taxonomy: Taxonomy) -> dict:
    return {"nouns": list(taxonomy.noun_names), "verbs": list(taxonomy.verb_names)}


def taxonomy_from_dict(doc, where: str = "taxonomy") -> Taxonomy:
    problems = []
    for key in ("nouns", "verbs"):
        if not (isinstance(doc, dict) and isinstance(doc.get(key), list)):
            problems.append(f"{where}: missing or non-list '{key}' array")
            continue
        problems += [
            f"{where}: '{key}'[{i}] must be a string, got {label!r}"
            for i, label in enumerate(doc[key]) if not isinstance(label, str)
        ]
    if problems:
        raise ValidationError(problems)
    return Taxonomy(noun_names=tuple(doc["nouns"]), verb_names=tuple(doc["verbs"]))


def load_taxonomy(path) -> Taxonomy:
    return taxonomy_from_dict(_load_json(path), where=str(path))


def write_taxonomy(taxonomy: Taxonomy, path) -> None:
    _dump_json(taxonomy_to_dict(taxonomy), path)


# -- entries ----------------------------------------------------------------

@dataclass(frozen=True)
class _EntrySpec:
    """How `_read_entries` reads one kind of entry."""

    keys: frozenset[str]  # the fields an entry may have; others are warned about
    numbers: tuple[tuple[str, str, type], ...]  # (field, column, int or float), in conversion order
    field_problem: str  # how the problem of the first number field that fails is worded
    rules: Callable  # the value rules, given the required number columns by name
    rule_values: tuple[str, ...]  # the column whose value each rule's problem names
    name: Callable[[str | None, int], str]  # an entry's name, from its list's name and its index
    optional: frozenset[str] = frozenset()  # number fields that may be missing or null
    uid_field: str | None = None  # the field that holds an entry's uid


_IDS_AND_TTC = (("noun_category_id", "noun", int), ("verb_category_id", "verb", int),
                ("time_to_contact", "ttc", float))
_SUBMISSION = _EntrySpec(
    keys=frozenset({"box", "noun_category_id", "verb_category_id", "time_to_contact", "score", "source_id"}),
    numbers=_IDS_AND_TTC + (("score", "score", float), ("source_id", "source", int)),
    field_problem="bad or missing field", name=lambda uid, i: f"results[{uid!r}][{i}]",
    rules=hypothesis_rules, rule_values=("ttc", "score", "noun", "verb"), optional=frozenset({"source_id"}),
)
_GROUND_TRUTH = _EntrySpec(
    keys=frozenset({"example_uid", "box", "noun_category_id", "verb_category_id", "time_to_contact"}),
    numbers=_IDS_AND_TTC, field_problem="bad or missing category/ttc field", uid_field="example_uid",
    name=lambda _, i: f"annotation {i}", rules=ground_truth_rules, rule_values=("ttc", "noun", "verb"),
)

_MISSING = object()  # the value of a required field an entry does not have
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _number_column(values: list, kind: type, field: str) -> tuple[list, dict[int, str]]:
    """The values of one number field converted by `kind` (int or float),
    and the problem of each row whose value `kind` does not take (its
    value becomes `kind()`). A column of values of exactly that type is
    returned as it is, since `kind` gives each of them back unchanged."""
    if set(map(type, values)) <= {kind}:
        return values, {}
    converted, problems = [], {}
    for r, value in enumerate(values):
        try:
            if value is _MISSING:
                raise KeyError(field)
            converted.append(kind(value))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            problems[r] = str(e)
            converted.append(kind())
    return converted, problems


def _box_column(boxes: list) -> tuple[np.ndarray, dict[int, str]]:
    """Raw boxes as (N, 4) corners, each converted by `float`, and the
    problem of each row that is not a 4-element list of values `float`
    takes (its corners become zeros). Lists of floats are taken as they
    are, since `float` gives each of them back unchanged."""
    if set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}:
        corners = list(chain.from_iterable(boxes))
        if set(map(type, corners)) <= {float}:
            return np.array(corners, dtype=np.float64).reshape(len(boxes), 4), {}
    corners, problems = [], {}
    for r, box in enumerate(boxes):
        try:
            if not (isinstance(box, list) and len(box) == 4):
                raise ValueError(f"box must be a 4-element [x1, y1, x2, y2] list, got {box!r}")
            corners += tuple(map(float, box))
        except (TypeError, ValueError, OverflowError) as e:
            problems[r] = str(e)
            corners += (0.0, 0.0, 0.0, 0.0)
    return np.array(corners, dtype=np.float64).reshape(len(boxes), 4), problems


def _read_entries(path, problems: list, lists: list, spec: _EntrySpec,
                  taxonomy: Taxonomy | None) -> tuple[dict, list[tuple[str | None, int, int]]]:
    """Read the entries of `lists`, (position, name, entries) triples that
    it empties, as columns: each field of every entry at once, then whole
    columns against the rules of Box2D and `spec.rules`, the taxonomy's id
    ranges (if one is given) and int64. Every problem, the caller's
    `problems` too, is keyed (list position, entry index, stage), with
    stages object/uid 0, box 1, fields 2, taxonomy 3 and values 4, and all
    are raised sorted by key. Otherwise this returns the columns, by
    column name, and each list's (name, first row, end row)."""
    rows: list[dict] = []
    spans = []  # (position, name, first row, entry index of each row, None if all are objects)
    for position, name, entries in lists:
        kept = None
        if not all(map(isinstance, entries, repeat(dict))):
            kept = [i for i, raw in enumerate(entries) if isinstance(raw, dict)]
            problems += [((position, i, 0), f"{path}: {spec.name(name, i)}: must be an object")
                         for i, raw in enumerate(entries) if not isinstance(raw, dict)]
            entries = [entries[i] for i in kept]
        spans.append((position, name, len(rows), kept))
        rows += entries
    starts = [start for _, _, start, _ in spans]
    uids = None

    def locate(r: int) -> tuple[int, str, int]:  # list position, list name, entry index
        position, name, start, kept = spans[bisect_right(starts, r) - 1]
        return position, name, r - start if kept is None else kept[r - start]

    def report(r: int, stage: int, message: str) -> None:
        position, name, i = locate(r)
        where = spec.name(name, i) if uids is None or stage == 0 else f"{spec.name(name, i)} (uid {uids[r]})"
        problems.append(((position, i, stage), f"{path}: {where}: {message}"))

    if not all(map(spec.keys.issuperset, rows)):
        for r, raw in enumerate(rows):
            if not spec.keys.issuperset(raw):
                _warn_unknown(set(raw), spec.keys, f"{path}: {spec.name(*locate(r)[1:])}", stacklevel=4)
    if spec.uid_field is not None:
        column = list(map(dict.get, rows, repeat(spec.uid_field)))
        if not (set(map(type, column)) <= {str} and all(column)):
            for r in [r for r, uid in enumerate(column) if not (isinstance(uid, str) and uid)]:
                report(r, 0, f"missing {spec.uid_field}")
                column[r] = f"<{spec.name(*locate(r)[1:])}>"
        uids = column

    n = len(rows)
    boxes, box_problems = _box_column(list(map(dict.get, rows, repeat("box"))))
    columns: dict = {"boxes": boxes} if uids is None else {"uid": uids, "boxes": boxes}
    values: dict[str, list] = {}  # each number column's values, as its problems word them
    outside: dict[str, np.ndarray] = {}  # the rows of an id column beyond int64, clamped into it
    field_problems: dict[int, str] = {}
    for field, column, kind in spec.numbers:
        optional = field in spec.optional
        raw = list(map(dict.get, rows, repeat(field), repeat(None if optional else _MISSING)))
        if optional:
            columns["has_" + column] = has = np.fromiter(map(is_not, raw, repeat(None)), dtype=bool, count=n)
            if not has.all():
                raw = [0 if value is None else value for value in raw]
        values[column], failed = _number_column(raw, kind, field)
        for r, message in failed.items():
            field_problems.setdefault(r, message)
    del rows
    lists.clear()  # the last references to the entries, which are most of the memory
    for field, column, kind in spec.numbers:
        try:
            columns[column] = np.array(values[column], dtype=np.int64 if kind is int else np.float64)
        except OverflowError:
            wide = np.array(values[column], dtype=object)
            columns[column] = wide.clip(_INT64_MIN, _INT64_MAX).astype(np.int64)
            outside[column] = columns[column] != wide

    for r, message in box_problems.items():
        report(r, 1, message)
    for r, message in field_problems.items():
        report(r, 2, f"{spec.field_problem} ({message})")
    ok = np.ones(n, dtype=bool)
    ok[list(box_problems)] = False
    rules = box_rules(boxes)  # each bad box gets one problem, worded as Box2D words it
    bad_box = ok & np.any([bad for bad, _ in rules], axis=0)
    for r in np.flatnonzero(bad_box).tolist():
        corners = tuple(boxes[r].tolist())
        report(r, 1, "; ".join(f"{what}, got {corners}" if k == 0 else f"{what}: {corners}"
                               for k, (bad, what) in enumerate(rules) if bad[r]))
    ok &= ~bad_box
    ok[list(field_problems)] = False
    if taxonomy is not None:
        # Ids beyond int64 were clamped into it, still outside the taxonomy.
        bad_ids = ok & ~taxonomy.valid_ids(columns["noun"], columns["verb"])
        for r in np.flatnonzero(bad_ids).tolist():
            for problem in taxonomy.check_ids(values["noun"][r], values["verb"][r]):
                report(r, 3, problem)
        ok &= ~bad_ids
    rules = spec.rules(**{column: columns[column] for field, column, _ in spec.numbers
                          if field not in spec.optional})
    for (bad, what), column in zip(rules, spec.rule_values):
        for r in np.flatnonzero(ok & bad).tolist():
            report(r, 4, f"{what}, got {values[column][r]}")
    # Ids below int64 broke a rule above, unless they are optional ids,
    # which may be negative.
    for field, column, _ in spec.numbers:
        for r in np.flatnonzero(ok & outside[column]).tolist() if column in outside else []:
            if field in spec.optional or values[column][r] > 0:
                report(r, 4, f"{column}_id must fit in 64 bits, got {values[column][r]}")
    if problems:
        problems.sort(key=itemgetter(0))
        raise ValidationError([message for _, message in problems])
    ends = starts[1:] + [n]
    return columns, [(name, start, end) for (_, name, start, _), end in zip(spans, ends)]


# -- ground truth -----------------------------------------------------------

def load_ground_truth(path) -> tuple[Taxonomy, GroundTruthTable]:
    """Read a ground truth as its taxonomy and one GroundTruthTable."""
    return ground_truth_from_dict(_load_json(path), path)


def ground_truth_from_dict(doc, path) -> tuple[Taxonomy, GroundTruthTable]:
    """A parsed ground-truth document as its taxonomy and one
    GroundTruthTable, with `_read_entries`. `path` names the document in
    problems and locates its `taxonomy_path`. The annotations are taken
    out of `doc`, so they are freed as they are read."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: ground-truth document must be a JSON object")
    _warn_unknown(set(doc), _KNOWN_GT_KEYS, str(path))

    if "taxonomy" in doc:
        taxonomy = taxonomy_from_dict(doc["taxonomy"], where=f"{path}: taxonomy")
    elif "taxonomy_path" in doc:
        taxonomy_path = doc["taxonomy_path"]
        if not isinstance(taxonomy_path, str):
            raise ValidationError(f"{path}: 'taxonomy_path' must be a string, got {taxonomy_path!r}")
        taxonomy = load_taxonomy(Path(path).parent / taxonomy_path)
    else:
        raise ValidationError(f"{path}: needs 'taxonomy' inline or a 'taxonomy_path'")

    annotations = doc.pop("annotations", None)
    if not isinstance(annotations, list):
        raise ValidationError(f"{path}: missing or non-list 'annotations'")
    lists = [(0, None, annotations)]
    del annotations  # the reader frees the annotations once it has read them
    columns, _ = _read_entries(path, [], lists, _GROUND_TRUTH, taxonomy)
    return taxonomy, GroundTruthTable(**columns)


def write_ground_truth(taxonomy: Taxonomy, gts, path, provenance: dict | None = None) -> None:
    """Write a ground truth; `gts` is a GroundTruthTable or a list of
    GroundTruthInstance."""
    table = as_gt_table(gts)
    doc = {
        "taxonomy": taxonomy_to_dict(taxonomy),
        "annotations": [
            {
                "example_uid": uid,
                "box": box,
                "noun_category_id": noun,
                "verb_category_id": verb,
                "time_to_contact": ttc,
            }
            for uid, box, noun, verb, ttc in zip(
                table.uid, table.boxes.tolist(), table.noun.tolist(), table.verb.tolist(),
                table.ttc.tolist(),
            )
        ],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    _dump_json(doc, path)


# -- predictions / submissions ----------------------------------------------

def _copy(text: str) -> str:
    """A new string equal to text. A string of a parsed document that
    outlives it keeps the memory of the whole document resident, because
    it shares that memory's allocation pools."""
    return text.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")


def load_predictions(path, taxonomy: Taxonomy | None = None) -> PredictionSet:
    """Read a submission as one HypothesisTable per example uid."""
    return predictions_from_dict(_load_json(path), path, taxonomy)


def predictions_from_dict(doc, path, taxonomy: Taxonomy | None = None) -> PredictionSet:
    """A parsed submission document as one HypothesisTable per example
    uid, in canonical order, with `_read_entries`; the ids are checked
    against the taxonomy's ranges only if one is given. `path` names the
    document in problems. The results are taken out of `doc`, so their
    entries are freed as they are read."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: submission document must be a JSON object")
    _warn_unknown(set(doc), _KNOWN_SUBMISSION_KEYS, str(path))
    results = doc.pop("results", None)
    if not isinstance(results, dict):
        raise ValidationError(f"{path}: missing or non-object 'results'")

    problems = [((u, -1, 0), f"{path}: results[{uid!r}] must be a list")
                for u, (uid, entries) in enumerate(results.items()) if not isinstance(entries, list)]
    lists = [(u, _copy(uid), entries)
             for u, (uid, entries) in enumerate(results.items()) if isinstance(entries, list)]
    del results
    columns, spans = _read_entries(path, problems, lists, _SUBMISSION, taxonomy)
    whole = HypothesisTable.from_valid(*itemgetter(
        "boxes", "noun", "verb", "ttc", "score", "source", "has_source")(columns))
    return {uid: sort_canonical(whole.take(slice(start, end))) for uid, start, end in spans}


# One submission entry as `json.dumps(indent=2, sort_keys=True)` writes it
# inside a document, from its box corners, ids, score, source line and
# ttc. The source line is "" for a row without a source id.
_ENTRY = (
    '      {\n'
    '        "box": [\n          %r,\n          %r,\n          %r,\n          %r\n        ],\n'
    '        "noun_category_id": %r,\n'
    '        "score": %r,%s\n'
    '        "time_to_contact": %r,\n'
    '        "verb_category_id": %r\n'
    '      }'
)
_SOURCE_LINE = '\n        "source_id": %r,'


def _entries_text(table: HypothesisTable) -> str:
    """The entries of a table, in its row order, joined as in a JSON list.

    The values are Python floats and ints (`tolist`), which `%r` writes
    as the JSON encoder does: finite floats with `float.__repr__`, ints
    with `int.__repr__`.
    """
    x1, y1, x2, y2 = table.boxes.T.tolist()
    sources = (
        [_SOURCE_LINE % source if has else "" for source, has in
         zip(table.source.tolist(), table.has_source.tolist())]
        if table.has_source.any() else repeat("", len(table))
    )
    rows = zip(x1, y1, x2, y2, table.noun.tolist(), table.score.tolist(), sources,
               table.ttc.tolist(), table.verb.tolist())
    return ",\n".join(map(_ENTRY.__mod__, rows))


def write_submission(preds: PredictionSet, path, provenance: dict | None = None) -> None:
    """Write a submission: every example's hypotheses in canonical order.
    `preds` maps uids to HypothesisTables or lists of StaHypothesis.

    The text is the bytes of `json.dumps(doc, indent=2, sort_keys=True)`
    of the submission document, written from the columns: each entry is
    one `_ENTRY` template, each uid is written by `json.dumps`, and the
    provenance is `json.dumps` of its own, shifted one level in (JSON
    text has no raw newline inside a string, so every newline in it is
    one of the indentation's).
    """
    examples = []
    for uid in sorted(preds):
        key, entries = json.dumps(uid), _entries_text(sort_canonical(as_table(preds[uid])))
        examples.append(f"    {key}: [\n{entries}\n    ]" if entries else f"    {key}: []")
    results = "{\n" + ",\n".join(examples) + "\n  }" if examples else "{}"
    provenance_line = (
        "" if provenance is None
        else '  "provenance": ' + json.dumps(provenance, indent=2, sort_keys=True).replace("\n", "\n  ") + ",\n"
    )
    Path(path).write_text(
        f'{{\n  "challenge": {json.dumps(SUBMISSION_CHALLENGE)},\n{provenance_line}'
        f'  "results": {results},\n  "version": {json.dumps(SUBMISSION_VERSION)}\n}}\n'
    )


# -- tensor container -------------------------------------------------------

def tensor_file_bytes(tensors: dict[str, np.ndarray]) -> bytes:
    """The container of the tensors as float32, checked before any byte is
    written: every value must be finite, in float32 too."""
    parts = [TENSOR_MAGIC, struct.pack("<I", TENSOR_VERSION)]
    for name, given in tensors.items():
        with np.errstate(over="ignore"):
            arr = np.ascontiguousarray(given, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            beyond = np.all(np.isfinite(given))
            raise ValidationError(f"tensor {name!r} " + (
                "has values that exceed the float32 range" if beyond else "contains non-finite values"))
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def write_tensor_file(tensors: dict[str, np.ndarray], path) -> None:
    Path(path).write_bytes(tensor_file_bytes(tensors))


def read_tensor_file(path) -> dict[str, np.ndarray]:
    """Read every tensor of a container as a read-only float32 view of
    the file's bytes (no copy is made)."""
    blob = Path(path).read_bytes()
    if blob[:4] != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {TENSOR_MAGIC!r}")
    if len(blob) < 8:
        raise FormatError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != TENSOR_VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")

    offset = 8
    out: dict[str, np.ndarray] = {}

    def take(n: int, what: str) -> int:
        """Claim the next n bytes; returns their start."""
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(f"{path}: truncated while reading {what}")
        offset += n
        return offset - n

    while offset < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, take(4, "name length"))
        start = take(name_len, "tensor name")
        try:
            name = blob[start : start + name_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: tensor name at byte {start} is not UTF-8 ({e.reason})")
        if name in out:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        (rank,) = struct.unpack_from("<I", blob, take(4, f"rank of {name!r}"))
        dims = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank, f"dims of {name!r}"))
        count = 1
        for d in dims:
            count *= d
        start = take(4 * count, f"data of {name!r}")
        try:
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start).reshape(dims)
        except ValueError as e:  # an empty tensor whose other dims numpy cannot hold
            raise FormatError(f"{path}: tensor {name!r} has dims {dims}, which numpy cannot hold ({e})")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{path}: tensor {name!r} contains non-finite values")
        out[name] = arr
    return out
