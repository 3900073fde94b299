"""Readers and writers for every artifact file the toolkit touches.

Human-facing documents (taxonomy, ground truth, submissions, reports) are
JSON, serialized deterministically (sorted keys, fixed indentation) so
reruns are byte-identical. Dense tensors use a small binary container:
magic "VSTF", version u32, then named tensors (name length u32 + UTF-8
name + rank u32 + dims u64 + row-major little-endian float32 data),
parsed in one place, `TensorFile`, which reads one tensor at a time.

All loaders are total: they return a fully validated value or raise a
structured error listing every problem found, never a partial value.

Ground-truth annotations and submission entries are read by one reader,
`_read_entries`. An id is any value `int()` takes, a time-to-contact,
score or box corner any value `float()` takes (bools and numeric strings
too), a box a 4-element list, a uid a non-empty string; a missing or null
`source_id` means none. Problems are listed entry by entry, in file order,
and within an entry: object and uid, box, fields, taxonomy, values.

`load_predictions` streams a submission: it reads the file `_CHUNK` bytes
at a time and walks the top-level object and `results` member by member,
so it holds about one chunk of text, the entries decoded since the last
chunk and the tables read so far, never the whole text or all of its
entries.
A document it cannot walk that way (invalid JSON or UTF-8, a top level or
`results` that is not an object, a repeated key, a top-level key of a
ground truth or taxonomy) is parsed whole from the start of the same
open file, and a file that cannot be read twice, such as a pipe, is
parsed whole at once; `predictions_from_dict` words its problems. The
other JSON files are small and are read whole.

`read_document` alone tells what a file is, for `vista validate`: a
tensor container by its magic, any other file as JSON, read as above and
told by its top-level `results`, `annotations` or `nouns` key, in that
order. Each kind is read by the loader the other commands use, so a file
gets the same verdict from every command.
"""

from __future__ import annotations

import codecs
import json
import math
import os
import stat
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
    return _parse_json(Path(path).read_bytes(), path)


def _parse_json(data: bytes, path):
    """The document of a JSON file's bytes; `path` names it in problems."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})")
    del data  # the last reference to the bytes, which are as large as the text
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


def _read_entries(path, problems: list, lists: list, spec: _EntrySpec, taxonomy: Taxonomy | None,
                  unknown: list | None = None) -> tuple[dict, list[tuple[str | None, int, int]]]:
    """Read the entries of `lists`, (position, name, entries) triples that
    it empties, as columns: each field of every entry at once, then whole
    columns against `box_rules` and `spec.rules`, the taxonomy's id
    ranges (if one is given) and int64. Every problem, the caller's
    `problems` too, is keyed (list position, entry index, stage), with
    stages object/uid 0, box 1, fields 2, taxonomy 3 and values 4, and all
    are raised sorted by key. Otherwise this returns the columns, by
    column name, and each list's (name, first row, end row). Entries with
    unknown fields are warned about, or, if `unknown` is a list, appended
    to it as (fields, where) for the caller to warn about later."""
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
                where = f"{path}: {spec.name(*locate(r)[1:])}"
                if unknown is None:
                    _warn_unknown(set(raw), spec.keys, where, stacklevel=4)
                else:
                    unknown.append((set(raw), where))
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
    rules = box_rules(boxes)  # each bad box gets one problem, naming its rules and its corners
    bad_box = ok & np.any([bad for bad, _ in rules], axis=0)
    for r in np.flatnonzero(bad_box).tolist():
        corners = tuple(boxes[r].tolist())
        report(r, 1, "; ".join(f"{what}, got {corners}" if k == 0 else f"{what}: {corners}"
                               for k, (bad, what) in enumerate(rules) if bad[r]))
    ok &= ~bad_box
    ok[list(field_problems)] = False
    if taxonomy is not None:
        # Ids beyond int64 were clamped into it, still outside the taxonomy.
        off_taxonomy = taxonomy.outside_ids(columns["noun"], columns["verb"])
        for column, bad, size in off_taxonomy:
            for r in np.flatnonzero(ok & bad).tolist():
                report(r, 3, f"{column}_id {values[column][r]} out of range [0, {size})")
        ok &= ~np.any([bad for _, bad, _ in off_taxonomy], axis=0)
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


def write_ground_truth(taxonomy: Taxonomy, gts: GroundTruthTable, path, provenance: dict | None = None) -> None:
    """Write a ground truth."""
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
                gts.uid, gts.boxes.tolist(), gts.noun.tolist(), gts.verb.tolist(), gts.ttc.tolist(),
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
    """Read a submission, once (`_read_json`), as one HypothesisTable per
    example uid, in canonical order; the ids are checked against the
    taxonomy's ranges only if one is given."""
    with open(path, "rb") as file:
        streamed, value = _read_json(file, path, taxonomy)
    return value if streamed else predictions_from_dict(value, path, taxonomy)


def _read_json(file, path, taxonomy: Taxonomy | None, head: bytes = b"") -> tuple[bool, object]:
    """An open JSON file, `head` read of it already: (True, its tables) if
    `_stream_predictions` walks it, else (False, its document, read whole)."""
    if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
        try:
            file.seek(0)
            return True, _stream_predictions(file, path, taxonomy)
        except _Unwalkable:
            file.seek(0)
            head = b""
    return False, _parse_json(head + file.read(), path)


def read_document(path) -> tuple[str, object]:
    """The kind of the file at path and its value, read once: a "tensor
    container" (its index, every tensor checked), else JSON (`_read_json`)
    told by the top-level key `results`, `annotations` or `nouns`, in that
    order: a "submission", "ground truth" or "taxonomy"."""
    with open(path, "rb") as file:
        if (head := file.read(len(TENSOR_MAGIC))) == TENSOR_MAGIC:
            container = TensorFile(path, file)
            container.check_finite()
            return "tensor container", container.index
        streamed, doc = _read_json(file, path, None, head)
    if streamed or isinstance(doc, dict) and "results" in doc:
        return "submission", doc if streamed else predictions_from_dict(doc, path)
    if isinstance(doc, dict) and "annotations" in doc:
        return "ground truth", ground_truth_from_dict(doc, path)
    if isinstance(doc, dict) and "nouns" in doc:
        return "taxonomy", taxonomy_from_dict(doc, where=str(path))
    raise ValidationError(f"{path}: unrecognized document type")


def predictions_from_dict(doc, path, taxonomy: Taxonomy | None = None) -> PredictionSet:
    """A parsed submission document as one HypothesisTable per example
    uid, as `load_predictions` reads it. `path` names the document in
    problems. The results are taken out of `doc`, so their entries are
    freed as they are read."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: submission document must be a JSON object")
    _warn_unknown(set(doc), _KNOWN_SUBMISSION_KEYS, str(path))
    results = doc.pop("results", None)
    if not isinstance(results, dict):
        raise ValidationError(f"{path}: missing or non-object 'results'")
    members = list(results.items())
    del results
    return _read_results(path, members, taxonomy)


def _read_results(path, members: list, taxonomy: Taxonomy | None,
                  unknown: list | None = None) -> PredictionSet:
    """(uid, entries) members of a submission's `results`, in file order,
    as one canonical HypothesisTable per uid, with `_read_entries` (which
    `unknown` is passed on to). Rows that tie on the whole canonical key
    are ordered by source id, rows without one first, so no table depends
    on the order of its entries. Every problem is raised, a value that is
    not a list too. The members are emptied, so their entries are freed
    as they are read."""
    problems = [((u, -1, 0), f"{path}: results[{uid!r}] must be a list")
                for u, (uid, entries) in enumerate(members) if not isinstance(entries, list)]
    lists = [(u, _copy(uid), entries)
             for u, (uid, entries) in enumerate(members) if isinstance(entries, list)]
    members.clear()
    columns, spans = _read_entries(path, problems, lists, _SUBMISSION, taxonomy, unknown)
    whole = HypothesisTable.from_valid(*itemgetter(
        "boxes", "noun", "verb", "ttc", "score", "source", "has_source")(columns))
    tables = ((uid, whole.take(slice(start, end))) for uid, start, end in spans)
    return {uid: sort_canonical(table, tie_break=(table.source, table.has_source)) for uid, table in tables}


def _stream_predictions(file, path, taxonomy: Taxonomy | None) -> PredictionSet:
    """`load_predictions` of a submission read by `_walk_submission`: the
    members of `results` are read by `_read_results` each time a chunk is
    read, so only one chunk's entries are alive next to the tables. The
    problems of every batch are raised together, and the unknown fields
    are warned about (top level first, then entries in file order) only
    once the whole text has been walked, so that a document that is
    then read whole raises its first problem before any warning."""
    preds: PredictionSet = {}
    problems: list[str] = []  # each batch's, sorted, so all of them are sorted
    unknown: list[tuple[set, str]] = []

    def flush(members: list) -> None:
        if not members:
            return
        try:
            tables = _read_results(path, members, taxonomy, unknown)
        except ValidationError as e:
            problems.extend(e.problems)
        else:
            preds.update(tables)

    keys = _walk_submission(file, flush)
    _warn_unknown(keys, _KNOWN_SUBMISSION_KEYS, str(path))
    for found, where in unknown:
        _warn_unknown(found, _SUBMISSION.keys, where)
    if problems:
        raise ValidationError(problems)
    return preds


_CHUNK = 1 << 20  # the bytes of a submission that `_walk_submission` reads at a time
_WHITESPACE = json.decoder.WHITESPACE.match  # the whitespace json.loads skips
_DECODER = json.JSONDecoder()


class _Unwalkable(Exception):
    """The submission is not one `_walk_submission` walks; it is read whole."""


class _Short(Exception):
    """A step of `_walk_submission` needs more text than has been read."""


def _punctuation(text: str, pos: int) -> tuple[str, int]:
    """The character after the whitespace at pos, and the position after it."""
    pos = _WHITESPACE(text, pos).end()
    if pos == len(text):
        raise _Short
    return text[pos], pos + 1


def _key(text: str, pos: int) -> tuple[str, int]:
    """The key whose string starts after the quote before pos, and the
    position after the colon that follows it."""
    try:
        key, pos = json.decoder.scanstring(text, pos)
    except json.JSONDecodeError:
        raise _Short
    colon, pos = _punctuation(text, pos)
    if colon != ":":
        raise _Unwalkable
    return key, pos


def _value(text: str, pos: int) -> tuple[object, str, int]:
    """The value after the whitespace at pos and the comma or closing brace
    after it, and the position after that brace or comma. The end of a
    number is known only from the character after it, so a value is
    taken only once that punctuation has been read."""
    try:
        value, pos = _DECODER.raw_decode(text, _WHITESPACE(text, pos).end())
    except json.JSONDecodeError:
        raise _Short
    except (ValueError, RecursionError):  # an int beyond the digit limit; nesting too deep
        raise _Unwalkable
    after, pos = _punctuation(text, pos)
    if after not in ",}":
        raise _Short
    return value, after, pos


def _walk_submission(file, flush) -> set[str]:
    """Walk the text of a submission's binary file, decoded `_CHUNK` bytes
    at a time: the top-level object and `results` token by token
    (whitespace, braces, commas, colons, keys by `scanstring`), each
    other value at once with `raw_decode`. Before each chunk is read, and
    at the end, `flush` is given the list of (uid, value) members of
    `results` decoded since it was last given them, which it empties.
    Returns the top-level keys.

    The next chunk is read once less than a sixteenth of a chunk of text
    is left ahead of the walk, so a value crosses the end of the text
    only if it is longer than that. A step the text read so far does not
    complete is tried again with one more chunk, so a token may cross
    any number of chunks. At what `json.loads` rejects, and at documents
    this walk does not cover (a top level or `results` that is not an
    object, a repeated key, no `results`, a top-level key of a ground
    truth or taxonomy), this raises `_Unwalkable`."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    text, eof, members = "", False, []

    def read_more(pos: int) -> None:
        """Drop the text before pos, flush the members and add the next
        chunk's text. The walked text is freed first, because reading
        the members is when the most memory is held."""
        nonlocal text, eof
        if eof:
            raise _Unwalkable
        text = text[pos:]
        flush(members)
        chunk = file.read(_CHUNK)
        eof = not chunk
        try:
            text += decoder.decode(chunk, final=eof)
        except UnicodeDecodeError:
            raise _Unwalkable

    def take(step, pos: int):
        if len(text) - pos < _CHUNK // 16 and not eof:
            read_more(pos)
            pos = 0
        while True:
            try:
                return step(text, pos)
            except _Short:
                read_more(pos)
                pos = 0

    def walk_object(pos: int, member) -> tuple[set[str], int]:
        """The keys of the object whose brace ends before pos, each passed
        with the position after its colon to `member`, which gives the
        punctuation after the value and the position after that; and the
        position after the object's closing brace."""
        keys: set[str] = set()
        mark, pos = take(_punctuation, pos)
        if mark == "}":
            return keys, pos
        while True:
            if mark != '"':
                raise _Unwalkable
            key, pos = take(_key, pos)
            if key in keys:
                raise _Unwalkable
            keys.add(key)
            mark, pos = member(key, pos)
            if mark == "}":
                return keys, pos
            if mark != ",":
                raise _Unwalkable
            mark, pos = take(_punctuation, pos)

    def result(uid: str, pos: int) -> tuple[str, int]:
        entries, after, pos = take(_value, pos)
        members.append((uid, entries))
        return after, pos

    def top_level(key: str, pos: int) -> tuple[str, int]:
        if key in (_KNOWN_GT_KEYS | {"nouns", "verbs"}) - _KNOWN_SUBMISSION_KEYS:
            raise _Unwalkable  # a ground truth or taxonomy, read whole undecoded
        if key != "results":
            _, after, pos = take(_value, pos)
            return after, pos
        mark, pos = take(_punctuation, pos)
        if mark != "{":
            raise _Unwalkable
        _, pos = walk_object(pos, result)
        return take(_punctuation, pos)

    mark, pos = take(_punctuation, 0)
    if mark != "{":
        raise _Unwalkable
    keys, pos = walk_object(pos, top_level)
    while True:  # nothing but whitespace may follow
        pos = _WHITESPACE(text, pos).end()
        if pos < len(text):
            raise _Unwalkable
        if eof:
            break
        read_more(pos)
        pos = 0
    if "results" not in keys:
        raise _Unwalkable
    flush(members)
    return keys


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

    The text is the bytes of `json.dumps(doc, indent=2, sort_keys=True)`
    of the submission document, written from the columns: each entry is
    one `_ENTRY` template, each uid is written by `json.dumps`, and the
    provenance is `json.dumps` of its own, shifted one level in (JSON
    text has no raw newline inside a string, so every newline in it is
    one of the indentation's).
    """
    examples = []
    for uid in sorted(preds):
        key, entries = json.dumps(uid), _entries_text(sort_canonical(preds[uid]))
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


class TensorFile:
    """An open tensor container, read one tensor at a time.

    Opening it scans the record headers only, seeking past the data, and
    runs every format check: the magic and the version, truncation against
    the file size, UTF-8 and unique names, and dims that numpy can hold.
    `index` maps each name, in file order, to the offset and dims of its
    data. `read` gives one tensor, once all of its values are finite.

    The problem raised is always the first in file order: before a
    structural fault is raised, the tensors ahead of it are read, and the
    first non-finite one is raised instead (`check_finite`).
    """

    def __init__(self, path, file=None):
        self.path = path
        self.index: dict[str, tuple[int, tuple[int, ...]]] = {}
        self._file = open(path, "rb") if file is None else file  # the file at path, if already open
        try:
            try:
                self._scan()
            except FormatError:
                self.check_finite()  # a non-finite tensor ahead of the fault is raised instead
                raise
        except BaseException:
            self._file.close()
            raise

    def __enter__(self) -> TensorFile:
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def _scan(self) -> None:
        path, file, index = self.path, self._file, self.index
        status = os.fstat(file.fileno())
        if not stat.S_ISREG(status.st_mode):  # a pipe has no size to check against and cannot seek
            raise FormatError(f"{path}: not a regular file; a tensor container is read by seeking")
        size = status.st_size
        file.seek(0)
        head = file.read(8)
        if head[:4] != TENSOR_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {TENSOR_MAGIC!r}")
        if len(head) < 8:
            raise FormatError(f"{path}: truncated header")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != TENSOR_VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")

        offset = 8

        def claim(n: int, what: str) -> int:
            """Claim the next n bytes; returns their start."""
            nonlocal offset
            if offset + n > size:
                raise FormatError(f"{path}: truncated while reading {what}")
            offset += n
            return offset - n

        def read(n: int, what: str) -> bytes:
            file.seek(claim(n, what))
            data = file.read(n)
            if len(data) < n:  # the file shrank after it was opened
                raise FormatError(f"{path}: truncated while reading {what}")
            return data

        while offset < size:
            (name_len,) = struct.unpack("<I", read(4, "name length"))
            start = offset
            try:
                name = read(name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}: tensor name at byte {start} is not UTF-8 ({e.reason})")
            if name in index:
                raise FormatError(f"{path}: duplicate tensor name {name!r}")
            (rank,) = struct.unpack("<I", read(4, f"rank of {name!r}"))
            dims = struct.unpack(f"<{rank}Q", read(8 * rank, f"dims of {name!r}"))
            count = math.prod(dims)
            start = claim(4 * count, f"data of {name!r}")
            try:  # on a stand-in of count values that holds no memory
                np.broadcast_to(np.float32(0), (count,)).reshape(dims)
            except ValueError as e:  # an empty tensor whose other dims numpy cannot hold
                raise FormatError(f"{path}: tensor {name!r} has dims {dims}, which numpy cannot hold ({e})")
            index[name] = (start, dims)

    def read(self, name: str) -> np.ndarray:
        """The tensor `name` as a new read-only float32 array, read into a
        fresh buffer, once every value is finite."""
        start, dims = self.index[name]
        arr = np.empty(math.prod(dims), dtype="<f4")
        self._file.seek(start)
        if self._file.readinto(arr) != arr.nbytes:  # the file shrank after it was opened
            raise FormatError(f"{self.path}: truncated while reading data of {name!r}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{self.path}: tensor {name!r} contains non-finite values")
        arr = arr.reshape(dims)
        arr.flags.writeable = False
        return arr

    def check_finite(self) -> None:
        """Read the tensors of `index` in file order, one at a time; the
        first with a non-finite value is raised."""
        for name in self.index:
            self.read(name)


def read_tensor_file(path) -> dict[str, np.ndarray]:
    """Every tensor of a container, in file order, each a new read-only
    float32 array (`TensorFile`). The first problem in file order is
    raised, a non-finite tensor included."""
    with TensorFile(path) as container:
        return {name: container.read(name) for name in container.index}
