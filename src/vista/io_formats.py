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
`_Entries`. An id is any value `int()` takes, but not a float with a
fractional part, a time-to-contact, score or box corner any value
`float()` takes (bools and numeric strings too), a box a 4-element list,
a uid a non-empty string; a missing or null `source_id` means none.
Problems are listed entry by entry, in file order, and within an entry:
object and uid, box, fields, taxonomy, values.

`load_predictions` and `load_ground_truth` stream their document with
one walker, `_walk_document`: it reads the file `_CHUNK` bytes at a time
and walks the top-level object, and a submission's `results` member by
member or a ground truth's `annotations` a text's values at once (those
up to its last "},", if they are all an array holds) and the rest value
by value, so a reader holds about one chunk of text, the entries decoded
since the last chunk and what it has read so far, never the whole text
or all of its entries. A file that cannot be read twice, such as a pipe,
is copied into memory and walked from its bytes there as a file is, so
it holds about the file's size more. Only a document the walker cannot
walk (invalid JSON or UTF-8, a top level that is not an object, a
repeated key, a list member of another type, a top-level key of a
taxonomy) is parsed whole, from the start of the same file or copy.
Either way a kind has one reader, `_SubmissionStream` or
`_GroundTruthStream`: the walk flushes it each chunk's entries,
`predictions_from_dict` and `ground_truth_from_dict` a parsed document's
whole list, and the rest of the document finishes it.
The other JSON files are small and are read whole.

`read_document` alone tells what a file is, for `vista validate`: a
tensor container by its magic, any other file as JSON, read as above and
told by its top-level `results`, `annotations` or `nouns` key, in that
order. Each kind is read by the loader the other commands use, so a file
gets the same verdict from every command.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import os
import shutil
import stat
import struct
import threading
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import is_not, itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ValidationError
from .types import (
    GroundTruthTable,
    HypothesisTable,
    PredictionSet,
    Taxonomy,
    as_predictions,
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
        raise ValidationError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})")
    del data  # the last reference to the bytes, which are as large as the text
    try:
        return _loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except RecursionError:
        raise ValidationError(f"{path}: invalid JSON: nested too deeply to parse")
    except ValueError as e:  # an integer beyond the interpreter's digit limit
        raise ValidationError(f"{path}: invalid JSON: {str(e).partition(';')[0]}")


def _loads(text: str):
    """`json.loads` of text. The json scanner counts the caller's frames
    against the recursion limit, so a text nested too deeply for this
    call's stack is parsed once more at the bottom of a fresh thread's,
    and that verdict holds: how deeply a file may nest does not depend on
    how deep in the stack it is read."""
    try:
        return json.loads(text)
    except RecursionError:
        pass
    outcome = {}

    def parse() -> None:
        try:
            outcome["value"] = json.loads(text)
        except Exception as e:  # raised again in the calling thread
            outcome["error"] = e

    thread = threading.Thread(target=parse)
    thread.start()
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _warn_unknown(found: set[str], known: set[str], where: str) -> None:
    extras = sorted(found - known)
    if extras:  # at this function, without the registry that shows a message once per line of vista
        warnings.warn_explicit(f"{where}: ignoring unknown fields {extras}", UserWarning, __file__,
                               _warn_unknown.__code__.co_firstlineno, module=__name__, registry=None)


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
    try:
        return Taxonomy(noun_names=tuple(doc["nouns"]), verb_names=tuple(doc["verbs"]))
    except ValidationError as e:
        raise ValidationError([f"{where}: {problem}" for problem in e.problems]) from None


def load_taxonomy(path) -> Taxonomy:
    return taxonomy_from_dict(_load_json(path), where=str(path))


def write_taxonomy(taxonomy: Taxonomy, path) -> None:
    _dump_json(taxonomy_to_dict(taxonomy), path)


# -- entries ----------------------------------------------------------------

@dataclass(frozen=True)
class _EntrySpec:
    """How `_Entries` reads one kind of entry."""

    numbers: tuple[tuple[str, str, type], ...]  # (field, column, int or float), in conversion order
    field_problem: str  # how the problem of the first number field that fails is worded
    rules: Callable  # the value rules, given the required number columns by name
    rule_values: tuple[str, ...]  # the column whose value each rule's problem names
    name: Callable[[str | None, int], str]  # an entry's name, from its list's name and its index
    optional: frozenset[str] = frozenset()  # number fields that may be missing or null
    uid_field: str | None = None  # the field that holds an entry's uid

    @cached_property
    def keys(self) -> frozenset[str]:
        """The fields an entry may have; others are warned about."""
        return frozenset({"box", self.uid_field, *(field for field, _, _ in self.numbers)}) - {None}


_IDS_AND_TTC = (("noun_category_id", "noun", int), ("verb_category_id", "verb", int),
                ("time_to_contact", "ttc", float))
_SUBMISSION = _EntrySpec(
    numbers=_IDS_AND_TTC + (("score", "score", float), ("source_id", "source", int)),
    field_problem="bad or missing field", name=lambda uid, i: f"results[{uid!r}][{i}]",
    rules=hypothesis_rules, rule_values=("ttc", "score", "noun", "verb"), optional=frozenset({"source_id"}),
)
_GROUND_TRUTH = _EntrySpec(
    numbers=_IDS_AND_TTC, field_problem="bad or missing category/ttc field", uid_field="example_uid",
    name=lambda _, i: f"annotation {i}", rules=ground_truth_rules, rule_values=("ttc", "noun", "verb"),
)

_MISSING = object()  # the value of a required field an entry does not have
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _number_column(values: list, kind: type, field: str) -> tuple[list, dict[int, str]]:
    """The values of one number field converted by `kind` (int or float),
    and the problem of each row whose value `kind` does not take, or, for
    int, a float with a fractional part (its value becomes `kind()`). A
    column of values of exactly that type is returned as it is, since
    `kind` gives each of them back unchanged."""
    if set(map(type, values)) <= {kind}:
        return values, {}
    converted, problems = [], {}
    for r, value in enumerate(values):
        try:
            if value is _MISSING:
                raise KeyError(field)
            number = kind(value)
            if kind is int and isinstance(value, float) and number != value:
                raise ValueError(f"{field} must be a whole number, got {value!r}")
            converted.append(number)
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


class _Entries:
    """One batch of a reader's entries read as columns. `read` takes some
    lists of entries, each field of every entry at once, and the rules of
    single fields and boxes (problem stages object/uid 0, box 1 and fields
    2); `check` holds the columns to the taxonomy's id ranges (stage 3),
    `spec.rules` and int64 (stage 4), once the reader knows the taxonomy.

    Every problem is appended to the reader's `problems`, keyed (list
    position, entry index, stage), so `_raise_sorted` gives file order
    across batches. A row's index is its place in the columns; non-objects
    get none."""

    def __init__(self, path, problems: list, spec: _EntrySpec, spans: list):
        self.path, self.problems, self.spec = path, problems, spec
        # (list position, list name, first row, index of the list's first
        # entry, each row's entry index from there, None if all are objects)
        self.spans = spans
        self.starts = [start for _, _, start, _, _ in spans]
        self.columns: dict = {}  # by column name
        self.ok = np.ones(0, dtype=bool)  # the rows without a problem so far
        self.outside: dict[str, dict[int, int]] = {}  # by id column, its rows beyond int64 and their ids

    def locate(self, r: int) -> tuple[int, str | None, int]:
        """The list position, list name and entry index of row r."""
        position, name, start, first, kept = self.spans[bisect_right(self.starts, r) - 1]
        return position, name, first + (r - start if kept is None else kept[r - start])

    def report(self, r: int, stage: int, message: str) -> None:
        position, name, i = self.locate(r)
        where = self.spec.name(name, i)
        if stage > 0 and "uid" in self.columns:
            where += f" (uid {self.columns['uid'][r]})"
        self.problems.append(((position, i, stage), f"{self.path}: {where}: {message}"))

    def value(self, column: str, r: int):
        """Row r's value of a number column, as its problems word it."""
        wide = self.outside.get(column, {})
        return wide[r] if r in wide else self.columns[column][r].item()

    @classmethod
    def read(cls, path, problems: list, lists: list, spec: _EntrySpec, unknown: list) -> _Entries:
        """The entries of `lists`, (position, name, index of the first entry,
        entries) tuples that it empties, read as columns. Entries with
        unknown fields are appended to `unknown` as (fields, where), for
        the reader to warn about once the whole document is read. They are
        looked for entry by entry only if an entry has a problem or the
        entries have more fields in all than the known fields they hold,
        which the uid, box and number passes count: with no problem, every
        entry has each required field, and the optional ones are counted
        by a default that tells a missing field from a null."""
        rows: list[dict] = []
        spans = []
        for position, name, first, entries in lists:
            kept = None
            if not all(map(isinstance, entries, repeat(dict))):
                kept = [i for i, raw in enumerate(entries) if isinstance(raw, dict)]
                problems += [((position, first + i, 0), f"{path}: {spec.name(name, first + i)}: must be an object")
                             for i, raw in enumerate(entries) if not isinstance(raw, dict)]
                entries = [entries[i] for i in kept]
            spans.append((position, name, len(rows), first, kept))
            rows += entries
        self = cls(path, problems, spec, spans)

        n = len(rows)
        known = n * (len(spec.keys) - len(spec.optional))  # the known fields present, if no row has a problem
        bad_uid = False
        if spec.uid_field is not None:
            column = list(map(dict.get, rows, repeat(spec.uid_field)))
            if not (set(map(type, column)) <= {str} and all(column)):
                bad_uid = True
                for r in [r for r, uid in enumerate(column) if not (isinstance(uid, str) and uid)]:
                    self.report(r, 0, f"missing {spec.uid_field}")
                    column[r] = f"<{spec.name(*self.locate(r)[1:])}>"
            self.columns["uid"] = column

        boxes, box_problems = _box_column(list(map(dict.get, rows, repeat("box"))))
        self.columns["boxes"] = boxes
        values: dict[str, list] = {}  # each number column's values, as its problems word them
        field_problems: dict[int, str] = {}
        for field, column, kind in spec.numbers:
            raw = list(map(dict.get, rows, repeat(field), repeat(_MISSING)))
            if field in spec.optional:
                present = n - raw.count(_MISSING)
                known += present
                if not present:  # read-only zero-stride views of one zero, not row-sized columns
                    zero = np.zeros((), dtype=np.int64 if kind is int else np.float64)
                    self.columns[column] = np.broadcast_to(zero, n)
                    self.columns["has_" + column] = np.broadcast_to(np.zeros((), dtype=bool), n)
                    continue
                has = np.fromiter(map(is_not, raw, repeat(None)), dtype=bool, count=n)
                if present < n:
                    has &= np.fromiter(map(is_not, raw, repeat(_MISSING)), dtype=bool, count=n)
                if not has.all():
                    raw = [value if kept else 0 for value, kept in zip(raw, has.tolist())]
                self.columns["has_" + column] = has
            values[column], failed = _number_column(raw, kind, field)
            for r, message in failed.items():
                field_problems.setdefault(r, message)
        if bad_uid or box_problems or field_problems or sum(map(len, rows)) != known:
            unknown += [(set(raw), f"{path}: {spec.name(*self.locate(r)[1:])}")
                        for r, raw in enumerate(rows) if not spec.keys.issuperset(raw)]
        del rows
        lists.clear()  # the last references to the entries, which are most of the memory
        for field, column, kind in spec.numbers:
            if column not in values:
                continue
            try:
                self.columns[column] = np.array(values[column], dtype=np.int64 if kind is int else np.float64)
            except OverflowError:
                wide = np.array(values[column], dtype=object)
                self.columns[column] = wide.clip(_INT64_MIN, _INT64_MAX).astype(np.int64)
                beyond = np.flatnonzero(self.columns[column] != wide).tolist()
                self.outside[column] = {r: values[column][r] for r in beyond}

        for r, message in box_problems.items():
            self.report(r, 1, message)
        for r, message in field_problems.items():
            self.report(r, 2, f"{spec.field_problem} ({message})")
        ok = np.ones(n, dtype=bool)
        ok[list(box_problems)] = False
        rules = box_rules(boxes)  # each bad box gets one problem, naming its rules and its corners
        bad_box = ok & np.any([bad for bad, _ in rules], axis=0)
        for r in np.flatnonzero(bad_box).tolist():
            corners = tuple(boxes[r].tolist())
            self.report(r, 1, "; ".join(f"{what}, got {corners}" if k == 0 else f"{what}: {corners}"
                                        for k, (bad, what) in enumerate(rules) if bad[r]))
        ok &= ~bad_box
        ok[list(field_problems)] = False
        self.ok = ok
        return self

    def check(self, taxonomy: Taxonomy | None) -> None:
        """Hold the rows without a problem yet to the taxonomy's id ranges,
        if one is given, then to `spec.rules` and int64."""
        spec, columns, ok = self.spec, self.columns, self.ok
        if taxonomy is not None:
            # Ids beyond int64 were clamped into it, still outside the taxonomy.
            off_taxonomy = taxonomy.outside_ids(columns["noun"], columns["verb"])
            for column, bad, size in off_taxonomy:
                for r in np.flatnonzero(ok & bad).tolist():
                    self.report(r, 3, f"{column}_id {self.value(column, r)} out of range [0, {size})")
            ok = ok & ~np.any([bad for _, bad, _ in off_taxonomy], axis=0)
        rules = spec.rules(**{column: columns[column] for field, column, _ in spec.numbers
                              if field not in spec.optional})
        for (bad, what), column in zip(rules, spec.rule_values):
            for r in np.flatnonzero(ok & bad).tolist():
                self.report(r, 4, f"{what}, got {self.value(column, r)}")
        # Ids below int64 broke a rule above, unless they are optional ids,
        # which may be negative.
        for field, column, _ in spec.numbers:
            for r, value in self.outside.get(column, {}).items():
                if ok[r] and (field in spec.optional or value > 0):
                    self.report(r, 4, f"{column}_id must fit in 64 bits, got {value}")

    def list_spans(self) -> list[tuple[str | None, int, int]]:
        """Each list's (name, first row, end row)."""
        ends = self.starts[1:] + [len(self.ok)]
        return [(name, start, end) for (_, name, start, _, _), end in zip(self.spans, ends)]


def _raise_sorted(problems: list) -> None:
    """Raise the keyed problems, if any, sorted by key."""
    if problems:
        problems.sort(key=itemgetter(0))
        raise ValidationError([message for _, message in problems])


# -- ground truth -----------------------------------------------------------

def load_ground_truth(path) -> tuple[Taxonomy, GroundTruthTable]:
    """Read a ground truth, once (`_read_json`), as its taxonomy and one
    GroundTruthTable."""
    with open(path, "rb") as file:
        walked, value = _read_json(file, path, {"annotations": _GroundTruthStream(path)})
    return value if walked else ground_truth_from_dict(value, path)


def _ground_truth_taxonomy(doc, path) -> Taxonomy:
    """The taxonomy of a ground truth's top level, inline or at its
    `taxonomy_path`, once its unknown top-level fields are warned about."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: ground-truth document must be a JSON object")
    _warn_unknown(set(doc), _KNOWN_GT_KEYS, str(path))
    if "taxonomy" in doc:
        return taxonomy_from_dict(doc["taxonomy"], where=f"{path}: taxonomy")
    if "taxonomy_path" in doc:
        taxonomy_path = doc["taxonomy_path"]
        if not isinstance(taxonomy_path, str):
            raise ValidationError(f"{path}: 'taxonomy_path' must be a string, got {taxonomy_path!r}")
        return load_taxonomy(Path(path).parent / taxonomy_path)
    raise ValidationError(f"{path}: needs 'taxonomy' inline or a 'taxonomy_path'")


def ground_truth_from_dict(doc, path) -> tuple[Taxonomy, GroundTruthTable]:
    """A parsed ground-truth document as `load_ground_truth` reads it: its
    annotations are one batch of `_GroundTruthStream`, and the rest of it
    the header. `path` names the document in problems and locates its
    `taxonomy_path`. The annotations are taken out of `doc`, so they are
    freed as they are read."""
    annotations = doc.pop("annotations", None) if isinstance(doc, dict) else None
    if not isinstance(annotations, list):
        _ground_truth_taxonomy(doc, path)  # a problem of the document or its taxonomy comes first
        raise ValidationError(f"{path}: missing or non-list 'annotations'")
    reader = _GroundTruthStream(path)
    reader.flush(annotations)
    return reader.finish(doc)


class _GroundTruthStream:
    """The reader of a ground truth's annotations, in batches, each read
    (`_Entries.read`) when it is flushed. Once the header gives the
    taxonomy (`json.dumps(sort_keys=True)` writes it after the
    annotations), the unknown fields are warned about (top level first,
    then annotations in file order), every batch is checked, every
    problem raised in file order, and the columns joined once, with one
    string per example uid."""

    def __init__(self, path):
        self.path = path
        self.problems: list = []
        self.unknown: list[tuple[set, str]] = []
        self.parts: list[_Entries] = []
        self.count = 0  # the annotations read so far

    def flush(self, entries: list) -> None:
        lists = [(0, None, self.count, entries.copy())]
        self.count += len(entries)
        entries.clear()
        self.parts.append(_Entries.read(self.path, self.problems, lists, _GROUND_TRUTH, self.unknown))

    def finish(self, header: dict) -> tuple[Taxonomy, GroundTruthTable]:
        taxonomy = _ground_truth_taxonomy(header, self.path)
        for found, where in self.unknown:
            _warn_unknown(found, _GROUND_TRUTH.keys, where)
        if not self.parts:
            self.flush([])
        for part in self.parts:
            part.check(taxonomy)
        _raise_sorted(self.problems)
        shared: dict[str, str] = {}
        columns = {name: np.concatenate([part.columns[name] for part in self.parts])
                   for name in ("boxes", "noun", "verb", "ttc")}
        columns["uid"] = [shared.setdefault(uid, uid) for part in self.parts for uid in part.columns["uid"]]
        self.parts.clear()
        return taxonomy, GroundTruthTable(**columns)


def write_ground_truth(taxonomy: Taxonomy, gts: GroundTruthTable, path) -> None:
    """Write a ground truth."""
    _dump_json({
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
    }, path)


# -- predictions / submissions ----------------------------------------------

def _copy(text: str) -> str:
    """A new string equal to text. A string of a parsed document that
    outlives it keeps the memory of the whole document resident, because
    it shares that memory's allocation pools."""
    return text.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")


def load_predictions(path, taxonomy: Taxonomy | None = None) -> PredictionSet:
    """Read a submission, once (`_read_json`), as a PredictionSet of one
    run per batch read: the batch's columns, its uids in file order and
    their bounds, each example's entries in file order (each stage ranks
    the rows it takes). The batches are not joined, and no table is made
    per example. The ids are checked against the taxonomy's ranges only
    if one is given."""
    with open(path, "rb") as file:
        walked, value = _read_json(file, path, {"results": _SubmissionStream(path, taxonomy)})
    return value if walked else predictions_from_dict(value, path, taxonomy)


def _read_json(file, path, readers: dict, head: bytes = b"") -> tuple[str | None, object]:
    """An open JSON file, `head` read of it already, walked by
    `_walk_document`: the key of `readers` whose list it walks and what
    that reader makes of it. A pipe is copied into memory, `head` first,
    and walked there the same way. Only a document the walk does not
    cover is parsed whole (`_parse_json`): (None, its document)."""
    if not stat.S_ISREG(os.fstat(file.fileno()).st_mode):
        copy = io.BytesIO()
        copy.write(head)
        shutil.copyfileobj(file, copy)
        file = copy
    try:
        file.seek(0)
        walked, header = _walk_document(file, {key: reader.flush for key, reader in readers.items()})
    except _Unwalkable:  # parsed whole below, once the walk's text is freed with its traceback
        pass
    else:
        return walked, readers[walked].finish(header)
    return None, _parse_json(_read_whole(file), path)


def _read_whole(file) -> bytes:
    """An open binary file's bytes from its start; it is closed, freeing a pipe's copy, before they are decoded."""
    file.seek(0)
    with file:
        return file.read()


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
        readers = {"results": _SubmissionStream(path, None), "annotations": _GroundTruthStream(path)}
        walked, doc = _read_json(file, path, readers, head)
    if walked is not None:  # a walked document has one of the two keys, not both
        return ("submission" if walked == "results" else "ground truth"), doc
    if isinstance(doc, dict) and "results" in doc:
        return "submission", predictions_from_dict(doc, path)
    if isinstance(doc, dict) and "annotations" in doc:
        return "ground truth", ground_truth_from_dict(doc, path)
    if isinstance(doc, dict) and "nouns" in doc:
        return "taxonomy", taxonomy_from_dict(doc, where=str(path))
    raise ValidationError(f"{path}: unrecognized document type")


def predictions_from_dict(doc, path, taxonomy: Taxonomy | None = None) -> PredictionSet:
    """A parsed submission document as `load_predictions` reads it: the
    members of its `results` are one batch of `_SubmissionStream`, so the
    PredictionSet has one run, and the rest of it is the header. `path`
    names the document in problems. The results are taken out of `doc`,
    so their entries are freed as they are read."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: submission document must be a JSON object")
    results = doc.pop("results", None)
    if not isinstance(results, dict):
        _warn_unknown(set(doc), _KNOWN_SUBMISSION_KEYS, str(path))
        raise ValidationError(f"{path}: missing or non-object 'results'")
    members = list(results.items())
    del results
    reader = _SubmissionStream(path, taxonomy)
    reader.flush(members)
    return reader.finish(doc)


def _read_results(path, members: list, first: int, taxonomy: Taxonomy | None, problems: list,
                  unknown: list) -> tuple[HypothesisTable, list[str], list[int]] | None:
    """(uid, entries) members of a submission's `results`, in file order,
    the first at position `first`, read into `problems` and `unknown`
    (`_Entries.read` and `check`) as one run of a PredictionSet: the
    batch's columns as one HypothesisTable, the uids and the bounds of
    each uid's entries, in file order. A value that is not a list is a
    problem too, and no run is made (None) once there is one. The members
    are emptied, so their entries are freed as they are read."""
    problems += [((first + u, -1, 0), f"{path}: results[{uid!r}] must be a list")
                 for u, (uid, entries) in enumerate(members) if not isinstance(entries, list)]
    lists = [(first + u, _copy(uid), 0, entries)
             for u, (uid, entries) in enumerate(members) if isinstance(entries, list)]
    members.clear()
    batch = _Entries.read(path, problems, lists, _SUBMISSION, unknown)
    batch.check(taxonomy)
    if problems:
        return None
    whole = HypothesisTable.from_valid(*itemgetter(
        "boxes", "noun", "verb", "ttc", "score", "source", "has_source")(batch.columns))
    spans = batch.list_spans()
    return whole, [uid for uid, _, _ in spans], [start for _, start, _ in spans] + [len(whole)]


class _SubmissionStream:
    """The reader of a submission's `results`, in batches, each read by
    `_read_results` into one run of the PredictionSet when it is flushed.
    The problems of every batch are raised together, in file order, and
    the unknown fields are warned about (top level first, then entries in
    file order) only once the header is known, so that a walked document
    that is then read whole raises its first problem before any warning."""

    def __init__(self, path, taxonomy: Taxonomy | None):
        self.path, self.taxonomy = path, taxonomy
        self.runs: list = []  # one per batch, for the PredictionSet
        self.problems: list = []  # keyed, for `_raise_sorted`
        self.unknown: list[tuple[set, str]] = []
        self.count = 0  # the members read so far

    def flush(self, members: list) -> None:
        first, self.count = self.count, self.count + len(members)
        run = _read_results(self.path, members, first, self.taxonomy, self.problems, self.unknown)
        if run is not None:
            self.runs.append(run)

    def finish(self, header: dict) -> PredictionSet:
        _warn_unknown(set(header), _KNOWN_SUBMISSION_KEYS, str(self.path))
        for found, where in self.unknown:
            _warn_unknown(found, _SUBMISSION.keys, where)
        _raise_sorted(self.problems)
        return PredictionSet(self.runs)


# -- the streamed JSON reader -----------------------------------------------

# The bytes `_walk_document` reads at a time, of a submission or a ground
# truth. The entries decoded from one chunk take 2-3 times the memory of
# its text and live until the next chunk is read, so the chunk sets a
# reader's peak: at 256 KiB, about 1 MB next to what it has read. Each
# chunk's entries are one batch, which has a fixed cost: a 31 MB
# submission read 8 uids at a time (a chunk of 256 KiB) takes about 130
# ms of reading batches, 150 ms 4 at a time and 115 ms 32 at a time
# (medians over 5 reads each, on a 2-core Xeon with Python 3.11).
_CHUNK = 1 << 18
_WHITESPACE = json.decoder.WHITESPACE.match  # the whitespace json.loads skips
_SCAN = json.JSONDecoder().scan_once  # a value and the position after it, as json.loads decodes it
_LISTS = {"results": "{", "annotations": "["}  # the members walked, by the mark that opens them


class _Unwalkable(Exception):
    """The document is not one `_walk_document` walks; it is read whole."""


class _Short(Exception):
    """A step of `_walk_document` needs more text than has been read."""


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


def _value(text: str, pos: int, marks: str = ",}") -> tuple[object, str, int]:
    """The value after the whitespace at pos and the one of `marks` after
    it, a comma or the closing brace of an object (or, given ",]", the
    closing bracket of an array), and the position after that mark. The
    end of a number is known only from the character after it, so a value
    is taken only once that punctuation has been read."""
    try:
        value, pos = _SCAN(text, _WHITESPACE(text, pos).end())
    except (json.JSONDecodeError, StopIteration):
        raise _Short
    except (ValueError, RecursionError):  # an int beyond the digit limit; nesting too deep
        raise _Unwalkable
    after, pos = _punctuation(text, pos)
    if after not in marks:
        raise _Short
    return value, after, pos


def _walk_document(file, flushes: dict[str, Callable]) -> tuple[str, dict]:
    """Walk the text of a binary JSON file, decoded `_CHUNK` bytes at a
    time: the top-level object token by token (whitespace, braces,
    commas, colons, keys by `scanstring`), and the one member of
    `_LISTS` that a key of `flushes` names, element by element: the
    (uid, value) members of `results`, an object, or the values of
    `annotations`, an array. Each other value is decoded at once by
    `_SCAN`. Before each chunk is read, and at the end, the walked key's
    flush is given the list of its elements decoded since it was last
    given them, which it empties. Returns that key and the other
    top-level members, by key.

    The next chunk is read once less than a quarter of a chunk of text
    is left ahead of the walk, so a value crosses the end of the text
    only if it is longer than that: at 256 KiB, longer than a 100-entry
    uid list (about 31 KB), which a sixteenth cut and decoded again in
    one of about 19 lists. A step the text read so far does not
    complete is tried again with one more chunk, so a token may cross
    any number of chunks. At what `json.loads` rejects, and at documents
    this walk does not cover (a top level that is not an object, a
    repeated key, a walked member of another type, no member or two
    members of `_LISTS`, one that `flushes` does not name, a top-level
    key of a taxonomy), this raises `_Unwalkable`."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    text, eof, elements, walked, reads = "", False, [], None, 0
    header: dict = {}
    margin = _CHUNK // 4  # the text left ahead of the walk when the next chunk is read

    def read_more(pos: int) -> None:
        """Drop the text before pos, flush the elements and add the next
        chunk's text. The walked text is freed first, because reading
        the elements is when the most memory is held."""
        nonlocal text, eof, reads
        if eof:
            raise _Unwalkable
        text, reads = text[pos:], reads + 1
        if elements:
            flushes[walked](elements)
        chunk = file.read(_CHUNK)
        eof = not chunk
        try:
            text += decoder.decode(chunk, final=eof)
        except UnicodeDecodeError:
            raise _Unwalkable

    def take(step, pos: int, *args):
        if len(text) - pos < margin and not eof:
            read_more(pos)
            pos = 0
        while True:
            try:
                return step(text, pos, *args)
            except _Short:
                read_more(pos)
                pos = 0

    def walk_object(pos: int, member) -> int:
        """Walk the object whose brace ends before pos, passing each key
        and the position after its colon to `member`, which gives the
        punctuation after the value and the position after that; returns
        the position after the object's closing brace."""
        keys: set[str] = set()
        mark, pos = take(_punctuation, pos)
        if mark == "}":
            return pos
        while True:
            if mark != '"':
                raise _Unwalkable
            key, pos = take(_key, pos)
            if key in keys:
                raise _Unwalkable
            keys.add(key)
            mark, pos = member(key, pos)
            if mark == "}":
                return pos
            if mark != ",":
                raise _Unwalkable
            mark, pos = take(_punctuation, pos)

    def take_block(pos: int) -> int:
        """Decode the values from pos to the text's last "}," at once, as
        the elements of one array, if those values are all that array
        holds; returns the position after that comma, or pos if they are
        not (the comma is in a string or a nested value, or the text there
        is not JSON), and the values are left to `_value`."""
        cut = text.rfind("},", pos)
        if cut < 0:
            return pos
        try:
            values, end = _SCAN("[" + text[pos:cut + 1] + "]", 0)
        except (ValueError, StopIteration, RecursionError):  # JSONDecodeError is a ValueError
            return pos
        if end != cut + 3 - pos:
            return pos
        elements.extend(values)
        return cut + 2

    def walk_array(pos: int) -> int:
        """Walk the array whose bracket ends before pos; returns the
        position after its closing bracket. Once per text read, the values
        up to its last "}," are decoded at once (`take_block`): each
        annotation is an object, so that is all of them but the text's
        tail. Each value after those is taken as a `_value` of the array,
        with a comma or its closing bracket after it. A pipe's annotations
        are walked here too, from its bytes in memory; the whole-document
        parse reads only a document that this walk rejects."""
        mark, pos = take(_punctuation, pos)
        if mark == "]":
            return pos
        pos -= 1  # the first value starts at the mark
        blocked = -1  # the read whose text `take_block` last tried
        while mark != "]":
            if blocked != reads:
                blocked, pos = reads, take_block(pos)
            value, mark, pos = take(_value, pos, ",]")
            elements.append(value)
        return pos

    def result(uid: str, pos: int) -> tuple[str, int]:
        entries, after, pos = take(_value, pos)
        elements.append((uid, entries))
        return after, pos

    def top_level(key: str, pos: int) -> tuple[str, int]:
        nonlocal walked
        if key in ("nouns", "verbs"):
            raise _Unwalkable  # a taxonomy, read whole undecoded
        if key not in _LISTS:
            header[key], after, pos = take(_value, pos)
            return after, pos
        if walked is not None or key not in flushes:
            raise _Unwalkable
        walked = key
        mark, pos = take(_punctuation, pos)
        if mark != _LISTS[key]:
            raise _Unwalkable
        pos = walk_object(pos, result) if mark == "{" else walk_array(pos)
        return take(_punctuation, pos)

    mark, pos = take(_punctuation, 0)
    if mark != "{":
        raise _Unwalkable
    pos = walk_object(pos, top_level)
    while True:  # nothing but whitespace may follow
        pos = _WHITESPACE(text, pos).end()
        if pos < len(text):
            raise _Unwalkable
        if eof:
            break
        read_more(pos)
        pos = 0
    if walked is None:
        raise _Unwalkable
    if elements:
        flushes[walked](elements)
    return walked, header


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

    The values are Python floats and ints (`tolist`), written with `repr`
    as the JSON encoder writes them: finite floats with `float.__repr__`,
    ints with `int.__repr__`. Each column is written at once, and the
    entries are one join of their texts between the pieces of `_ENTRY`.
    """
    first, *pieces = _ENTRY.split("%r")
    before, after = pieces[5].split("%s")  # the piece after the score, around the source line
    source = [repeat(before + after)]
    if table.has_source.all():
        opening, closing = _SOURCE_LINE.split("%r")
        source = [repeat(before + opening), map(repr, table.source.tolist()), repeat(closing + after)]
    elif table.has_source.any():
        source = [repeat(before), [_SOURCE_LINE % value if has else "" for value, has in
                                   zip(table.source.tolist(), table.has_source.tolist())], repeat(after)]
    columns = [*table.boxes.T.tolist(), table.noun.tolist(), table.score.tolist(), table.ttc.tolist(),
               table.verb.tolist()]
    texts = [chain([first], repeat(",\n" + first))]  # each entry's opening, after a comma but the first's
    for k, (column, piece) in enumerate(zip(columns, pieces)):
        texts += [map(repr, column), *(source if k == 5 else [repeat(piece)])]
    return "".join(chain.from_iterable(zip(*texts)))


def write_submission(preds: PredictionSet, path, provenance: dict | None = None) -> None:
    """Write a submission: every example's hypotheses in canonical order,
    full ties by source (`sort_canonical`), so that the bytes do not
    depend on the order of its rows, and the examples in uid order.
    `preds` is a PredictionSet, or another mapping that `as_predictions`
    takes (postprocess's exports, synth's lists).

    The text is the bytes of `json.dumps(doc, indent=2, sort_keys=True)`
    of the submission document, written from the columns: each entry is
    one `_ENTRY` template, each uid is written by `json.dumps`, and the
    provenance is `json.dumps` of its own, shifted one level in (JSON
    text has no raw newline inside a string, so every newline in it is
    one of the indentation's). It is written one example at a time,
    straight to the file, so only one example's text is held.
    """
    provenance_line = (
        "" if provenance is None
        else '  "provenance": ' + json.dumps(provenance, indent=2, sort_keys=True).replace("\n", "\n  ") + ",\n"
    )
    preds = as_predictions(preds)
    with Path(path).open("w") as file:
        file.write(f'{{\n  "challenge": {json.dumps(SUBMISSION_CHALLENGE)},\n{provenance_line}  "results": {{')
        separator = "\n"
        for uid in sorted(preds):
            entries = _entries_text(sort_canonical(preds[uid]))
            file.write(f"{separator}    {json.dumps(uid)}: [")
            if entries:
                file.write("\n")
                file.write(entries)
                file.write("\n    ")
            file.write("]")
            separator = ",\n"
        file.write(("\n  }" if preds else "}") + f',\n  "version": {json.dumps(SUBMISSION_VERSION)}\n}}\n')


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
            except ValidationError:
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
            raise ValidationError(f"{path}: not a regular file; a tensor container is read by seeking")
        size = status.st_size
        file.seek(0)
        head = file.read(8)
        if head[:4] != TENSOR_MAGIC:
            raise ValidationError(f"{path}: bad magic {head[:4]!r}, expected {TENSOR_MAGIC!r}")
        if len(head) < 8:
            raise ValidationError(f"{path}: truncated header")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != TENSOR_VERSION:
            raise ValidationError(f"{path}: unsupported container version {version}")

        offset = 8

        def claim(n: int, what: str) -> int:
            """Claim the next n bytes; returns their start."""
            nonlocal offset
            if offset + n > size:
                raise ValidationError(f"{path}: truncated while reading {what}")
            offset += n
            return offset - n

        def read(n: int, what: str) -> bytes:
            file.seek(claim(n, what))
            data = file.read(n)
            if len(data) < n:  # the file shrank after it was opened
                raise ValidationError(f"{path}: truncated while reading {what}")
            return data

        while offset < size:
            (name_len,) = struct.unpack("<I", read(4, "name length"))
            start = offset
            try:
                name = read(name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValidationError(f"{path}: tensor name at byte {start} is not UTF-8 ({e.reason})")
            if name in index:
                raise ValidationError(f"{path}: duplicate tensor name {name!r}")
            (rank,) = struct.unpack("<I", read(4, f"rank of {name!r}"))
            dims = struct.unpack(f"<{rank}Q", read(8 * rank, f"dims of {name!r}"))
            count = math.prod(dims)
            start = claim(4 * count, f"data of {name!r}")
            try:  # on a stand-in of count values that holds no memory
                np.broadcast_to(np.float32(0), (count,)).reshape(dims)
            except ValueError as e:  # an empty tensor whose other dims numpy cannot hold
                raise ValidationError(f"{path}: tensor {name!r} has dims {dims}, which numpy cannot hold ({e})")
            index[name] = (start, dims)

    def read(self, name: str) -> np.ndarray:
        """The tensor `name` as a new read-only float32 array, read into a
        fresh buffer, once every value is finite."""
        start, dims = self.index[name]
        arr = np.empty(math.prod(dims), dtype="<f4")
        self._file.seek(start)
        if self._file.readinto(arr) != arr.nbytes:  # the file shrank after it was opened
            raise ValidationError(f"{self.path}: truncated while reading data of {name!r}")
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
