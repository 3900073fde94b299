"""Readers and writers for every artifact file the toolkit touches.

Human-facing documents (taxonomy, ground truth, submissions, reports) are
JSON, serialized deterministically (sorted keys, fixed indentation) so
reruns are byte-identical. Dense tensors use a small binary container:
magic "VSTF", version u32, then named tensors (name length u32 + UTF-8
name + rank u32 + dims u64 + row-major little-endian float32 data).

All loaders are total: they return a fully validated value or raise a
structured error listing every problem found, never a partial value.
"""

from __future__ import annotations

import json
import struct
import warnings
from bisect import bisect_right
from itertools import repeat
from pathlib import Path

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
_KNOWN_ENTRY_KEYS = {
    "box", "noun_category_id", "verb_category_id", "time_to_contact", "score", "source_id",
}
_KNOWN_GT_KEYS = {"taxonomy", "taxonomy_path", "annotations", "provenance"}
_KNOWN_ANNOTATION_KEYS = {
    "example_uid", "box", "noun_category_id", "verb_category_id", "time_to_contact",
}


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


def _warn_unknown(found: set[str], known: set[str], where: str) -> None:
    extras = sorted(found - known)
    if extras:
        warnings.warn(f"{where}: ignoring unknown fields {extras}", stacklevel=3)


def _add_corners(box, corners: list[float]) -> str | None:
    """Append the four corners of a raw box, each converted by `float`,
    to `corners`, or four zeros and return the problem if it has none."""
    if isinstance(box, list) and len(box) == 4:
        try:
            corners += (float(box[0]), float(box[1]), float(box[2]), float(box[3]))
            return None
        except (TypeError, ValueError, OverflowError) as e:
            problem = str(e)
    else:
        problem = f"box must be a 4-element [x1, y1, x2, y2] list, got {box!r}"
    corners += (0.0, 0.0, 0.0, 0.0)
    return problem


def _box_problems(boxes: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """The mask of the rows among `ok` whose corners break a rule of
    Box2D, and for each such row one problem naming every rule it breaks,
    worded as Box2D words it."""
    rules = box_rules(boxes)
    bad_box = ok & np.any([bad for bad, _ in rules], axis=0)
    found = []
    for r in np.flatnonzero(bad_box).tolist():
        corners = tuple(boxes[r].tolist())
        found.append((r, "; ".join(
            f"{what}, got {corners}" if k == 0 else f"{what}: {corners}"
            for k, (bad, what) in enumerate(rules) if bad[r]
        )))
    return bad_box, found


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


# -- ground truth -----------------------------------------------------------

def load_ground_truth(path) -> tuple[Taxonomy, GroundTruthTable]:
    """Read a ground truth as its taxonomy and one GroundTruthTable.

    One pass over the annotations checks their keys and converts every
    value on its own; whole columns are then checked against the rules of
    Box2D and GroundTruthInstance and the taxonomy's id ranges. Every
    problem of every bad annotation is listed, annotation by annotation.
    """
    doc = _load_json(path)
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

    annotations = doc.get("annotations")
    if not isinstance(annotations, list):
        raise ValidationError(f"{path}: missing or non-list 'annotations'")

    # Problems are keyed (annotation index, stage) so they can be listed
    # annotation by annotation; within one: uid, box, fields, taxonomy, values.
    problems: list[tuple[tuple[int, int], str]] = []
    index: list[int] = []
    uids: list[str] = []
    corners: list[float] = []
    nouns: list[int] = []
    verbs: list[int] = []
    ttcs: list[float] = []
    unparsed_box: list[int] = []
    unparsed: list[int] = []
    for i, raw in enumerate(annotations):
        if not isinstance(raw, dict):
            problems.append(((i, 0), f"{path}: annotation {i}: must be an object"))
            continue
        if not _KNOWN_ANNOTATION_KEYS.issuperset(raw):
            _warn_unknown(set(raw), _KNOWN_ANNOTATION_KEYS, f"{path}: annotation {i}")
        uid = raw.get("example_uid")
        if not isinstance(uid, str) or not uid:
            problems.append(((i, 0), f"{path}: annotation {i}: missing example_uid"))
            uid = f"<annotation {i}>"
        index.append(i)
        uids.append(uid)
        where = f"{path}: annotation {i} (uid {uid})"
        box_problem = _add_corners(raw.get("box"), corners)
        if box_problem is not None:
            problems.append(((i, 1), f"{where}: {box_problem}"))
            unparsed_box.append(len(index) - 1)
        try:
            noun = int(raw["noun_category_id"])
            verb = int(raw["verb_category_id"])
            ttc = float(raw["time_to_contact"])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            problems.append(((i, 2), f"{where}: bad or missing category/ttc field ({e})"))
            unparsed.append(len(index) - 1)
            noun, verb, ttc = 0, 0, 0.0
        nouns.append(noun)
        verbs.append(verb)
        ttcs.append(ttc)
    del doc, annotations

    n = len(index)
    boxes = np.array(corners, dtype=np.float64).reshape(n, 4)
    (noun, _), (verb, _) = _int64_column(nouns), _int64_column(verbs)
    ttc = np.array(ttcs, dtype=np.float64)

    def report(r: int, stage: int, message: str) -> None:
        problems.append(((index[r], stage), f"{path}: annotation {index[r]} (uid {uids[r]}): {message}"))

    ok = np.ones(n, dtype=bool)
    ok[unparsed_box] = False
    bad_box, box_problems = _box_problems(boxes, ok)
    for r, message in box_problems:
        report(r, 1, message)
    ok &= ~bad_box
    ok[unparsed] = False
    # Ids beyond int64 were clamped into it, still outside the taxonomy.
    bad_ids = ok & ~taxonomy.valid_ids(noun, verb)
    for r in np.flatnonzero(bad_ids).tolist():
        for problem in taxonomy.check_ids(nouns[r], verbs[r]):
            report(r, 3, problem)
    ok &= ~bad_ids
    for (bad, what), values in zip(ground_truth_rules(noun, verb, ttc), (ttcs, nouns, verbs)):
        for r in np.flatnonzero(ok & bad).tolist():
            report(r, 4, f"{what}, got {values[r]}")
    if problems:
        problems.sort(key=lambda p: p[0])
        raise ValidationError([message for _, message in problems])
    return taxonomy, GroundTruthTable(uid=uids, boxes=boxes, noun=noun, verb=verb, ttc=ttc)


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

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _int64_column(values: list[int]) -> tuple[np.ndarray, np.ndarray | None]:
    """Python ints as an int64 column, and a mask of the values outside
    int64 (None when there are none), which are clamped into it."""
    try:
        return np.array(values, dtype=np.int64), None
    except OverflowError:
        outside = np.array([not _INT64_MIN <= v <= _INT64_MAX for v in values])
        return np.array([min(max(v, _INT64_MIN), _INT64_MAX) for v in values], dtype=np.int64), outside


def _copy(text: str) -> str:
    """A new string equal to text. A string of a parsed document that
    outlives it keeps the memory of the whole document resident, because
    it shares that memory's allocation pools."""
    return text.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")


def load_predictions(path, taxonomy: Taxonomy | None = None) -> PredictionSet:
    """Read a submission as one HypothesisTable per example uid, in
    canonical order.

    One pass over the entries checks their keys and converts every value
    on its own, with `int` for ids and `float` for numbers. Whole columns
    are then checked against the rules of Box2D and StaHypothesis, the
    taxonomy's id ranges and the int64 range. Every problem of every bad
    entry is listed, entry by entry, and nothing is returned.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: submission document must be a JSON object")
    _warn_unknown(set(doc), _KNOWN_SUBMISSION_KEYS, str(path))
    results = doc.get("results")
    if not isinstance(results, dict):
        raise ValidationError(f"{path}: missing or non-object 'results'")

    # Problems are keyed (uid position, entry index, stage) so they can be
    # listed entry by entry; within an entry: box, fields, taxonomy, values.
    problems: list[tuple[tuple[int, int, int], str]] = []
    spans: list[tuple[int, str, int]] = []  # (uid position, uid, first row) of each list
    entry_index: list[int] = []
    corners: list[float] = []
    nouns: list[int] = []
    verbs: list[int] = []
    ttcs: list[float] = []
    scores: list[float] = []
    sources: list[int | None] = []
    unparsed_box: list[int] = []
    unparsed: list[int] = []
    add_index, add_noun, add_verb, add_ttc, add_score, add_source = (
        entry_index.append, nouns.append, verbs.append, ttcs.append, scores.append, sources.append
    )
    for u, (uid, entries) in enumerate(results.items()):
        if not isinstance(entries, list):
            problems.append(((u, -1, 0), f"{path}: results[{uid!r}] must be a list"))
            continue
        spans.append((u, _copy(uid), len(entry_index)))
        for i, raw in enumerate(entries):
            if not isinstance(raw, dict):
                problems.append(((u, i, 0), f"{path}: results[{uid!r}][{i}]: must be an object"))
                continue
            if not _KNOWN_ENTRY_KEYS.issuperset(raw):
                _warn_unknown(set(raw), _KNOWN_ENTRY_KEYS, f"{path}: results[{uid!r}][{i}]")
            add_index(i)
            box_problem = _add_corners(raw.get("box"), corners)
            if box_problem is not None:
                problems.append(((u, i, 0), f"{path}: results[{uid!r}][{i}]: {box_problem}"))
                unparsed_box.append(len(entry_index) - 1)
            try:
                noun = int(raw["noun_category_id"])
                verb = int(raw["verb_category_id"])
                ttc = float(raw["time_to_contact"])
                score = float(raw["score"])
                source = raw.get("source_id")
                source = None if source is None else int(source)
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                problems.append(((u, i, 1), f"{path}: results[{uid!r}][{i}]: bad or missing field ({e})"))
                unparsed.append(len(entry_index) - 1)
                noun, verb, ttc, score, source = 0, 0, 0.0, 1.0, None
            add_noun(noun)
            add_verb(verb)
            add_ttc(ttc)
            add_score(score)
            add_source(source)
    del doc, results  # the lists hold every value the columns need

    has_source = [source is not None for source in sources]
    sources = [0 if source is None else source for source in sources]
    n = len(scores)
    boxes = np.array(corners, dtype=np.float64).reshape(n, 4)
    (noun, noun_outside), (verb, verb_outside), (source, source_outside) = (
        _int64_column(nouns), _int64_column(verbs), _int64_column(sources)
    )
    ttc = np.array(ttcs, dtype=np.float64)
    score = np.array(scores, dtype=np.float64)
    starts = [start for _, _, start in spans]

    def report(r: int, stage: int, message: str) -> None:
        u, uid, _ = spans[bisect_right(starts, r) - 1]
        i = entry_index[r]
        problems.append(((u, i, stage), f"{path}: results[{uid!r}][{i}]: {message}"))

    ok = np.ones(n, dtype=bool)
    ok[unparsed_box] = False
    bad_box, box_problems = _box_problems(boxes, ok)
    for r, message in box_problems:
        report(r, 0, message)
    ok &= ~bad_box
    ok[unparsed] = False
    if taxonomy is not None:
        bad_ids = ok & ~taxonomy.valid_ids(noun, verb)
        for r in np.flatnonzero(bad_ids).tolist():
            for problem in taxonomy.check_ids(nouns[r], verbs[r]):
                report(r, 2, problem)
        ok &= ~bad_ids
    for (bad, what), values in zip(hypothesis_rules(noun, verb, ttc, score), (ttcs, scores, nouns, verbs)):
        for r in np.flatnonzero(ok & bad).tolist():
            report(r, 3, f"{what}, got {values[r]}")
    # Ids beyond int64 were clamped into it; those below broke a rule above.
    for name, outside, values in (("noun_id", noun_outside, nouns), ("verb_id", verb_outside, verbs),
                                  ("source_id", source_outside, sources)):
        if outside is not None:
            for r in np.flatnonzero(ok & outside).tolist():
                if name == "source_id" or values[r] > 0:
                    report(r, 3, f"{name} must fit in 64 bits, got {values[r]}")
    if problems:
        problems.sort(key=lambda p: p[0])
        raise ValidationError([message for _, message in problems])
    # The parsed document, most of the peak memory, is freed with the last
    # references to its values.
    whole = HypothesisTable.from_valid(
        boxes, noun, verb, ttc, score, source, np.array(has_source, dtype=bool)
    )
    del corners, nouns, verbs, ttcs, scores, sources, has_source
    ends = starts[1:] + [n]
    return {uid: sort_canonical(whole.take(slice(start, end))) for (_, uid, start), end in zip(spans, ends)}


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

def write_tensor_file(tensors: dict[str, np.ndarray], path) -> None:
    parts = [TENSOR_MAGIC, struct.pack("<I", TENSOR_VERSION)]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float32))
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"tensor {name!r} contains non-finite values")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.tobytes())
    Path(path).write_bytes(b"".join(parts))


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
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start).reshape(dims)
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{path}: tensor {name!r} contains non-finite values")
        out[name] = arr
    return out
