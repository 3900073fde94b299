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
from pathlib import Path

import numpy as np

from .boxes import Box2D
from .errors import FormatError, ValidationError
from .types import (
    GroundTruthInstance,
    HypothesisTable,
    PredictionSet,
    Taxonomy,
    as_table,
    box_rules,
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


def _parse_box(raw, where: str, problems: list[str]) -> Box2D | None:
    if not (isinstance(raw, list) and len(raw) == 4):
        problems.append(f"{where}: box must be a 4-element [x1, y1, x2, y2] list, got {raw!r}")
        return None
    try:
        return Box2D(*(float(v) for v in raw))
    except (TypeError, ValueError, OverflowError) as e:
        problems.append(f"{where}: {e}")
        return None


# -- taxonomy ---------------------------------------------------------------

def taxonomy_to_dict(taxonomy: Taxonomy) -> dict:
    return {"nouns": list(taxonomy.noun_names), "verbs": list(taxonomy.verb_names)}


def taxonomy_from_dict(doc, where: str = "taxonomy") -> Taxonomy:
    problems = []
    for key in ("nouns", "verbs"):
        if not (isinstance(doc, dict) and isinstance(doc.get(key), list)):
            problems.append(f"{where}: missing or non-list '{key}' array")
    if problems:
        raise ValidationError(problems)
    return Taxonomy(noun_names=tuple(doc["nouns"]), verb_names=tuple(doc["verbs"]))


def load_taxonomy(path) -> Taxonomy:
    return taxonomy_from_dict(_load_json(path), where=str(path))


def write_taxonomy(taxonomy: Taxonomy, path) -> None:
    _dump_json(taxonomy_to_dict(taxonomy), path)


# -- ground truth -----------------------------------------------------------

def load_ground_truth(path) -> tuple[Taxonomy, list[GroundTruthInstance]]:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: ground-truth document must be a JSON object")
    _warn_unknown(set(doc), _KNOWN_GT_KEYS, str(path))

    if "taxonomy" in doc:
        taxonomy = taxonomy_from_dict(doc["taxonomy"], where=f"{path}: taxonomy")
    elif "taxonomy_path" in doc:
        taxonomy = load_taxonomy(Path(path).parent / doc["taxonomy_path"])
    else:
        raise ValidationError(f"{path}: needs 'taxonomy' inline or a 'taxonomy_path'")

    annotations = doc.get("annotations")
    if not isinstance(annotations, list):
        raise ValidationError(f"{path}: missing or non-list 'annotations'")

    problems: list[str] = []
    gts: list[GroundTruthInstance] = []
    for i, raw in enumerate(annotations):
        where = f"{path}: annotation {i}"
        if not isinstance(raw, dict):
            problems.append(f"{where}: must be an object")
            continue
        _warn_unknown(set(raw), _KNOWN_ANNOTATION_KEYS, where)
        uid = raw.get("example_uid")
        if not isinstance(uid, str) or not uid:
            problems.append(f"{where}: missing example_uid")
            uid = f"<annotation {i}>"
        where = f"{path}: annotation {i} (uid {uid})"
        box = _parse_box(raw.get("box"), where, problems)
        local: list[str] = []
        try:
            noun_id = int(raw["noun_category_id"])
            verb_id = int(raw["verb_category_id"])
            ttc = float(raw["time_to_contact"])
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            local.append(f"{where}: bad or missing category/ttc field ({e})")
        if box is not None and not local:
            local += [f"{where}: {p}" for p in taxonomy.check_ids(noun_id, verb_id)]
            if not local:
                try:
                    gts.append(
                        GroundTruthInstance(
                            example_uid=uid, box=box, noun_id=noun_id, verb_id=verb_id, ttc=ttc
                        )
                    )
                except ValidationError as e:
                    local += [f"{where}: {p}" for p in e.problems]
        problems += local
    if problems:
        raise ValidationError(problems)
    return taxonomy, gts


def write_ground_truth(
    taxonomy: Taxonomy, gts: list[GroundTruthInstance], path, provenance: dict | None = None
) -> None:
    doc = {
        "taxonomy": taxonomy_to_dict(taxonomy),
        "annotations": [
            {
                "example_uid": gt.example_uid,
                "box": list(gt.box.corners()),
                "noun_category_id": gt.noun_id,
                "verb_category_id": gt.verb_id,
                "time_to_contact": gt.ttc,
            }
            for gt in gts
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
            box = raw.get("box")
            box_problem = None
            if isinstance(box, list) and len(box) == 4:
                try:
                    corners += (float(box[0]), float(box[1]), float(box[2]), float(box[3]))
                except (TypeError, ValueError, OverflowError) as e:
                    box_problem = str(e)
            else:
                box_problem = f"box must be a 4-element [x1, y1, x2, y2] list, got {box!r}"
            if box_problem is not None:
                problems.append(((u, i, 0), f"{path}: results[{uid!r}][{i}]: {box_problem}"))
                corners += (0.0, 0.0, 0.0, 0.0)
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
    rules = box_rules(boxes)
    bad_box = ok & np.any([bad for bad, _ in rules], axis=0)
    for r in np.flatnonzero(bad_box).tolist():
        # The rules a box breaks make one problem, worded as Box2D words it.
        corners_r = tuple(boxes[r].tolist())
        report(r, 0, "; ".join(
            f"{what}, got {corners_r}" if k == 0 else f"{what}: {corners_r}"
            for k, (bad, what) in enumerate(rules) if bad[r]
        ))
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


def write_submission(preds: PredictionSet, path, provenance: dict | None = None) -> None:
    """Write a submission: every example's hypotheses in canonical order.
    `preds` maps uids to HypothesisTables or lists of StaHypothesis."""
    results = {}
    for uid in sorted(preds):
        table = sort_canonical(as_table(preds[uid]))
        entries = [
            {
                "box": box,
                "noun_category_id": noun,
                "verb_category_id": verb,
                "time_to_contact": ttc,
                "score": score,
            }
            for box, noun, verb, ttc, score in zip(
                table.boxes.tolist(), table.noun.tolist(), table.verb.tolist(),
                table.ttc.tolist(), table.score.tolist(),
            )
        ]
        for r in np.flatnonzero(table.has_source).tolist():
            entries[r]["source_id"] = int(table.source[r])
        results[uid] = entries
    doc = {
        "version": SUBMISSION_VERSION,
        "challenge": SUBMISSION_CHALLENGE,
        "results": results,
    }
    if provenance is not None:
        doc["provenance"] = provenance
    _dump_json(doc, path)


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
