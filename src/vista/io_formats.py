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
from pathlib import Path

import numpy as np

from .boxes import Box2D
from .errors import FormatError, ValidationError
from .types import GroundTruthInstance, PredictionSet, StaHypothesis, Taxonomy, sort_canonical

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
    except (TypeError, ValueError) as e:
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
        except (KeyError, TypeError, ValueError) as e:
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

def load_predictions(path, taxonomy: Taxonomy | None = None) -> PredictionSet:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: submission document must be a JSON object")
    _warn_unknown(set(doc), _KNOWN_SUBMISSION_KEYS, str(path))
    results = doc.get("results")
    if not isinstance(results, dict):
        raise ValidationError(f"{path}: missing or non-object 'results'")

    problems: list[str] = []
    preds: PredictionSet = {}
    for uid, entries in results.items():
        if not isinstance(entries, list):
            problems.append(f"{path}: results[{uid!r}] must be a list")
            continue
        hyps = []
        for i, raw in enumerate(entries):
            where = f"{path}: results[{uid!r}][{i}]"
            if not isinstance(raw, dict):
                problems.append(f"{where}: must be an object")
                continue
            _warn_unknown(set(raw), _KNOWN_ENTRY_KEYS, where)
            box = _parse_box(raw.get("box"), where, problems)
            local: list[str] = []
            try:
                noun_id = int(raw["noun_category_id"])
                verb_id = int(raw["verb_category_id"])
                ttc = float(raw["time_to_contact"])
                score = float(raw["score"])
                source_id = raw.get("source_id")
                source_id = int(source_id) if source_id is not None else None
            except (KeyError, TypeError, ValueError) as e:
                local.append(f"{where}: bad or missing field ({e})")
            if box is not None and not local:
                if taxonomy is not None:
                    local += [f"{where}: {p}" for p in taxonomy.check_ids(noun_id, verb_id)]
                if not local:
                    try:
                        hyps.append(
                            StaHypothesis(
                                box=box, noun_id=noun_id, verb_id=verb_id,
                                ttc=ttc, score=score, source_id=source_id,
                            )
                        )
                    except ValidationError as e:
                        local += [f"{where}: {p}" for p in e.problems]
            problems += local
        preds[uid] = sort_canonical(hyps)
    if problems:
        raise ValidationError(problems)
    return preds


def write_submission(preds: PredictionSet, path, provenance: dict | None = None) -> None:
    results = {}
    for uid in sorted(preds):
        results[uid] = [
            {
                "box": list(h.box.corners()),
                "noun_category_id": h.noun_id,
                "verb_category_id": h.verb_id,
                "time_to_contact": h.ttc,
                "score": h.score,
                **({"source_id": h.source_id} if h.source_id is not None else {}),
            }
            for h in sort_canonical(preds[uid])
        ]
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
