"""Raw head outputs -> ranked, NMS-filtered, export-ready hypotheses.

The inference chain: cap proposals by objectness, expand each retained
proposal into its top noun/verb pairs with a class-specific refined box
and a softplus TTC, rank everything by the product of objectness,
interaction quality, noun probability and verb probability, suppress
per-noun-class duplicates by the greedy rule of `boxes.greedy_owners`,
and truncate to the export cap.

Every stage works on the columns of one whole example: a ProposalBatch
goes in, expansion scores every pair and hands NMS a RankedHypotheses
that builds rows in rank order only as deep as NMS reads, NMS passes a
HypothesisTable on, and the export is its first rows. The arithmetic is
that of the scalar definitions, bit for bit: box centres are
0.5 * (x1 + x2), the size exp and the softplus go through `math` one
value at a time (numpy's vectorised exp and log1p differ from it in the
last bit for a few percent of inputs on some CPUs), and IoU keeps the
operation order of the oracle's scalar IoU (`oracle._iou_scalar`). The
softmax is the exception: it uses numpy's exp (`_softmax_rows`).

`postprocess_container` runs the chain over a tensor container one
example at a time, so only one example's tensors are held at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import box_columns, greedy_owners, pair_iou
from .errors import ValidationError
from .io_formats import TensorFile
from .types import (HypothesisTable, Taxonomy, array_field, box_rules, check_fields, contract, setting, shape_problems,
                    sort_canonical)

# Conventional clamp on log-size deltas so exp() cannot blow up boxes.
BOX_DELTA_CLAMP = math.log(1000.0 / 16.0)


@dataclass(frozen=True)
class InferenceConfig:
    max_proposals: int = setting(300, ">= 1")
    k_noun: int = setting(3, ">= 1")
    k_verb: int = setting(3, ">= 1")
    nms_iou: float = setting(0.5, "positive")
    max_exports: int = setting(100, ">= 1")

    __post_init__ = check_fields


@dataclass(frozen=True, eq=False)
class ProposalBatch:
    """One example's head outputs; row i of every tensor is proposal i.

    The fields are the tensors, with their dims: P proposals, N nouns, V
    verbs. Tensors keep the dtype they arrive in (float32 from a VSTF
    container) and are not copied. The expansion casts only the rows it
    selects to float64, which is exact. Shapes and values are checked on
    construction, and every problem is listed.
    """

    proposal_boxes: np.ndarray = array_field("P", 4)   # corners
    objectness: np.ndarray = array_field("P")          # in (0, 1]
    noun_logits: np.ndarray = array_field("P", "N")
    verb_logits: np.ndarray = array_field("P", "V")
    box_deltas: np.ndarray = array_field("P", "N", 4)  # dx, dy, dw, dh per noun class
    ttc_raw: np.ndarray = array_field("P")
    quality: np.ndarray = array_field("P")             # in (0, 1]

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name)) for name in REQUIRED_TENSORS}
        self.__dict__.update(arrays)
        bad_shapes = shape_problems(REQUIRED_TENSORS, arrays)
        problems = []
        for name, arr in arrays.items():
            if arr.dtype.kind not in "fiu":
                problems.append(f"{name} must hold real numbers, got dtype {arr.dtype}")
            if name in bad_shapes:
                problems.append(bad_shapes[name])
        if problems:
            raise ValidationError(problems)
        problems = self._value_problems()
        if problems:
            raise ValidationError(problems)

    def __len__(self) -> int:
        return self.objectness.shape[0]

    def _value_problems(self) -> list[str]:
        boxes = self.proposal_boxes
        checks = [(bad, rule, boxes) for bad, rule in box_rules(boxes)]
        for name in ("objectness", "quality"):
            values = getattr(self, name)
            checks.append((~((values > 0.0) & (values <= 1.0)), f"{name} must be in (0, 1]", values))
        checks.append((~np.isfinite(self.ttc_raw), "ttc_raw must be finite", self.ttc_raw))
        for name in ("noun_logits", "verb_logits", "box_deltas"):
            arr = getattr(self, name)
            bad = ~np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
            checks.append((bad, f"{name} contains non-finite values", None))
        problems = []
        for bad, what, values in checks:
            for i in np.flatnonzero(bad).tolist():
                got = "" if values is None else f", got {values[i].tolist()}"
                problems.append(f"proposal {i}: {what}{got}")
        return problems


# The tensors of one example, ProposalBatch's fields, and their dims.
REQUIRED_TENSORS = contract(ProposalBatch)


def softmax(logits) -> np.ndarray:
    """Stable softmax (max-subtracted) over a 1-D logit vector."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"softmax needs a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("softmax input contains non-finite values")
    return _softmax_rows(arr[None, :])[0]


def _softmax_rows(arr: np.ndarray) -> np.ndarray:
    """`softmax` of each row of a float64 matrix, bit-identical to it. Its
    numpy exp picks a SIMD kernel by CPU, so the last bits, and the bytes
    of `submission.json`, can differ with and without AVX-512 on x86."""
    shifted = np.exp(arr - arr.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def _map_floats(fn, values: np.ndarray) -> np.ndarray:
    """fn applied to each value as a Python float, in the shape of values."""
    return np.fromiter(map(fn, values.ravel().tolist()), np.float64, values.size).reshape(values.shape)


def ttc_from_raw(raw: float) -> float:
    """Softplus: ln(1 + e^raw), overflow-safe, always >= 0."""
    if not math.isfinite(raw):
        raise ValidationError(f"ttc_raw must be finite, got {raw}")
    # log1p(exp(-|raw|)) + max(raw, 0) never overflows.
    return max(raw, 0.0) + math.log1p(math.exp(-abs(raw)))


def _flat(boxes: np.ndarray) -> np.ndarray:
    """Mask of the boxes, (..., 4) corners, without positive width and height."""
    return (boxes[..., 2] - boxes[..., 0] <= 0.0) | (boxes[..., 3] - boxes[..., 1] <= 0.0)


def apply_box_deltas(boxes, deltas) -> np.ndarray:
    """Decode (dx, dy, dw, dh) against proposals: center shifts scale with
    the proposal size, sizes scale by exp of the clamped log deltas.

    boxes (..., 4) corners and deltas (..., 4) broadcast against each
    other; the result has their broadcast shape. Corners beyond the
    float64 range come out infinite or NaN, without a warning; the
    HypothesisTable rules reject them.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    x1, y1, x2, y2 = (boxes[..., i] for i in range(4))
    w, h = x2 - x1, y2 - y1
    flat = _flat(boxes)
    if flat.any():
        raise ValidationError(
            [f"proposal must have positive size, got {tuple(b)}" for b in boxes[flat].tolist()]
        )
    with np.errstate(over="ignore", invalid="ignore"):
        cx, cy = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        cx = cx + deltas[..., 0] * w
        cy = cy + deltas[..., 1] * h
        w = w * _map_floats(math.exp, np.minimum(deltas[..., 2], BOX_DELTA_CLAMP))
        h = h * _map_floats(math.exp, np.minimum(deltas[..., 3], BOX_DELTA_CLAMP))
        return np.stack([cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h], axis=-1)


def _top_ids(probs: np.ndarray, k: int) -> np.ndarray:
    """The ids of the k highest probabilities of each row, highest first,
    ties to the lower id: the first k columns of a stable argsort of
    -probs, found by k first-occurrence argmax passes without sorting
    the rows."""
    rest = probs.copy()
    rows = np.arange(len(rest))
    ids = np.empty((len(rest), k), dtype=np.intp)
    for j in range(k):
        ids[:, j] = rest.argmax(axis=1)
        rest[rows, ids[:, j]] = -np.inf
    return ids


class RankedHypotheses:
    """The expanded hypotheses of one example, built in rank order on demand.

    Every score is known from the start; a row's refined box and TTC are
    decoded, and the row checked and put in canonical order, only when
    `head` first reaches it. len() is the number of rows, one per pair
    with a positive score. head(n) is the first n rows in canonical
    order: the rows of the whole expansion sorted canonically, cut to n.

    head(n) builds the rows scoring at least the n-th highest score, ties
    included, in ascending (proposal, noun, verb) rank order, and sorts
    them stably. That is exact: the canonical key starts with -score, so
    the rows scoring at least s, in canonical order, are a prefix of the
    whole sorted table, and rows with equal scores keep the relative order
    they would have there. A deeper head adds only rows scoring below
    every row already built, so it extends the built prefix; no row is
    built twice, and each (proposal, noun) box and each proposal's TTC is
    decoded at most once.

    The built rows are checked with the HypothesisTable rules. Derived
    rows can break them: float64 proposals near the float64 range give
    refined corners that overflow. A row that is never built is never
    checked, and never exported either.
    """

    def __init__(self, batch: ProposalBatch, retained: np.ndarray, top_nouns: np.ndarray,
                 top_verbs: np.ndarray, score: np.ndarray):
        self._batch, self._retained = batch, retained
        self._top_nouns, self._top_verbs = top_nouns, top_verbs
        # Row r is the pair at np.unravel_index(r, score.shape): (proposal,
        # noun, verb) ranks, so ascending r is proposal, noun, verb order.
        self._score = score.reshape(-1)
        self._len = int(np.count_nonzero(self._score > 0.0))
        self._boxes = np.empty((top_nouns.size, 4))  # decoded, by (proposal, noun) pair
        self._boxes_done = np.zeros(top_nouns.size, dtype=bool)
        self._ttc = np.empty(len(retained))  # decoded, by proposal
        self._ttc_done = np.zeros(len(retained), dtype=bool)
        self._built = HypothesisTable.concat([])

    def __len__(self) -> int:
        return self._len

    @property
    def n_built(self) -> int:
        """The number of rows built so far."""
        return len(self._built)

    def head(self, n: int) -> HypothesisTable:
        """The first n rows in canonical order (all of them if n >= len)."""
        if n > len(self._built) and len(self._built) < self._len:
            self._build(n)
        return self._built.head(n)

    def _build(self, n: int) -> None:
        score, built = self._score, self._built
        if n < self._len:
            new = score >= np.partition(score, score.size - n)[score.size - n]
        else:
            new = score > 0.0
        if len(built):
            new &= score < built.score[-1]
        rows = np.flatnonzero(new)
        pair, verb_rank = np.divmod(rows, self._top_verbs.shape[1])
        proposal = pair // self._top_nouns.shape[1]
        table = HypothesisTable(
            boxes=_decode_once(self._boxes, self._boxes_done, pair, self._decode_boxes),
            noun=self._top_nouns.reshape(-1)[pair],
            verb=self._top_verbs[proposal, verb_rank],
            ttc=_decode_once(self._ttc, self._ttc_done, proposal, self._decode_ttc),
            score=score[rows],
        )
        table = sort_canonical(table)
        self._built = HypothesisTable.concat([built, table]) if len(built) else table

    def _decode_boxes(self, pairs: np.ndarray) -> np.ndarray:
        proposals = self._retained[pairs // self._top_nouns.shape[1]]
        return apply_box_deltas(
            self._batch.proposal_boxes[proposals].astype(np.float64),
            self._batch.box_deltas[proposals, self._top_nouns.reshape(-1)[pairs]].astype(np.float64),
        )

    def _decode_ttc(self, proposals: np.ndarray) -> np.ndarray:
        return _map_floats(ttc_from_raw, self._batch.ttc_raw[self._retained[proposals]].astype(np.float64))


def _decode_once(values: np.ndarray, done: np.ndarray, ids: np.ndarray, decode) -> np.ndarray:
    """values[ids], filling in first, with decode(new ids), the ids that
    `done` does not yet mark."""
    todo = np.zeros(len(done), dtype=bool)
    todo[ids] = True
    todo[done] = False
    new = np.flatnonzero(todo)
    values[new] = decode(new)
    done[new] = True
    return values[ids]


def expand_hypotheses(
    batch: ProposalBatch,
    taxonomy: Taxonomy,
    cfg: InferenceConfig = InferenceConfig(),
) -> RankedHypotheses:
    """Expand each retained proposal into its top noun x verb pairs.

    Proposals beyond cfg.max_proposals are dropped, lowest objectness
    first. Each hypothesis carries the noun-specific refined box,
    ttc = softplus(ttc_raw), and
    score = objectness * quality * p_noun * p_verb.
    Pairs whose score underflows to 0.0 are dropped: their logits are so
    peaked that a probability rounds to zero, they would rank below
    every other hypothesis, and a hypothesis needs a positive score.

    The scores are computed here for every pair; the rows are built in
    canonical order as they are read (RankedHypotheses). Every retained
    proposal must have positive width and height, however deep the rows
    are read.
    """
    n_nouns, n_verbs = batch.noun_logits.shape[1], batch.verb_logits.shape[1]
    if (n_nouns, n_verbs) != (taxonomy.n_nouns, taxonomy.n_verbs):
        raise ValidationError(
            f"logit lengths ({n_nouns}, {n_verbs}) do not "
            f"match taxonomy ({taxonomy.n_nouns}, {taxonomy.n_verbs})"
        )
    retained = np.argsort(-batch.objectness.astype(np.float64), kind="stable")[: cfg.max_proposals]
    flat = np.sort(retained[_flat(batch.proposal_boxes[retained])])
    if len(flat):
        raise ValidationError([
            f"proposal {i}: must have positive size, got {batch.proposal_boxes[i].tolist()}"
            for i in flat.tolist()
        ])
    k_noun = min(cfg.k_noun, n_nouns)
    k_verb = min(cfg.k_verb, n_verbs)

    p_noun = _softmax_rows(batch.noun_logits[retained].astype(np.float64))
    p_verb = _softmax_rows(batch.verb_logits[retained].astype(np.float64))
    top_nouns = _top_ids(p_noun, k_noun)
    top_verbs = _top_ids(p_verb, k_verb)
    prior = batch.objectness[retained].astype(np.float64) * batch.quality[retained].astype(np.float64)
    score = (
        prior[:, None, None]
        * np.take_along_axis(p_noun, top_nouns, axis=1)[:, :, None]
        * np.take_along_axis(p_verb, top_verbs, axis=1)[:, None, :]
    )
    return RankedHypotheses(batch, retained, top_nouns, top_verbs, score)


def class_aware_nms(ranked, nms_iou: float, max_exports: int) -> HypothesisTable:
    """The first max_exports survivors of greedy suppression run
    independently within each noun class.

    `ranked` is a HypothesisTable in canonical order, which is the rank,
    or the RankedHypotheses of `expand_hypotheses`; NMS reads either
    through len() and head(). The survivors are the seeds of
    `boxes.greedy_owners` with the noun as the class and IoU > nms_iou
    as the join; verb is not part of the suppression key. The output
    keeps the rank order and is always a subset of the rows. Pass
    len(ranked) as max_exports for every survivor.

    The rows are read in rank windows, max_exports rows first and then
    doubling; each window settles its new rows after those of the earlier
    windows, and NMS stops once max_exports rows survive. Each same-noun
    pair is compared at most once.
    """
    n = len(ranked)
    owner: list[int] = []  # by rank, for the rows settled so far
    hi = min(max(max_exports, 1), n)
    while True:
        table = ranked.head(hi)
        corners, area = box_columns(table.boxes)
        greedy_owners((table.noun,), lambda higher, lower: pair_iou(corners, area, higher, lower) > nms_iou, owner)
        if hi == n or owner.count(-1) >= max_exports:
            break
        hi = min(2 * hi, n)
    survivors = np.flatnonzero(np.array(owner, dtype=np.intp) < 0)
    return table.take(survivors[: max(max_exports, 0)])


def finalize_submission(table: HypothesisTable, max_exports: int) -> HypothesisTable:
    """The first max_exports rows of a canonical table."""
    return table.head(max_exports)


def proposals_from_tensors(tensors: dict[str, np.ndarray]) -> ProposalBatch:
    """Assemble one example's ProposalBatch from its named head-output tensors.

    Expects the tensors of `REQUIRED_TENSORS`. Missing names are reported
    exhaustively, then every dtype and shape problem, then every bad value.
    """
    missing = [name for name in REQUIRED_TENSORS if name not in tensors]
    if missing:
        raise ValidationError([f"missing tensor {name!r}" for name in missing])
    return ProposalBatch(**{name: tensors[name] for name in REQUIRED_TENSORS})


def postprocess_container(path, taxonomy: Taxonomy, cfg: InferenceConfig,
                          default_uid: str) -> dict[str, HypothesisTable]:
    """The export of every example of a tensor container, by uid.

    Tensor names may be plain (single example, keyed by `default_uid`) or
    prefixed "<uid>/<name>" for multi-example containers. The examples are
    run one at a time in uid order: each one's tensors are read
    (`TensorFile`), checked, made into a batch and run through the chain,
    and only its export is kept. The problems raised are those that
    reading the whole container first would find, of the first stage
    that finds any:

    1. the first structural or non-finite fault in file order, alone;
    2. every tensor of an example that more than one name gives;
    3. every problem of every example's batch, prefixed by its uid;
    4. every problem of every example's chain, prefixed by its uid.

    A non-finite tensor is met in uid order, so before one is raised, or
    a stage 2 problem, the container is read in file order and its first
    non-finite tensor raised instead.
    """
    with TensorFile(path) as container:
        names: dict[str, dict[str, list[str]]] = {}
        for name in container.index:
            uid, _, base = name.rpartition("/")
            names.setdefault(uid or default_uid, {}).setdefault(base, []).append(name)
        names = dict(sorted(names.items()))
        given_twice = [f"example {uid!r}: tensor {base!r} given as {' and '.join(map(repr, given))}"
                       for uid, named in names.items() for base, given in named.items() if len(given) > 1]
        if given_twice:
            container.check_finite()
            raise ValidationError(given_twice)

        exports: dict[str, HypothesisTable] = {}
        batch_problems: list[str] = []
        chain_problems: list[str] = []

        def run(uid: str, named: dict[str, list[str]]) -> None:
            """Read, check and run one example; its tensors are freed on return."""
            try:
                tensors = {base: container.read(given[0]) for base, given in named.items()}
            except ValidationError:  # a non-finite tensor; the first in file order is raised
                container.check_finite()
                raise
            try:
                batch = proposals_from_tensors(tensors)
            except ValidationError as e:
                batch_problems.extend(f"example {uid!r}: {p}" for p in e.problems)
                return
            if batch_problems:  # a batch problem hides every chain problem
                return
            try:
                exports[uid] = run_inference_chain(batch, taxonomy, cfg)
            except ValidationError as e:
                chain_problems.extend(f"example {uid!r}: {p}" for p in e.problems)

        for uid, named in names.items():
            run(uid, named)
    if batch_problems or chain_problems:
        raise ValidationError(batch_problems or chain_problems)
    return exports


def run_inference_chain(
    batch: ProposalBatch,
    taxonomy: Taxonomy,
    cfg: InferenceConfig = InferenceConfig(),
) -> HypothesisTable:
    """expand -> class-aware NMS -> finalize, the full per-example chain."""
    table = expand_hypotheses(batch, taxonomy, cfg)
    table = class_aware_nms(table, cfg.nms_iou, cfg.max_exports)
    return finalize_submission(table, cfg.max_exports)
