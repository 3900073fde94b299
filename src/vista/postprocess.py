"""Raw head outputs -> ranked, NMS-filtered, export-ready hypotheses.

The inference chain: cap proposals by objectness, expand each retained
proposal into its top noun/verb pairs with a class-specific refined box
and a softplus TTC, rank everything by the product of objectness,
interaction quality, noun probability and verb probability, suppress
per-noun-class duplicates by the greedy rule of `boxes.greedy_owners`,
and truncate to the export cap.

Each example is checked, expanded and scored on its own: a ProposalBatch
goes in, and expansion scores every pair and keeps only what the rows
need in a RankedHypotheses. Rows are built and suppressed over blocks of
whole examples at once (`RankedHypotheses.concat`): the block builds
rows in rank order only as deep as NMS reads each example, NMS
(`nms_block`) settles the new rows of every example in one pass, and
each export is its example's first survivors. One example is a block of
one. The arithmetic is that of the scalar definitions, bit for bit, and
elementwise, so a block gives each example the bits it gets alone: box
centres are 0.5 * (x1 + x2), the size exp and the softplus go through
`math` one value at a time, IoU keeps the operation order of the
oracle's scalar IoU (`oracle._iou_scalar`), and the softmax uses numpy's
exp (`_softmax_rows`). Those bits are not portable: they depend on
numpy's AVX-512 dispatch and on glibc's FMA dispatch of `exp` and
`log1p`, each of which changes the last bit of some values.

`postprocess_container` reads a tensor container one example at a time,
so only one example's tensors are held at once, next to what the rows
of one block need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import boxes
from .boxes import box_columns, greedy_owners, pair_iou
from .errors import ValidationError
from .io_formats import TensorFile
from .types import (HypothesisTable, Taxonomy, array_field, box_rules, check_fields, contract, rank_within, setting,
                    shape_problems)
from .types import sort_canonical  # noqa: F401  (unused here; bench/spans.py times it under this name)

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
    arr = np.array(logits, dtype=np.float64)  # a copy: the softmax overwrites it
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"softmax needs a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("softmax input contains non-finite values")
    return _softmax_rows(arr[None, :])[0]


def _softmax_rows(arr: np.ndarray) -> np.ndarray:
    """`softmax` of each row of a float64 matrix, bit-identical to it,
    computed in place: the matrix is returned, overwritten. Its numpy exp
    picks a SIMD kernel by CPU, so the last bits, and the bytes of
    `submission.json`, can differ with and without AVX-512 on x86."""
    arr -= arr.max(axis=1, keepdims=True)
    np.exp(arr, out=arr)
    arr /= arr.sum(axis=1, keepdims=True)
    return arr


def _map_floats(fn, values: np.ndarray) -> np.ndarray:
    """fn applied to each value as a Python float, in the shape of values."""
    return np.fromiter(map(fn, values.ravel().tolist()), np.float64, values.size).reshape(values.shape)


def ttc_from_raw(raw: float) -> float:
    """Softplus: ln(1 + e^raw), overflow-safe, always >= 0."""
    if not math.isfinite(raw):
        raise ValidationError(f"ttc_raw must be finite, got {raw}")
    # log1p(exp(-|raw|)) + max(raw, 0) never overflows.
    return max(raw, 0.0) + math.log1p(math.exp(-abs(raw)))


def ttc_column(raw: np.ndarray) -> np.ndarray:
    """`ttc_from_raw` of each value of a float64 array of finite values,
    bit for bit: max, abs and negation are exact, the sum is IEEE, and exp
    and log1p go through `math` one value at a time, so their last bits
    are glibc's, which depend on its FMA dispatch."""
    return np.maximum(raw, 0.0) + _map_floats(math.log1p, _map_floats(math.exp, -np.abs(raw)))


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


def _top_ids(probs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the k highest probabilities of each row, highest first,
    ties to the lower id, and those probabilities: the first k columns of
    a stable argsort of -probs, found by k first-occurrence argmax passes
    without sorting the rows. Each pass overwrites the values it takes
    with -inf, so probs is left without them."""
    rows = np.arange(len(probs))
    ids = np.empty((len(probs), k), dtype=np.intp)
    top = np.empty((len(probs), k), dtype=probs.dtype)
    for j in range(k):
        ids[:, j] = probs.argmax(axis=1)
        top[:, j] = probs[rows, ids[:, j]]
        probs[rows, ids[:, j]] = -np.inf
    return ids, top


class RankedHypotheses:
    """The expanded hypotheses of a block of whole examples, built in rank
    order on demand, each example's rows as they are when it is alone.

    It keeps only what the rows need, by retained proposal: its corners,
    the deltas of its top nouns, its raw TTC, its top noun and verb ids
    and the score of each of its (noun, verb) pairs; example e has the
    next sizes[e] proposals. Every score is known from the start; a row's
    refined box and TTC are decoded, and the row checked and put in
    canonical order, only when `build` first reaches it. len() is the
    number of rows, one per pair with a positive score, and `lengths`
    gives each example's.

    build(depth) builds, for each example e, its rows scoring at least
    its depth[e]-th highest score, ties included, in ascending (proposal,
    noun, verb) rank order, and ranks them one example after another
    (`rank_within`). That is exact: the canonical key starts with -score,
    so the rows scoring at least s, in canonical order, are a prefix of
    the example's whole sorted table, and rows with equal scores keep the
    relative order they would have there. A deeper build adds only rows
    scoring below every row of the example already built, so it extends
    the built prefix; no row is built twice, and each (proposal, noun) box
    and each proposal's TTC is decoded at most once. One build decodes,
    checks and sorts the new rows of every example at once. `table` holds
    every row built, build after build, with the `example` of each and
    its `position` in its example's canonical order.

    The built rows are checked with the HypothesisTable rules. Derived
    rows can break them: float64 proposals near the float64 range give
    refined corners that overflow. An example whose new rows break a rule
    is marked in `failed`, `problems` holds what a table of those rows
    alone raises, and it builds nothing more. A row that is never built is
    never checked, and never exported either.
    """

    def __init__(self, proposal_boxes: np.ndarray, deltas: np.ndarray, ttc_raw: np.ndarray, nouns: np.ndarray,
                 verbs: np.ndarray, score: np.ndarray, sizes=None):
        # By retained proposal: (P, 4) corners, (P, k_noun, 4) deltas and
        # (P,) raw TTCs, in the dtype they arrive in (the decode casts
        # them to float64, which is exact), (P, k_noun) noun and (P,
        # k_verb) verb ids, and (P, k_noun, k_verb) float64 scores.
        self._proposal_boxes, self._deltas, self._ttc_raw = proposal_boxes, deltas, ttc_raw
        self._nouns, self._verbs = nouns, verbs
        # Row r is the pair at np.unravel_index(r, score.shape): (proposal,
        # noun, verb) ranks, so ascending r is example, proposal, noun, verb order.
        self._score = score.reshape(-1)
        self.sizes = np.array([len(ttc_raw)] if sizes is None else sizes, dtype=np.intp)
        n_examples = len(self.sizes)
        self._proposal_example = np.repeat(np.arange(n_examples), self.sizes)
        pairs = nouns.shape[1] * verbs.shape[1]  # rows per proposal
        self._first = np.concatenate([[0], np.cumsum(self.sizes)]) * pairs  # each example's first row
        positive = np.flatnonzero(self._score > 0.0)
        self.lengths = np.bincount(self._proposal_example[positive // pairs], minlength=n_examples)
        self._decoded = None  # the decoded boxes and TTCs, made by the first build
        self._n_built = np.zeros(n_examples, dtype=np.intp)
        self._lowest = np.full(n_examples, np.inf)  # the lowest score built, by example
        self.failed = np.zeros(n_examples, dtype=bool)
        self.problems: dict[int, list[str]] = {}
        self.table = _NO_ROWS
        self.example = np.empty(0, dtype=np.intp)
        self.position = np.empty(0, dtype=np.intp)

    @classmethod
    def concat(cls, examples: list[RankedHypotheses]) -> RankedHypotheses:
        """The examples of rankers with nothing built yet, one after
        another, as one block."""
        inputs = [(r._proposal_boxes, r._deltas, r._ttc_raw, r._nouns, r._verbs, r._score) for r in examples]
        return cls(*(np.concatenate(column) for column in zip(*inputs)),
                   sizes=np.concatenate([r.sizes for r in examples]))

    @classmethod
    def of_table(cls, table: HypothesisTable) -> RankedHypotheses:
        """One example whose rows, a table in canonical order, are all built."""
        ranked = cls(np.empty((0, 4)), np.empty((0, 1, 4)), np.empty(0), np.empty((0, 1), dtype=np.intp),
                     np.empty((0, 1), dtype=np.intp), np.empty(0))
        n = len(table)
        ranked.lengths, ranked._n_built = np.array([n]), np.array([n])
        ranked.table, ranked.example, ranked.position = table, np.zeros(n, dtype=np.intp), np.arange(n)
        return ranked

    def __len__(self) -> int:
        return int(self.lengths.sum())

    def head(self, n: int) -> HypothesisTable:
        """The first n rows in canonical order (all of them if n >= len) of
        a ranker of one example, which raises its problems if it has any."""
        if len(self.sizes) != 1:
            raise ValueError(f"head reads one example, not {len(self.sizes)}")
        self.build(np.array([min(n, len(self))]))
        if self.failed[0]:
            raise ValidationError(self.problems[0])
        return self.table.head(n)

    def build(self, depth: np.ndarray) -> None:
        """Build each example e's rows as deep as depth[e] (see the class)."""
        wanted = (depth > self._n_built) & (self._n_built < self.lengths) & ~self.failed
        if not wanted.any():
            return
        floor = np.full(len(wanted), np.inf)  # the lowest score each example builds now
        for e in np.flatnonzero(wanted).tolist():
            n, score = int(depth[e]), self._score[self._first[e]:self._first[e + 1]]
            floor[e] = np.partition(score, score.size - n)[score.size - n] if n < self.lengths[e] else 0.0
        rows_per_example, score = np.diff(self._first), self._score
        new = (score >= np.repeat(floor, rows_per_example)) & (score > 0.0)
        new &= score < np.repeat(self._lowest, rows_per_example)
        rows = np.flatnonzero(new)
        pair, verb_rank = np.divmod(rows, self._verbs.shape[1])
        proposal = pair // self._nouns.shape[1]
        if self._decoded is None:  # the boxes by (proposal, noun) pair and the TTCs by proposal
            self._decoded = (np.empty((self._nouns.size, 4)), np.zeros(self._nouns.size, dtype=bool),
                             np.empty(len(self._ttc_raw)), np.zeros(len(self._ttc_raw), dtype=bool))
        boxes, boxes_done, ttc, ttc_done = self._decoded
        columns = {
            "boxes": _decode_once(boxes, boxes_done, pair, self._decode_boxes),
            "noun": self._nouns.reshape(-1)[pair],
            "verb": self._verbs[proposal, verb_rank],
            "ttc": _decode_once(ttc, ttc_done, proposal, self._decode_ttc),
            "score": score[rows],
        }
        example = self._proposal_example[proposal]
        try:
            table = HypothesisTable(**columns)
        except ValidationError:
            table, example = self._drop_failing(columns, example)
        # One example after another, each in its own canonical order.
        order = rank_within(table, example)
        example = example[order]
        counts = np.bincount(example, minlength=len(wanted))
        position = np.arange(len(example)) + np.repeat(self._n_built - (np.cumsum(counts) - counts), counts)
        self.table = HypothesisTable.concat([self.table, table.take(order)])
        self.example = np.concatenate([self.example, example])
        self.position = np.concatenate([self.position, position])
        self._n_built += counts
        self._lowest = np.where(wanted, floor, self._lowest)

    def _drop_failing(self, columns: dict[str, np.ndarray], example: np.ndarray):
        """Mark failed each example whose new rows break a HypothesisTable
        rule, with the problems a table of them alone raises, and return
        the table of the other examples' new rows, and their examples."""
        for e in np.unique(example).tolist():
            try:
                HypothesisTable(**{name: column[example == e] for name, column in columns.items()})
            except ValidationError as err:
                self.failed[e], self.problems[e] = True, err.problems
        kept = ~self.failed[example]
        return HypothesisTable(**{name: column[kept] for name, column in columns.items()}), example[kept]

    def _decode_boxes(self, pairs: np.ndarray) -> np.ndarray:
        return apply_box_deltas(self._proposal_boxes[pairs // self._nouns.shape[1]],
                                self._deltas.reshape(-1, 4)[pairs])

    def _decode_ttc(self, proposals: np.ndarray) -> np.ndarray:
        return ttc_column(self._ttc_raw[proposals].astype(np.float64))


_NO_ROWS = HypothesisTable.concat([])


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
    canonical order as they are read (RankedHypotheses), which keeps only
    what they need of the batch. Every retained proposal must have
    positive width and height, however deep the rows are read.
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

    top_nouns, p_noun = _top_ids(_softmax_rows(batch.noun_logits[retained].astype(np.float64)), k_noun)
    top_verbs, p_verb = _top_ids(_softmax_rows(batch.verb_logits[retained].astype(np.float64)), k_verb)
    prior = batch.objectness[retained].astype(np.float64) * batch.quality[retained].astype(np.float64)
    score = prior[:, None, None] * p_noun[:, :, None] * p_verb[:, None, :]
    return RankedHypotheses(batch.proposal_boxes[retained], batch.box_deltas[retained[:, None], top_nouns],
                            batch.ttc_raw[retained], top_nouns, top_verbs, score)


def nms_block(ranked: RankedHypotheses, nms_iou: float, max_exports: int) -> list[HypothesisTable | None]:
    """Each example's first max_exports survivors of greedy suppression
    run independently within each of its noun classes, in rank order, or
    None for an example whose built rows break a rule (`ranked.problems`).

    The survivors are the seeds of `boxes.greedy_owners` with the noun
    and the example as the class and IoU > nms_iou as the join; verb is
    not part of the suppression key.

    Each example's rows are read in rank windows, max_exports rows first
    and then doubling, and an example is read no further once max_exports
    of its rows survive. A round builds the next window of every example
    still read (`RankedHypotheses.build`) and settles all of them in one
    greedy pass, after the rows of the earlier rounds: an example's
    windows come in its rank order, so each class stays in rank order.
    Each same-noun pair of an example is compared at most once.
    """
    n = ranked.lengths
    # Python ints within int64 that the counts reach only when they would
    # reach max_exports, however large it is.
    cap = min(max(max_exports, 0), len(ranked) + 1)
    hi = np.minimum(min(max(max_exports, 1), len(ranked)), n)  # each example's window end
    settled = np.zeros_like(n)
    reading = np.ones(len(n), dtype=bool)
    rows = np.empty(0, dtype=np.intp)  # into ranked.table: the rows settled, in settling order
    owner: list[int] = []  # of each of them
    while reading.any():
        ranked.build(np.where(reading, hi, 0))
        reading &= ~ranked.failed
        example, position = ranked.example, ranked.position
        window = reading[example] & (position >= settled[example]) & (position < hi[example])
        rows = np.concatenate([rows, np.flatnonzero(window)])
        corners, area = box_columns(ranked.table.boxes[rows])
        greedy_owners((ranked.table.noun[rows], example[rows]),
                      lambda higher, lower: pair_iou(corners, area, higher, lower) > nms_iou, owner)
        settled = np.where(reading, hi, settled)
        seeds = np.bincount(example[rows[np.array(owner, dtype=np.intp) < 0]], minlength=len(n))
        reading &= (hi < n) & (seeds < cap)
        hi = np.where(reading, np.minimum(2 * hi, n), hi)
    survivors = rows[np.array(owner, dtype=np.intp) < 0]
    example = ranked.example[survivors]
    kept = ranked.table.take(survivors[np.argsort(example, kind="stable")])  # one example after another
    exports, start = [], 0
    for failed, count in zip(ranked.failed.tolist(), np.bincount(example, minlength=len(n)).tolist()):
        exports.append(None if failed else kept.take(slice(start, start + min(count, cap))))
        start += count
    return exports


def class_aware_nms(ranked, nms_iou: float, max_exports: int) -> HypothesisTable:
    """The first max_exports survivors of greedy suppression run
    independently within each noun class of one example: `nms_block` of
    a block of one.

    `ranked` is a HypothesisTable in canonical order, which is the rank,
    or the RankedHypotheses of `expand_hypotheses`, whose problems it
    raises if the rows it builds break a rule. The output keeps the rank
    order and is always a subset of the rows. Pass len(ranked) as
    max_exports for every survivor.
    """
    if isinstance(ranked, HypothesisTable):
        ranked = RankedHypotheses.of_table(ranked)
    (export,) = nms_block(ranked, nms_iou, max_exports)
    if export is None:
        raise ValidationError(ranked.problems[0])
    return export


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


def postprocess_container(path, taxonomy: Taxonomy, cfg: InferenceConfig) -> dict[str, HypothesisTable]:
    """The export of every example of a tensor container, by uid.

    Tensor names may be plain (single example, keyed by the file's stem:
    "heads" for "heads.vstf") or prefixed "<uid>/<name>" for multi-example
    containers. The examples are read one at a time in uid order: each
    one's tensors are read (`TensorFile`), checked, made into a batch and
    expanded, and only its RankedHypotheses is kept. The examples are
    suppressed in blocks of whole examples whose retained proposals add up
    to at most `boxes.EXAMPLE_BLOCK` (an example of more comes alone), one
    `nms_block` each, and only each example's export is kept. Each example
    gets the export it gets alone (`class_aware_nms`). The problems raised
    are those that reading the whole container first would find, of the
    first stage that finds any:

    1. the first structural or non-finite fault in file order, alone;
    2. every tensor of an example that more than one name gives;
    3. every problem of every example's batch, prefixed by its uid;
    4. every problem of every example's chain, prefixed by its uid, in
       uid order.

    A non-finite tensor is met in uid order, so before one is raised, or
    a stage 2 problem, the container is read in file order and its first
    non-finite tensor raised instead.
    """
    with TensorFile(path) as container:
        names: dict[str, dict[str, list[str]]] = {}
        for name in container.index:
            uid, _, base = name.rpartition("/")
            names.setdefault(uid or Path(path).stem, {}).setdefault(base, []).append(name)
        names = dict(sorted(names.items()))
        given_twice = [f"example {uid!r}: tensor {base!r} given as {' and '.join(map(repr, given))}"
                       for uid, named in names.items() for base, given in named.items() if len(given) > 1]
        if given_twice:
            container.check_finite()
            raise ValidationError(given_twice)

        exports: dict[str, HypothesisTable] = {}
        batch_problems: list[str] = []
        chain_problems: dict[str, list[str]] = {}
        block: list[tuple[str, RankedHypotheses]] = []  # expanded, not yet suppressed

        def expand(uid: str, named: dict[str, list[str]]) -> RankedHypotheses | None:
            """Read, check and expand one example; its tensors are freed on return."""
            try:
                tensors = {base: container.read(given[0]) for base, given in named.items()}
            except ValidationError:  # a non-finite tensor; the first in file order is raised
                container.check_finite()
                raise
            try:
                batch = proposals_from_tensors(tensors)
            except ValidationError as e:
                batch_problems.extend(f"example {uid!r}: {p}" for p in e.problems)
                return None
            if batch_problems:  # a batch problem hides every chain problem
                return None
            try:
                return expand_hypotheses(batch, taxonomy, cfg)
            except ValidationError as e:
                chain_problems[uid] = e.problems
                return None

        def suppress() -> None:
            """Suppress the block and keep each example's export."""
            uids, ranked = [uid for uid, _ in block], RankedHypotheses.concat([r for _, r in block])
            block.clear()  # each example's own copy of its rows' inputs is freed
            for e, (uid, export) in enumerate(zip(uids, nms_block(ranked, cfg.nms_iou, cfg.max_exports))):
                if export is None:
                    chain_problems[uid] = ranked.problems[e]
                else:
                    exports[uid] = finalize_submission(export, cfg.max_exports)

        held = 0  # retained proposals in the block
        for uid, named in names.items():
            ranked = expand(uid, named)
            if ranked is None:
                continue
            if block and held + ranked.sizes[0] > boxes.EXAMPLE_BLOCK:
                suppress()
                held = 0
            block.append((uid, ranked))
            held += int(ranked.sizes[0])
        if block and not batch_problems:
            suppress()
    if batch_problems or chain_problems:
        raise ValidationError(batch_problems or [f"example {uid!r}: {p}" for uid, problems in
                                                 sorted(chain_problems.items()) for p in problems])
    return exports

