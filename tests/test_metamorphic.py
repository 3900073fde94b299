"""Property and metamorphic tests of the commands, run in process through
`cli.main` with every warning an error.

The properties draw submissions and ground truths from an edge pool of
float64 values: 5e-324 (the smallest subnormal), 1e-308, 1.0, 1e308 and
the float maximum as scores and TTCs, TTC 0, corners at +-1e308 and
boxes of zero width. The metamorphic relations, after Chen et
al., "Metamorphic Testing: A Review of Challenges and Opportunities", ACM
Computing Surveys 51(1), 2018, compare the bytes a command writes for an
input and for a transformed copy of it:

- shuffling the uids and the entries leaves every output unchanged;
- scaling every score by 2^k leaves the report unchanged;
- an integer translation of every box leaves the report unchanged;
- one container per example gives the same `postprocess` entries as one
  container of all the examples.

Last, `validate` reads a submission as `evaluate` does: the same exit
code, the same problems and the same warnings.
"""

import io
import json
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vista.boxes import Box2D
from vista.cli import EXIT_OK, main
from vista.evaluation import EvalConfig
from vista.io_formats import write_tensor_file
from vista.oracle import brute_force_evaluate
from vista.types import GroundTruthInstance, StaHypothesis

from test_io_formats import STREAM_CORPUS

FLOAT_MAX = sys.float_info.max
EDGE_SCORES = [5e-324, 1e-308, 1.0, 1e308, FLOAT_MAX]
EDGE_TTCS = [0.0, 5e-324, 1e-308, 1.0, 1e308, FLOAT_MAX]
EDGE_CORNERS = [-1e308, 0.0, 1.0, 10.0, 1e308]
UIDS = ["a", "b"]


def run(argv) -> tuple[int, str, str]:
    """main(argv) with every warning an error: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(list(map(str, argv)))
    return code, out.getvalue(), err.getvalue()


@contextmanager
def inside(directory: Path):
    """Work in directory, so that the paths a command writes into its
    outputs are the same relative names in every directory."""
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def boxes_from(corners):
    """A box from two x and two y values, each pair sorted."""
    return corners.map(lambda c: [min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])])


edge_box = boxes_from(st.tuples(*[st.sampled_from(EDGE_CORNERS)] * 4))
edge_entry = st.fixed_dictionaries({
    "box": edge_box, "noun_category_id": st.integers(0, 1), "verb_category_id": st.integers(0, 1),
    "time_to_contact": st.sampled_from(EDGE_TTCS), "score": st.sampled_from(EDGE_SCORES)})
edge_results = st.dictionaries(st.sampled_from(UIDS), st.lists(edge_entry, max_size=4))
edge_annotations = st.lists(st.fixed_dictionaries({
    "example_uid": st.sampled_from(UIDS), "box": edge_box, "noun_category_id": st.integers(0, 1),
    "verb_category_id": st.integers(0, 1), "time_to_contact": st.sampled_from(EDGE_TTCS)}), max_size=4)
TAXONOMY = {"nouns": ["n0", "n1"], "verbs": ["v0", "v1"]}


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def oracle_report(results: dict, annotations: list, top_k: int) -> dict:
    """The report of `brute_force_evaluate` on the same values, as JSON."""
    preds = {uid: [StaHypothesis(Box2D(*e["box"]), e["noun_category_id"], e["verb_category_id"],
                                 e["time_to_contact"], e["score"]) for e in entries]
             for uid, entries in results.items()}
    gts = [GroundTruthInstance(a["example_uid"], Box2D(*a["box"]), a["noun_category_id"],
                               a["verb_category_id"], a["time_to_contact"]) for a in annotations]
    return json.loads(json.dumps(brute_force_evaluate(preds, gts, EvalConfig(top_k=top_k)).to_dict()))


class TestEdgeValues:
    @settings(max_examples=60, deadline=None)
    @given(edge_results, edge_results, edge_annotations, st.sampled_from([1, 5]))
    def test_exit_0_without_warnings_and_as_the_oracle(self, results_a, results_b, annotations, top_k):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            a = write_json(tmp / "a.json", {"results": results_a})
            b = write_json(tmp / "b.json", {"results": results_b})
            gt = write_json(tmp / "gt.json", {"taxonomy": TAXONOMY, "annotations": annotations})
            ensemble = tmp / "ens" / "ensemble.json"
            for argv in (["validate", a], ["validate", gt],
                         ["evaluate", gt, a, "--top-k", top_k, "--out", tmp / "eval"],
                         ["ensemble", a, b, "--out", tmp / "ens"],
                         ["validate", ensemble],
                         ["evaluate", gt, ensemble, "--out", tmp / "eval_ens"]):
                code, _, err = run(argv)
                assert (code, err) == (EXIT_OK, ""), argv
            report = json.loads((tmp / "eval" / "report.json").read_text())
        want = oracle_report(results_a, annotations, top_k)
        assert report["counts"] == want["counts"]
        assert report["per_noun_ap"].keys() == want["per_noun_ap"].keys()
        for cls, aps in want["per_noun_ap"].items():
            assert report["per_noun_ap"][cls] == pytest.approx(aps, abs=1e-12)
        for key in ("map_overall", "map_noun", "map_noun_verb", "map_noun_ttc"):
            assert report[key] == pytest.approx(want[key], abs=1e-9)


def outputs(tmp: Path, name: str, results: dict, annotations: list, other: dict | None = None) -> dict:
    """The bytes `evaluate` and, given a second submission, `ensemble`
    write for these inputs, run inside tmp/name on the same file names."""
    work = tmp / name
    work.mkdir()
    with inside(work):
        write_json(Path("sub.json"), {"results": results})
        write_json(Path("gt.json"), {"taxonomy": TAXONOMY, "annotations": annotations})
        argvs = [["evaluate", "gt.json", "sub.json", "--out", "eval"]]
        if other is not None:
            write_json(Path("other.json"), {"results": other})
            argvs.append(["ensemble", "sub.json", "other.json", "--out", "ens"])
        for argv in argvs:
            code, _, err = run(argv)
            assert (code, err) == (EXIT_OK, ""), argv
    written = ["eval/report.json", "eval/report.txt"] + (["ens/ensemble.json"] if other is not None else [])
    return {path: (work / path).read_bytes() for path in written}


# Integer corners and translations keep every IoU exact; dyadic scores
# scale by 2^k exactly. Many full ties come from these small pools.
small_box = boxes_from(st.tuples(*[st.integers(0, 12).map(float)] * 4))
scaled_scores = st.sampled_from([1e-300, 0.1, 0.25, 0.3, 0.5, 1.0, 7.0, 1e300])
plain_entry = st.fixed_dictionaries({
    "box": small_box, "noun_category_id": st.integers(0, 1), "verb_category_id": st.integers(0, 1),
    "time_to_contact": st.sampled_from([0.0, 0.5, 0.75, 1.0]), "score": scaled_scores})
plain_results = st.dictionaries(st.sampled_from(["a", "b", "c"]), st.lists(plain_entry, max_size=6))
plain_annotations = st.lists(st.fixed_dictionaries({
    "example_uid": st.sampled_from(["a", "b", "c"]), "box": small_box, "noun_category_id": st.integers(0, 1),
    "verb_category_id": st.integers(0, 1), "time_to_contact": st.sampled_from([0.5, 1.0])}), max_size=6)


# Each drawn entry once per source id drawn for it (None: no source_id),
# so that rows tie on the whole canonical key yet differ in their source.
source_ids = st.lists(st.sampled_from([None, 0, 1, 2]), min_size=1, max_size=3)
sourced_results = st.dictionaries(st.sampled_from(["a", "b", "c"]), st.lists(
    st.tuples(st.one_of(plain_entry, edge_entry), source_ids), max_size=4,
).map(lambda drawn: [entry if source is None else {**entry, "source_id": source}
                     for entry, sources in drawn for source in sources]))


class TestMetamorphicRelations:
    @settings(max_examples=40, deadline=None)
    @given(sourced_results, sourced_results, st.one_of(plain_annotations, edge_annotations),
           st.randoms(use_true_random=False))
    def test_shuffled_uids_and_entries(self, results, other, annotations, rng):
        def shuffled(results: dict) -> dict:
            uids = list(results)
            rng.shuffle(uids)
            return {uid: rng.sample(results[uid], len(results[uid])) for uid in uids}

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            assert outputs(tmp, "given", results, annotations, other) == outputs(
                tmp, "shuffled", shuffled(results), rng.sample(annotations, len(annotations)), shuffled(other))

    @settings(max_examples=40, deadline=None)
    @given(plain_results, plain_annotations, st.integers(-16, 16))
    def test_scores_scaled_by_a_power_of_two(self, results, annotations, k):
        scaled = {uid: [{**e, "score": e["score"] * 2.0 ** k} for e in entries] for uid, entries in results.items()}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            assert outputs(tmp, "given", results, annotations) == outputs(tmp, "scaled", scaled, annotations)

    @settings(max_examples=40, deadline=None)
    @given(plain_results, plain_annotations, st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_boxes_translated_by_integers(self, results, annotations, dx, dy):
        def moved(box):
            return [box[0] + dx, box[1] + dy, box[2] + dx, box[3] + dy]

        results_moved = {uid: [{**e, "box": moved(e["box"])} for e in entries] for uid, entries in results.items()}
        annotations_moved = [{**a, "box": moved(a["box"])} for a in annotations]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            assert outputs(tmp, "given", results, annotations) == outputs(
                tmp, "moved", results_moved, annotations_moved)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.sampled_from(["ex_a", "ex_b", "ex_c", "ex_d"]), min_size=1, max_size=4, unique=True),
           st.integers(0, 2**32 - 1))
    def test_one_container_per_example(self, uids, seed):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_json(tmp / "taxonomy.json", {"nouns": ["n0", "n1", "n2"], "verbs": ["v0", "v1", "v2"]})
            heads = {uid: head_tensors(np.random.default_rng([seed, k])) for k, uid in enumerate(uids)}
            write_tensor_file({f"{uid}/{name}": tensor for uid, tensors in heads.items()
                               for name, tensor in tensors.items()}, tmp / "all.vstf")
            code, _, err = run(["postprocess", tmp / "all.vstf", tmp / "taxonomy.json", "--out", tmp / "all"])
            assert (code, err) == (EXIT_OK, "")
            together = json.loads((tmp / "all" / "submission.json").read_text())["results"]
            alone = {}
            for uid, tensors in heads.items():
                write_tensor_file(tensors, tmp / f"{uid}.vstf")
                code, _, err = run(["postprocess", tmp / f"{uid}.vstf", tmp / "taxonomy.json", "--out", tmp / uid])
                assert (code, err) == (EXIT_OK, "")
                alone.update(json.loads((tmp / uid / "submission.json").read_text())["results"])
        assert list(together) == sorted(uids)
        assert {uid: json.dumps(together[uid]) for uid in uids} == {uid: json.dumps(alone[uid]) for uid in uids}


def head_tensors(rng, n_proposals: int = 24, n_nouns: int = 3, n_verbs: int = 3) -> dict[str, np.ndarray]:
    """The head outputs of one example, random."""
    corner = rng.uniform(0, 400, (n_proposals, 2))
    return {
        "proposal_boxes": np.concatenate([corner, corner + rng.uniform(10, 150, (n_proposals, 2))], axis=1),
        "objectness": rng.uniform(0.05, 1.0, n_proposals),
        "noun_logits": rng.normal(size=(n_proposals, n_nouns)),
        "verb_logits": rng.normal(size=(n_proposals, n_verbs)),
        "box_deltas": rng.normal(0, 0.05, (n_proposals, n_nouns, 4)),
        "ttc_raw": rng.normal(size=n_proposals),
        "quality": rng.uniform(0.05, 1.0, n_proposals),
    }


def verdict(argv) -> tuple[int, str, list[str]]:
    """A command's exit code, stderr and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(map(str, argv)))
    return code, err.getvalue(), [str(w.message) for w in caught]


def parse_limit() -> int:
    """The smallest depth of nested lists that `json.loads` gives up on,
    called from here. It depends on the interpreter and on the depth of
    the stack it is called from, so the depths tested are taken around it."""
    lo, hi = 1, 1 << 16
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            json.loads("[" * mid + "]" * mid)
        except RecursionError:
            hi = mid
        else:
            lo = mid + 1
    return lo


def nested(depth: int) -> list[bytes]:
    """Submissions nested `depth` deep: in `provenance`, which no command
    reads, so valid, and in an entry list, so invalid."""
    inner = "[" * (depth - 1) + "]" * (depth - 1)
    return [f'{{"provenance": {inner}, "results": {{}}}}'.encode(),
            f'{{"results": {{"a": {"[" * (depth - 2) + "]" * (depth - 2)}}}}}'.encode()]


# evaluate checks the ids against the ground truth's taxonomy, which
# validate cannot: an id beyond int64 is out of its range there.
BEYOND_INT64 = str(2**70).encode()


class TestValidateAsEvaluate:
    @pytest.mark.parametrize("kind", list(STREAM_CORPUS) + ["nested"])
    def test_same_exit_code_problems_and_warnings(self, tmp_path, kind):
        gt = write_json(tmp_path / "gt.json", {
            "taxonomy": {"nouns": [f"n{i}" for i in range(1000)], "verbs": [f"v{i}" for i in range(1000)]},
            "annotations": []})
        if kind == "nested":
            limit = parse_limit()
            depths = sorted(set(range(980, 1501, 20)) | set(range(limit - 16, limit + 17)))
            files = [data for depth in depths for data in nested(depth)]
        else:
            files = [data for data in STREAM_CORPUS[kind][1] if BEYOND_INT64 not in data]
        path = tmp_path / "sub.json"
        for data in files:
            path.write_bytes(data)
            validated = verdict(["validate", path])
            evaluated = verdict(["evaluate", gt, path, "--out", tmp_path / "out"])
            if validated[1] == f"error: {path}: unrecognized document type\n":
                # Not a submission at all: evaluate, which expects one, names what it lacks.
                assert (validated[0], validated[2]) == (evaluated[0], evaluated[2]), data[:200]
                continue
            assert validated == evaluated, data[:200]
