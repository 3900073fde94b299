import io
import json
import os
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vista import io_formats
from vista.errors import ValidationError
from vista.cli import EXIT_OK, main
from vista.evaluation import EvalConfig, evaluate
from vista.io_formats import (
    _load_json,
    ground_truth_from_dict,
    load_ground_truth,
    load_predictions,
    load_taxonomy,
    predictions_from_dict,
    read_tensor_file,
    write_ground_truth,
    write_submission,
    write_taxonomy,
)
from vista.rng import CounterRng
from vista.synth import NoiseConfig, generate_scenario, perturb_to_predictions
from vista.types import (GroundTruthTable, HypothesisTable, Taxonomy, as_gt_table, as_table,
                         sort_canonical)

from test_evaluation import crowded_instance
from test_postprocess import columns


class TestTaxonomy:
    def test_round_trip(self, tmp_path):
        taxonomy = Taxonomy(("cup", "knife"), ("take", "cut", "place"))
        path = tmp_path / "taxonomy.json"
        write_taxonomy(taxonomy, path)
        assert load_taxonomy(path) == taxonomy

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nouns": ["a"]}')
        with pytest.raises(ValidationError):
            load_taxonomy(path)


class TestGroundTruth:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(
            json.dumps(
                {
                    "taxonomy": {"nouns": ["cup"], "verbs": ["take"]},
                    "annotations": [
                        {
                            "example_uid": "e1",
                            "box": [0, 0, 10, 10],
                            "noun_category_id": 0,
                            "verb_category_id": 0,
                            "time_to_contact": 1.0,
                        }
                    ],
                }
            )
        )
        taxonomy, gts = load_ground_truth(path)
        assert len(gts) == 1
        assert gts.uid[0] == "e1"

    def test_out_of_range_category_names_uid(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(
            json.dumps(
                {
                    "taxonomy": {"nouns": ["cup"], "verbs": ["take"]},
                    "annotations": [
                        {
                            "example_uid": "bad_uid",
                            "box": [0, 0, 10, 10],
                            "noun_category_id": 5,
                            "verb_category_id": 0,
                            "time_to_contact": 1.0,
                        }
                    ],
                }
            )
        )
        with pytest.raises(ValidationError) as err:
            load_ground_truth(path)
        assert "bad_uid" in str(err.value)

    def test_inverted_box_rejected(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(
            json.dumps(
                {
                    "taxonomy": {"nouns": ["cup"], "verbs": ["take"]},
                    "annotations": [
                        {
                            "example_uid": "e1",
                            "box": [10, 0, 0, 10],
                            "noun_category_id": 0,
                            "verb_category_id": 0,
                            "time_to_contact": 1.0,
                        }
                    ],
                }
            )
        )
        with pytest.raises(ValidationError):
            load_ground_truth(path)

    def test_errors_reported_exhaustively(self, tmp_path):
        path = tmp_path / "gt.json"
        bad = {
            "example_uid": "e1",
            "box": [10, 0, 0, 10],
            "noun_category_id": 0,
            "verb_category_id": 0,
            "time_to_contact": 1.0,
        }
        path.write_text(
            json.dumps(
                {
                    "taxonomy": {"nouns": ["cup"], "verbs": ["take"]},
                    "annotations": [bad, dict(bad, example_uid="e2")],
                }
            )
        )
        with pytest.raises(ValidationError) as err:
            load_ground_truth(path)
        assert len(err.value.problems) == 2

    def test_values_beyond_the_number_types_rejected(self, tmp_path):
        path = tmp_path / "gt.json"
        good = {"example_uid": "e1", "box": [0, 0, 10, 10], "noun_category_id": 0,
                "verb_category_id": 0, "time_to_contact": 1.0}
        path.write_text(json.dumps({
            "taxonomy": {"nouns": ["cup"], "verbs": ["take"]},
            "annotations": [dict(good, noun_category_id=float("inf")), dict(good, box=[0, 0, 10**400, 1])],
        }))
        with pytest.raises(ValidationError) as err:
            load_ground_truth(path)
        assert err.value.problems == [
            f"{path}: annotation 0 (uid e1): bad or missing category/ttc field "
            "(cannot convert float infinity to integer)",
            f"{path}: annotation 1 (uid e1): int too large to convert to float",
        ]

    def test_every_problem_listed_annotation_by_annotation(self, tmp_path):
        path = tmp_path / "gt.json"
        good = {"example_uid": "e1", "box": [0, 0, 10, 10], "noun_category_id": 0,
                "verb_category_id": 0, "time_to_contact": 1.0}
        no_uid = {k: v for k, v in good.items() if k != "example_uid"}
        path.write_text(json.dumps({
            "taxonomy": {"nouns": ["cup", "pan"], "verbs": ["take"]},
            "annotations": [
                "junk", dict(no_uid, box=[0, 0, 1], time_to_contact="x"),
                dict(good, box=[10, 10, 0, 0], noun_category_id=9),
                dict(good, noun_category_id=2**70, verb_category_id=-1),
                dict(good, time_to_contact=-0.5), good,
            ],
        }))
        with pytest.raises(ValidationError) as err:
            load_ground_truth(path)
        assert err.value.problems == [
            f"{path}: annotation 0: must be an object",
            f"{path}: annotation 1: missing example_uid",
            f"{path}: annotation 1 (uid <annotation 1>): box must be a 4-element [x1, y1, x2, y2] list, "
            "got [0, 0, 1]",
            f"{path}: annotation 1 (uid <annotation 1>): bad or missing category/ttc field "
            "(could not convert string to float: 'x')",
            f"{path}: annotation 2 (uid e1): box has x1 > x2: (10.0, 10.0, 0.0, 0.0); "
            "box has y1 > y2: (10.0, 10.0, 0.0, 0.0)",
            f"{path}: annotation 3 (uid e1): noun_id {2**70} out of range [0, 2)",
            f"{path}: annotation 3 (uid e1): verb_id -1 out of range [0, 1)",
            f"{path}: annotation 4 (uid e1): ttc must be finite and >= 0, got -0.5",
        ]

    def test_columns_mixing_exact_and_other_types_convert_per_value(self, tmp_path):
        good = {"example_uid": "e1", "box": [0.0, 0.0, 10.0, 10.0], "noun_category_id": 0,
                "verb_category_id": 0, "time_to_contact": 1.0}
        raw = [good, dict(good, verb_category_id=True, time_to_contact="0.5", box=[0, 1, 2, 3]),
               dict(good, noun_category_id="1", time_to_contact=2)]
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"taxonomy": {"nouns": ["cup", "pan"], "verbs": ["take", "put"]},
                                    "annotations": raw}))
        _, table = load_ground_truth(path)
        assert table.noun.tolist() == [int(a["noun_category_id"]) for a in raw]
        assert table.verb.tolist() == [int(a["verb_category_id"]) for a in raw]
        assert table.ttc.tolist() == [float(a["time_to_contact"]) for a in raw]
        assert table.boxes.tolist() == [[float(v) for v in a["box"]] for a in raw]

    def test_annotations_warn_about_submission_fields(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"taxonomy": {"nouns": ["cup"], "verbs": ["take"]}, "annotations": [
            {"example_uid": "e1", "box": [0, 0, 10, 10], "noun_category_id": 0, "verb_category_id": 0,
             "time_to_contact": 1.0, "score": 0.5},
        ]}))
        with pytest.warns(UserWarning, match=r"annotation 0: ignoring unknown fields \['score'\]"):
            _, table = load_ground_truth(path)
        assert len(table) == 1

    def test_columns_match_the_annotations(self, tmp_path):
        taxonomy, gts = generate_scenario(3, 2, 2, 2, seed=4)
        path = tmp_path / "gt.json"
        write_ground_truth(taxonomy, as_gt_table(gts), path)
        _, table = load_ground_truth(path)
        assert table.uid == tuple(gt.example_uid for gt in gts)
        assert table.boxes.tolist() == [list(gt.box.corners()) for gt in gts]
        assert table.noun.tolist() == [gt.noun_id for gt in gts]
        assert table.verb.tolist() == [gt.verb_id for gt in gts]
        assert table.ttc.tolist() == [gt.ttc for gt in gts]

    def test_write_read_write_byte_identical(self, tmp_path):
        taxonomy, gts = generate_scenario(3, 2, 2, 2, seed=1)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_ground_truth(taxonomy, as_gt_table(gts), p1)
        taxonomy2, gts2 = load_ground_truth(p1)
        write_ground_truth(taxonomy2, gts2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_error_carries_line_context(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"taxonomy": \n !!')
        with pytest.raises(ValidationError) as err:
            load_ground_truth(path)
        assert "line 2" in str(err.value)


class TestSubmissions:
    def make_preds(self, seed=2):
        taxonomy, gts = generate_scenario(4, 3, 3, 3, seed=seed)
        return perturb_to_predictions(
            taxonomy, gts, NoiseConfig(box_jitter_sigma=10, seed=seed), 1
        )[0]

    def test_round_trip_values(self, tmp_path):
        preds = self.make_preds()
        path = tmp_path / "sub.json"
        write_submission({uid: as_table(hyps) for uid, hyps in preds.items()}, path)
        loaded = load_predictions(path)
        assert {uid: columns(table) for uid, table in loaded.items()} == {
            uid: columns(as_table(hyps)) for uid, hyps in preds.items()}

    def test_write_read_write_byte_identical(self, tmp_path):
        preds = self.make_preds()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_submission({uid: as_table(hyps) for uid, hyps in preds.items()}, p1)
        write_submission(load_predictions(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_negative_ttc_rejected(self, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text(
            json.dumps(
                {
                    "version": "1.0",
                    "challenge": "ego4d_sta",
                    "results": {
                        "e1": [
                            {
                                "box": [0, 0, 1, 1],
                                "noun_category_id": 0,
                                "verb_category_id": 0,
                                "time_to_contact": -0.1,
                                "score": 0.5,
                            }
                        ]
                    },
                }
            )
        )
        with pytest.raises(ValidationError):
            load_predictions(path)

    def test_non_positive_score_rejected(self, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text(
            json.dumps(
                {
                    "results": {
                        "e1": [
                            {
                                "box": [0, 0, 1, 1],
                                "noun_category_id": 0,
                                "verb_category_id": 0,
                                "time_to_contact": 0.5,
                                "score": 0.0,
                            }
                        ]
                    }
                }
            )
        )
        with pytest.raises(ValidationError):
            load_predictions(path)

    def test_unknown_fields_ignored_with_warning(self, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text(
            json.dumps(
                {
                    "results": {
                        "e1": [
                            {
                                "box": [0, 0, 1, 1],
                                "noun_category_id": 0,
                                "verb_category_id": 0,
                                "time_to_contact": 0.5,
                                "score": 0.5,
                                "mystery_field": 42,
                            }
                        ]
                    },
                    "future_extension": {},
                }
            )
        )
        with pytest.warns(UserWarning):
            preds = load_predictions(path)
        assert len(preds["e1"]) == 1

    def test_lists_kept_in_file_order_on_load(self, tmp_path):
        # The reader does not rank: each stage ranks the rows it takes.
        path = tmp_path / "sub.json"
        entries = [
            {"box": [0, 0, 1, 1], "noun_category_id": 0, "verb_category_id": 0,
             "time_to_contact": 0.5, "score": s}
            for s in (0.2, 0.9, 0.5)
        ]
        path.write_text(json.dumps({"results": {"e1": entries}}))
        preds = load_predictions(path)
        assert preds["e1"].score.tolist() == [0.2, 0.9, 0.5]


def entry(**fields):
    doc = {"box": [0, 0, 10, 10], "noun_category_id": 1, "verb_category_id": 0,
           "time_to_contact": 0.5, "score": 0.5}
    doc.update(fields)
    return doc


def source_ids(table):
    """Each row's source id, None where the row has none."""
    return [source if has else None for source, has in zip(table.source.tolist(), table.has_source.tolist())]


class TestSubmissionColumns:
    def load(self, tmp_path, results, taxonomy=None):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"results": results}))
        return load_predictions(path, taxonomy)

    def test_source_ids_absent_negative_and_present(self, tmp_path):
        preds = self.load(tmp_path, {"e": [entry(score=0.9), entry(score=0.8, source_id=-1),
                                           entry(score=0.7, source_id=4)]})
        assert preds["e"].has_source.tolist() == [False, True, True]
        assert source_ids(preds["e"]) == [None, -1, 4]
        out = tmp_path / "out.json"
        write_submission(preds, out)
        written = json.loads(out.read_text())["results"]["e"]
        assert ["source_id" in e for e in written] == [False, True, True]
        assert written[1]["source_id"] == -1

    def test_every_problem_listed_entry_by_entry(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            self.load(tmp_path, {
                "a": [entry(), entry(box=[10, 10, 0, 0], score="x"), "junk",
                      entry(score=0.0, time_to_contact=-1)],
                "b": "junk",
                "c": [entry(box=[0, 0, 1]), entry(noun_category_id=7, verb_category_id=9)],
            }, Taxonomy(("n0", "n1"), ("v0",)))
        where = f"{tmp_path / 'sub.json'}: results"
        assert err.value.problems == [
            f"{where}['a'][1]: box has x1 > x2: (10.0, 10.0, 0.0, 0.0); "
            "box has y1 > y2: (10.0, 10.0, 0.0, 0.0)",
            f"{where}['a'][1]: bad or missing field (could not convert string to float: 'x')",
            f"{where}['a'][2]: must be an object",
            f"{where}['a'][3]: ttc must be finite and >= 0, got -1.0",
            f"{where}['a'][3]: score must be finite and > 0, got 0.0",
            f"{where}['b'] must be a list",
            f"{where}['c'][0]: box must be a 4-element [x1, y1, x2, y2] list, got [0, 0, 1]",
            f"{where}['c'][1]: noun_id 7 out of range [0, 2)",
            f"{where}['c'][1]: verb_id 9 out of range [0, 1)",
        ]

    @pytest.mark.parametrize("fields, problem", [
        ({"noun_category_id": 2**70}, f"noun_id must fit in 64 bits, got {2**70}"),
        ({"verb_category_id": -(2**70)}, f"verb_id must be >= 0, got {-(2**70)}"),
        ({"source_id": -(2**70)}, f"source_id must fit in 64 bits, got {-(2**70)}"),
        ({"noun_category_id": float("inf")},
         "bad or missing field (cannot convert float infinity to integer)"),
        ({"score": 10**400}, "bad or missing field (int too large to convert to float)"),
        ({"box": [0, 0, 10**400, 1]}, "int too large to convert to float"),
    ])
    def test_values_beyond_the_column_types_rejected(self, tmp_path, fields, problem):
        with pytest.raises(ValidationError) as err:
            self.load(tmp_path, {"e": [entry(), entry(**fields)]})
        assert err.value.problems == [f"{tmp_path / 'sub.json'}: results['e'][1]: {problem}"]

    def test_columns_mixing_exact_and_other_types_convert_per_value(self, tmp_path):
        raw = [entry(), entry(noun_category_id=True, time_to_contact="0.5", score=1, box=[0, 1, 2, 3]),
               entry(verb_category_id=False, score="0.25", source_id=True),
               entry(score=0.75, noun_category_id=0.0, source_id=3.0)]
        preds = self.load(tmp_path, {"e": raw})
        rows = list(zip(preds["e"].score.tolist(), preds["e"].noun.tolist(), preds["e"].verb.tolist(),
                        preds["e"].ttc.tolist(), preds["e"].boxes.tolist(),
                        source_ids(preds["e"])))
        expected = [
            (float(e["score"]), int(e["noun_category_id"]), int(e["verb_category_id"]),
             float(e["time_to_contact"]), [float(v) for v in e["box"]],
             None if "source_id" not in e else int(e["source_id"]))
            for e in raw
        ]
        assert rows == expected
        assert [type(v) for row in rows for v in row[:4]] == [float, int, int, float] * 4

    def test_problems_word_values_as_converted(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            self.load(tmp_path, {"e": [entry(), entry(score=False), entry(noun_category_id=True),
                                       entry(noun_category_id="x", score="y")]},
                      Taxonomy(("n0",), ("v0",)))
        where = f"{tmp_path / 'sub.json'}: results['e']"
        assert err.value.problems == [
            f"{where}[0]: noun_id 1 out of range [0, 1)",
            f"{where}[1]: noun_id 1 out of range [0, 1)",
            f"{where}[2]: noun_id 1 out of range [0, 1)",
            f"{where}[3]: bad or missing field (invalid literal for int() with base 10: 'x')",
        ]
        with pytest.raises(ValidationError) as err:
            self.load(tmp_path, {"e": [entry(), entry(score=False, time_to_contact=True)]})
        assert err.value.problems == [f"{where}[1]: score must be finite and > 0, got 0.0"]

    def test_entries_warn_about_ground_truth_fields(self, tmp_path):
        warning = r"results\['e'\]\[1\]: ignoring unknown fields \['example_uid'\]"
        with pytest.warns(UserWarning, match=warning):
            preds = self.load(tmp_path, {"e": [entry(), entry(example_uid="e")]})
        assert len(preds["e"]) == 2

    def test_out_of_int64_id_against_a_taxonomy(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            self.load(tmp_path, {"e": [entry(noun_category_id=2**70)]}, Taxonomy(("n0", "n1"), ("v0",)))
        assert err.value.problems == [
            f"{tmp_path / 'sub.json'}: results['e'][0]: noun_id {2**70} out of range [0, 2)"
        ]


def reference_submission_text(preds, provenance=None) -> str:
    """A submission's text as the JSON encoder writes its whole document."""
    results = {}
    for uid in sorted(preds):
        table = sort_canonical(preds[uid])
        entries = [
            {"box": box, "noun_category_id": noun, "verb_category_id": verb,
             "time_to_contact": ttc, "score": score}
            for box, noun, verb, ttc, score in zip(
                table.boxes.tolist(), table.noun.tolist(), table.verb.tolist(),
                table.ttc.tolist(), table.score.tolist(),
            )
        ]
        for r in np.flatnonzero(table.has_source).tolist():
            entries[r]["source_id"] = int(table.source[r])
        results[uid] = entries
    doc = {"version": "1.0", "challenge": "ego4d_sta", "results": results}
    if provenance is not None:
        doc["provenance"] = provenance
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-7, 1e22, 0.1]
coordinates = st.one_of(st.sampled_from(EDGE_FLOATS + [-1e16, -1e-7]),
                        st.floats(-1e30, 1e30, allow_nan=False))
non_negative = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(0.0, 1e30))
positive = st.one_of(st.sampled_from([f for f in EDGE_FLOATS if f > 0]), st.floats(5e-324, 1e300))
ids = st.one_of(st.sampled_from([0, 1, 2**63 - 1]), st.integers(0, 2**63 - 1))
sources = st.one_of(st.none(), st.sampled_from([-1, 0, -(2**63), 2**63 - 1]), st.integers(-(2**63), 2**63 - 1))
submission_rows = st.lists(
    st.tuples(coordinates, coordinates, coordinates, coordinates, ids, ids, non_negative, positive, sources),
    max_size=5,
)
uids = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t", "caf\u00e9", "\u2028\U0001f600", ""]),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=10,
)


def table_from_rows(rows) -> HypothesisTable:
    return HypothesisTable(
        boxes=np.array([[min(a, c), min(b, d), max(a, c), max(b, d)] for a, b, c, d, *_ in rows],
                       dtype=np.float64).reshape(-1, 4),
        noun=[row[4] for row in rows],
        verb=[row[5] for row in rows],
        ttc=[row[6] for row in rows],
        score=[row[7] for row in rows],
        source=[0 if row[8] is None else row[8] for row in rows],
        has_source=[row[8] is not None for row in rows],
    )


class TestSubmissionText:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(uids, submission_rows, max_size=4),
           st.one_of(st.none(), st.dictionaries(st.text(), json_values, max_size=4)))
    def test_bytes_equal_the_json_encoders(self, results, provenance):
        preds = {uid: table_from_rows(rows) for uid, rows in results.items()}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sub.json"
            write_submission(preds, path, provenance)
            assert path.read_bytes() == reference_submission_text(preds, provenance).encode("utf-8")

    def test_empty_results_and_empty_lists(self, tmp_path):
        for preds in ({}, {"e": table_from_rows([])}, {"a": table_from_rows([]), "b": table_from_rows([])}):
            write_submission(preds, tmp_path / "sub.json", {"é": {"nested": ["ü", 1.5]}})
            assert (tmp_path / "sub.json").read_text() == reference_submission_text(
                preds, {"é": {"nested": ["ü", 1.5]}}
            )


WITH_SOURCE = [(0.0, 0.0, 4.0, 2.0, 1, 0, 0.5, 0.9, 3), (1.0, 1.0, 2.0, 2.0, 0, 1, 1.5, 0.4, -1)]
WITHOUT_SOURCE = [(0.0, 0.0, 4.0, 2.0, 1, 0, 0.5, 0.9, None), (1.0, 1.0, 2.0, 2.0, 0, 1, 1.5, 0.4, None)]


class TestStreamedWriter:
    """The submission is written one example at a time: the same bytes as
    the JSON encoder's, holding one example's text."""

    @pytest.mark.parametrize("results", [
        {},
        {"empty": []},
        {"a": WITH_SOURCE},
        {"a": WITHOUT_SOURCE},
        {"a": WITHOUT_SOURCE, "b": [], "c": WITH_SOURCE[:1] + WITHOUT_SOURCE[1:]},
    ], ids=["no uids", "a uid with no rows", "with source_id", "without source_id", "mixed"])
    @pytest.mark.parametrize("provenance", [None, {"config": {"k": 1.5}, "inputs": ["a.json"]}],
                             ids=["without provenance", "with provenance"])
    def test_bytes_equal_the_json_encoders(self, tmp_path, results, provenance):
        preds = {uid: table_from_rows(rows) for uid, rows in results.items()}
        write_submission(preds, tmp_path / "sub.json", provenance)
        assert (tmp_path / "sub.json").read_bytes() == reference_submission_text(preds, provenance).encode()

    def test_peak_allocation_below_a_quarter_of_the_file_size(self, tmp_path):
        # Building the whole text peaked at four times the file size.
        preds = large_submission()
        path = tmp_path / "sub.json"
        tracemalloc.start()
        try:
            write_submission(preds, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert len(preds) >= 50 and size > 2_500_000
        assert path.read_bytes() == reference_submission_text(preds).encode()
        assert peak < size / 4, f"peak {peak} bytes for a file of {size}"


# -- the streamed submission reader -----------------------------------------

STREAM_TAXONOMY = Taxonomy(("n0", "n1", "n2"), ("v0", "v1"))


def stream_entries(rng, n: int, unknown: bool = False) -> list[dict]:
    entries = []
    for i in range(n):
        x, y = rng.uniform(0, 500, 2).tolist()
        raw = {"box": [x, y, x + 10.5, y + float(rng.uniform(1, 50))],
               "noun_category_id": int(rng.integers(3)), "verb_category_id": int(rng.integers(2)),
               "time_to_contact": float(rng.uniform(0, 2)), "score": float(rng.uniform(0.01, 1))}
        if i % 3 == 1:
            raw["source_id"] = int(rng.integers(-1, 4))
        if unknown and i == 1:
            raw["comment"] = "ünknown"
        entries.append(raw)
    return entries


def stream_corpus() -> dict[str, tuple[bool, list[bytes]]]:
    """Submission files by kind: whether the streamed reader must walk
    them (not read them whole), and their bytes."""
    rng = np.random.default_rng(14)
    uids = ["ex_0", "café", "\U0001f600 smile", 'q"b\\s', " \t", "é" * 3]
    doc = {"version": "1.0", "challenge": "ego4d_sta", "future": {"a": [1, None]}, "count": -1.5e-300,
           "results": {uid: stream_entries(rng, 3, unknown=k == 2) for k, uid in enumerate(uids)},
           "provenance": {"note": "ß", "values": [1, 2.5, None, True, "\U0001f600"]}, "n": 1024}
    written = [
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
        json.dumps(doc, separators=(",", ":")),
        json.dumps(doc, separators=(",", ":"), ensure_ascii=False),
        json.dumps(doc, indent=2).replace("\n", "\r\n"),
        json.dumps(doc, indent="\t", ensure_ascii=False),
        json.dumps(doc, indent=" \r\n\t") + " \n\t\r ",
    ]
    texts = [text.encode("utf-8") for text in written]
    one = json.dumps(stream_entries(rng, 2))
    nan_entries = stream_entries(rng, 3)
    nan_entries[0]["score"] = float("nan")
    nan_entries[1]["extra"] = [float("nan"), float("inf"), -float("inf")]
    bad_entries = stream_entries(rng, 4)
    bad_entries[1].update(time_to_contact=-1, noun_category_id=7)
    bad_entries[2] = "junk"
    bad_entries[3]["box"] = [0, 0, 1]
    good = {"results": {"a": stream_entries(rng, 2), "b": [], "c": stream_entries(rng, 1)}}
    late_problem = {"version": "1.0", "results": {f"u{k}": stream_entries(rng, 2, unknown=True) for k in range(4)}}
    late_problem["results"]["u3"][0]["score"] = 0.0

    def flip(data: bytes, k: int, value: int) -> bytes:
        return data[:k] + bytes([value]) + data[k + 1:]

    deep = "[" * 100_000
    long_int = "7" * 5000
    return {
        "valid": (True, texts + [json.dumps(d).encode() for d in (
            {"results": {}}, {"results": {}, "version": "1.0"}, {"results": {"e": []}}, good)]),
        "entry problems": (True, [json.dumps(d).encode() for d in (
            {"results": {"a": nan_entries}}, {"results": {"a": bad_entries, "b": nan_entries}},
            {"results": {"a": 5, "b": stream_entries(rng, 1), "c": {"x": 1}, "d": None, "e": "s"}},
            late_problem,
            {"results": {"a": [{"box": [0, 0, 1, 1], "noun_category_id": 2**70, "verb_category_id": 0,
                                "time_to_contact": 1, "score": 1, "source_id": -(2**70)}]}})]),
        "truncated": (False, [data[:k] for data in texts[:3]
                              for k in rng.integers(0, len(data), 8).tolist() + [len(data) - 2]]),
        "flipped": (False, [flip(data, k, v) for data in texts[:3] for k, v in zip(
            rng.integers(0, len(data), 8).tolist(), rng.integers(0, 256, 8).tolist())]),
        "invalid utf-8": (False, [data[:k] + b"\xff" + data[k:] for data in texts[:2]
                                  for k in rng.integers(0, len(data), 3).tolist()]
                          + [texts[2].replace("é".encode(), b"\xc3x", 1), texts[1] + b"\xf0\x9f",
                             texts[2][:texts[2].index("\U0001f600".encode()) + 2]]),
        "bom": (False, [b"\xef\xbb\xbf" + data for data in texts[:2]]),
        "trailing": (False, [texts[0] + b"x", texts[1] + b" {}", texts[1] + b"\x00", texts[0] + b"]"]),
        "structure": (False, [text.encode() for text in (
            "", "  ", "null", "[1, 2, 3]", '"results"', "{}", '{"version": "1.0"}', '{"results": []}',
            '{"results": null}', '{"results": "x"}', '{"results": {"a": [],}}', '{"results": {"a" []}}',
            '{"results": {}, }', '{"results": {} "version": 1}', '{"results": {"a": 1.}}', "{'results': {}}",
            '{"results": "a": []}}', '{"results": {"a": []}}}', '{"results" {}}', '{"results": {}}]',
            '["results": {}}', '{\'results": {}}', '{"results" , {}}', '{"results": ["a": []}}',
            '{"results": {}; "version": 1}',
        )]),
        "repeated keys": (False, [text.encode() for text in (
            f'{{"results": {{"a": [], "b": {one}, "a": {one}}}}}',
            f'{{"results": {{"a": {one}}}, "version": "1.0", "results": {{"b": []}}}}',
            f'{{"version": "1", "results": {{"a": {one}}}, "version": "2"}}',
            f'{{"results": {{"a": {one}, "b": [], "caf\\u00e9": [], "café": {one}}}}}',
        )]),
        "deep": (False, [text.encode() for text in (
            f'{{"results": {{"a": {deep}}}}}',
            f'{{"results": {{"a": [{{"box": {deep}{"]" * 100_000}}}]}}}}',
            f'{{"provenance": {deep}{"]" * 100_000}, "results": {{}}}}',
        )]),
        "long ints": (False, [text.encode() for text in (
            f'{{"version": {long_int}, "results": {{}}}}',
            f'{{"results": {{"a": [{{"noun_category_id": {long_int}}}]}}}}',
            f'{{"results": {{"a": {one}, "b": {long_int}}}}}',
        )]),
    }


STREAM_CORPUS = stream_corpus()


def large_submission() -> dict[str, HypothesisTable]:
    """100 examples of 100 random hypotheses, about 3 MB as a file."""
    rng = np.random.default_rng(3)
    preds = {}
    for u in range(100):
        corners = rng.uniform(0, 500, (100, 4))
        preds[f"ex_{u:03d}"] = HypothesisTable(
            boxes=np.concatenate([corners[:, :2], corners[:, :2] + corners[:, 2:]], axis=1),
            noun=rng.integers(0, 10, 100), verb=rng.integers(0, 10, 100),
            ttc=rng.uniform(0, 2, 100), score=rng.uniform(0.01, 1, 100))
    return preds


def read_whole(path, taxonomy):
    return predictions_from_dict(_load_json(path), path, taxonomy)


def outcome(read, path):
    """What a reader makes of a file: each table's columns bit for bit, or
    the exception's type and problems; and the warnings, in order. Any
    other exception fails the test (the command would exit 3)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            preds = read(path, STREAM_TAXONOMY)
        except ValidationError as e:
            result = (type(e), e.problems)
        else:
            result = [(uid, [(name, column.dtype.str, column.shape, column.tobytes())
                             for name, column in vars(table).items()])
                      for uid, table in preds.items()]
    return result, [(w.category, str(w.message)) for w in caught]


_opens: list | None = None  # the paths opened while `opened_paths` runs


def _record_open(event: str, args: tuple) -> None:
    if event == "open" and _opens is not None and not isinstance(args[0], int):
        _opens.append(os.fspath(args[0]))


def opened_paths(call) -> list[str]:
    """The paths of the files opened while call() runs, in order, as the
    interpreter's "open" audit event names them."""
    global _opens
    if not getattr(opened_paths, "hooked", False):
        sys.addaudithook(_record_open)  # a hook cannot be removed; it records only in here
        opened_paths.hooked = True
    _opens = []
    try:
        call()
        return _opens
    finally:
        _opens = None


class TestStreamedSubmissions:
    """`load_predictions` walks a submission chunk by chunk; whatever the
    file, it must read it as `predictions_from_dict` reads the whole
    document: the same tables, or the same exception and problems, and
    the same warnings in the same order."""

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
    @pytest.mark.parametrize("kind", list(STREAM_CORPUS))
    def test_read_as_the_whole_document(self, tmp_path, monkeypatch, kind, chunk):
        # A chunk of 1 or 3 bytes makes every token and every multi-byte
        # character cross a chunk boundary; one of 1 MiB, like the default
        # chunk, holds every file of the corpus whole.
        monkeypatch.setattr(io_formats, "_CHUNK", chunk)
        wholes = []
        parse = io_formats._parse_json
        monkeypatch.setattr(io_formats, "_parse_json", lambda data, path: wholes.append(path) or parse(data, path))
        walked, files = STREAM_CORPUS[kind]
        path = tmp_path / "sub.json"
        for data in files:
            path.write_bytes(data)
            wholes.clear()
            streamed = outcome(load_predictions, path)
            if walked:
                assert wholes == [], data[:300]
            assert streamed == outcome(read_whole, path), data[:300]

    def test_problems_and_warnings_of_every_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_formats, "_CHUNK", 64)
        _, files = STREAM_CORPUS["entry problems"]
        path = tmp_path / "sub.json"
        path.write_bytes(files[3])  # unknown fields in every list, a bad score in the last
        result, caught = outcome(load_predictions, path)
        assert result == (ValidationError, [f"{path}: results['u3'][0]: score must be finite and > 0, got 0.0"])
        assert [message for _, message in caught] == [
            f"{path}: results['u{k}'][1]: ignoring unknown fields ['comment']" for k in range(4)]

    @pytest.mark.parametrize("kind", ["valid", "repeated keys", "invalid utf-8"])
    def test_opened_once(self, tmp_path, kind):
        # A document the walk stops in is parsed whole from the same open file.
        path = tmp_path / "sub.json"
        path.write_bytes(STREAM_CORPUS[kind][1][0])
        assert opened_paths(lambda: outcome(load_predictions, path)) == [str(path)]

    def test_no_warning_before_a_later_syntax_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_formats, "_CHUNK", 16)
        _, texts = STREAM_CORPUS["valid"]
        path = tmp_path / "sub.json"
        path.write_bytes(texts[0][:-3])  # unknown fields throughout, then the closing brace cut
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="invalid JSON at line"):
                load_predictions(path)

    def test_peak_allocation_below_the_file_size(self, tmp_path, monkeypatch):
        # Reading the whole document peaks at 2.4-2.6 times the file size.
        preds = large_submission()
        path = tmp_path / "sub.json"
        write_submission(preds, path)
        size = path.stat().st_size
        assert size > 2_500_000
        monkeypatch.setattr(io_formats, "_CHUNK", 64 * 1024)
        tracemalloc.start()
        try:
            loaded = load_predictions(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert {uid: columns(table) for uid, table in loaded.items()} == {
            uid: columns(sort_canonical(table)) for uid, table in preds.items()}
        assert peak < size, f"peak {peak} bytes for a file of {size}"

    def test_full_ties_kept_in_file_order_within_each_uid_of_one_batch(self, tmp_path, monkeypatch):
        # Both uids have rows of score 0.5, and each has full ties that only
        # the source id tells apart; the whole file is one batch, and each
        # uid's table is its entries as written.
        tie = {"box": [0, 0, 10, 10], "score": 0.5}
        results = {
            "a": [entry(**tie, source_id=3), entry(score=0.75), entry(**tie), entry(**tie, source_id=-1),
                  entry(**tie, source_id=3), entry(**tie, noun_category_id=0, source_id=9)],
            "b": [entry(**tie, source_id=2), entry(**tie, source_id=0), entry(**tie), entry(score=0.25),
                  entry(**tie, source_id=0)],
        }
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"results": results}))
        batches = []
        read = io_formats._read_results
        monkeypatch.setattr(io_formats, "_read_results",
                            lambda path, members, *rest: batches.append(len(members)) or read(path, members, *rest))
        preds = load_predictions(path)
        assert batches == [2]
        for uid, entries in results.items():
            table = HypothesisTable(
                boxes=[e["box"] for e in entries], noun=[e["noun_category_id"] for e in entries],
                verb=[e["verb_category_id"] for e in entries], ttc=[e["time_to_contact"] for e in entries],
                score=[e["score"] for e in entries], source=[e.get("source_id", 0) for e in entries],
                has_source=["source_id" in e for e in entries])
            assert columns(preds[uid]) == columns(table), uid
        assert source_ids(preds["a"]) == [3, None, None, -1, 3, 9]
        assert source_ids(preds["b"]) == [2, 0, None, None, 0]

    def test_no_sort_on_load(self, tmp_path, monkeypatch):
        # The reader keeps file order, so no sort of any size is made.
        path = tmp_path / "sub.json"
        write_submission(large_submission(), path)
        sorted_sizes = []
        for name in ("argsort", "lexsort", "sort"):
            def counted(keys, *args, _name=name, _sort=getattr(np, name), **kwargs):
                sorted_sizes.append(len(keys[0]) if _name == "lexsort" else np.size(keys))
                return _sort(keys, *args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        loaded = load_predictions(path)
        monkeypatch.undo()
        assert len(loaded) == 100 and sorted_sizes == []

    # Read as one table per example, this submission held 1,228-1,233
    # bytes per example above its columns' bases; as one run per batch,
    # 185 (the uid, its place in the runs, and each batch's table). The
    # bound is that plus 25%.
    def test_bytes_held_per_example_above_the_columns(self, tmp_path):
        rng = np.random.default_rng(5)
        preds = {}
        for u in range(1000):
            corners = rng.uniform(0, 500, (10, 4))
            preds[f"ex_{u:04d}"] = HypothesisTable(
                boxes=np.concatenate([corners[:, :2], corners[:, :2] + corners[:, 2:]], axis=1),
                noun=rng.integers(0, 10, 10), verb=rng.integers(0, 10, 10),
                ttc=rng.uniform(0, 2, 10), score=rng.uniform(0.01, 1, 10))
        path = tmp_path / "sub.json"
        write_submission(preds, path)
        del preds
        tracemalloc.start()
        try:
            loaded = load_predictions(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        bases = {}  # each column's own array, by id: a view's base, or one zero for an absent column
        for table in loaded.values():
            for name in ("boxes", "noun", "verb", "ttc", "score", "source", "has_source"):
                column = getattr(table, name)
                base = column if column.base is None else column.base
                bases[id(base)] = base.nbytes
        assert len(loaded) == 1000
        assert held - sum(bases.values()) <= 231 * len(loaded)

    def test_batches_out_of_uid_order_read_and_score_as_the_whole_document(self, tmp_path):
        # 120 examples of 40 hypotheses, written in a shuffled uid order
        # without `write_submission`'s sort: about 1.3 MB, so the walk reads
        # it in several batches, and examples of one evaluate block come
        # from different batches, out of order.
        preds, gts = crowded_instance(120, n_preds=40)
        order = np.random.default_rng(8).permutation(sorted(preds)).tolist()
        results = {uid: [{"box": box, "noun_category_id": noun, "verb_category_id": verb,
                          "time_to_contact": ttc, "score": score}
                         for box, noun, verb, ttc, score in zip(
                             preds[uid].boxes.tolist(), preds[uid].noun.tolist(), preds[uid].verb.tolist(),
                             preds[uid].ttc.tolist(), preds[uid].score.tolist())]
                   for uid in order[:-10]}  # the last 10 examples have ground truth only
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"results": results}, indent=2))
        walked, whole = load_predictions(path), read_whole(path, None)
        assert len(walked.tables) >= 3 and len(whole.tables) == 1
        assert list(walked) == list(whole) == order[:-10]
        assert {uid: columns(walked[uid]) for uid in walked} == {uid: columns(whole[uid]) for uid in whole}
        tables = {uid: whole[uid] for uid in whole}
        for top_k in (5, 100):
            cfg = EvalConfig(top_k=top_k)
            assert evaluate(walked, gts, cfg).to_dict() == evaluate(tables, gts, cfg).to_dict()


# -- the streamed ground-truth reader -----------------------------------------

GT_TAXONOMY = {"nouns": ["n0", "n1", "n2"], "verbs": ["v0", "v1"]}


def gt_entries(rng, n: int, unknown: bool = False) -> list[dict]:
    entries = []
    for i in range(n):
        x, y = rng.uniform(0, 500, 2).tolist()
        raw = {"example_uid": ["ex_0", "café", "\U0001f600 smile", 'q"b\\s'][i % 4],
               "box": [x, y, x + 10.5, y + float(rng.uniform(1, 50))],
               "noun_category_id": int(rng.integers(3)), "verb_category_id": int(rng.integers(2)),
               "time_to_contact": float(rng.uniform(0, 2))}
        if unknown and i % 5 == 1:
            raw["score"] = 0.5
        entries.append(raw)
    return entries


def gt_corpus() -> dict[str, tuple[bool, list[bytes]]]:
    """Ground-truth files by kind: whether the streamed reader must walk
    them (not read them whole), and their bytes. A `taxonomy_path` names
    "taxonomy.json" next to the file."""
    rng = np.random.default_rng(25)
    doc = {"annotations": gt_entries(rng, 12, unknown=True), "taxonomy": GT_TAXONOMY,
           "provenance": {"note": "ß", "values": [1, 2.5, None]}, "future": [1, {"a": None}]}
    first = {"taxonomy": GT_TAXONOMY, "annotations": gt_entries(rng, 6)}  # taxonomy before annotations
    written = [
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
        json.dumps(doc, separators=(",", ":")),
        json.dumps(doc, separators=(",", ":"), ensure_ascii=False),
        json.dumps(doc, indent=2).replace("\n", "\r\n"),
        json.dumps(doc, indent="\t", ensure_ascii=False),
        json.dumps(doc, indent=" \r\n\t") + " \n\t\r ",
        json.dumps(first, indent=2),
        json.dumps(first, separators=(",", ":")),
        json.dumps({"taxonomy_path": "taxonomy.json", "annotations": gt_entries(rng, 5)}, indent=2),
        json.dumps({"annotations": gt_entries(rng, 5), "taxonomy_path": "taxonomy.json"}),
        json.dumps({"annotations": [], "taxonomy": GT_TAXONOMY}),
        '{"annotations": [ \n ], "taxonomy": ' + json.dumps(GT_TAXONOMY) + "}",
    ]
    texts = [text.encode("utf-8") for text in written]

    bad = gt_entries(rng, 14, unknown=True)
    bad[1] = "junk"
    bad[2] = None
    del bad[3]["example_uid"]
    bad[4]["example_uid"] = ""
    bad[5].update(noun_category_id=2**70, verb_category_id=-(2**70))
    bad[6].update(noun_category_id=7, time_to_contact=-1.0)  # outside the taxonomy and a bad ttc: stage 3 wins
    bad[7].update(box=[0, 0, 1], time_to_contact="x")
    bad[8]["box"] = [10.0, 10.0, 0.0, 0.0]
    bad[9]["time_to_contact"] = float("nan")
    bad[10]["verb_category_id"] = 2.5
    bad[11].update(noun_category_id=-(2**70), time_to_contact=-1.0)
    bad[13]["time_to_contact"] = -0.5  # the last problem, in the last batch
    problems = [
        {"annotations": bad, "taxonomy": GT_TAXONOMY},
        {"taxonomy": GT_TAXONOMY, "annotations": bad, "extra": 1},
        {"annotations": [7, [], "s"], "taxonomy": GT_TAXONOMY},
        {"annotations": gt_entries(rng, 3)},  # no taxonomy
        {"annotations": bad, "taxonomy": {"nouns": "n0"}},
        {"annotations": bad, "taxonomy": {"nouns": ["n0", "n0"], "verbs": [1]}},
        {"annotations": gt_entries(rng, 3), "taxonomy_path": 5},
        {"annotations": gt_entries(rng, 3), "taxonomy_path": "missing.json"},
        {"annotations": gt_entries(rng, 3), "taxonomy": GT_TAXONOMY, "taxonomy_path": 5, "provenance": None},
    ]

    def flip(data: bytes, k: int, value: int) -> bytes:
        return data[:k] + bytes([value]) + data[k + 1:]

    deep = "[" * 100_000
    return {
        "valid": (True, texts),
        "problems": (True, [json.dumps(d, indent=1).encode() for d in problems] + [
            ('{"annotations":[1.5e3 ,-2,"s" ,{"box":[]}],"taxonomy":' + json.dumps(GT_TAXONOMY) + "}").encode()]),
        "truncated": (False, [data[:k] for data in texts[:3]
                              for k in rng.integers(0, len(data), 8).tolist() + [len(data) - 2]]),
        "flipped": (False, [flip(data, k, v) for data in texts[:3] for k, v in zip(
            rng.integers(0, len(data), 8).tolist(), rng.integers(0, 256, 8).tolist())]),
        "invalid utf-8": (False, [data[:k] + b"\xff" + data[k:] for data in texts[:2]
                                  for k in rng.integers(0, len(data), 3).tolist()]),
        "structure": (False, [text.encode() for text in (
            "", "[]", "{}", '{"annotations": {}}', '{"annotations": null, "taxonomy": {}}',
            '{"taxonomy": {"nouns": ["n"], "verbs": ["v"]}}', '{"annotations": [1,], "taxonomy": {}}',
            '{"annotations": [1 2], "taxonomy": {}}', '{"annotations": [}, "taxonomy": {}}',
            '{"annotations": [], "annotations": []}', '{"annotations": [], "taxonomy": {}, "taxonomy": {}}',
            '{"annotations": [], "results": {}}', '{"nouns": [], "annotations": []}',
            '{"annotations": [1.]}', f'{{"annotations": [{deep}]}}', f'{{"annotations": [{"7" * 5000}]}}',
        )]),
    }


GT_CORPUS = gt_corpus()


def gt_outcome(read, path):
    """What a ground-truth reader makes of a file: the taxonomy and each
    column bit for bit, or the exception's type and problems (or message);
    and the warnings, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            taxonomy, table = read(path)
        except ValidationError as e:
            result = (type(e), e.problems)
        except OSError as e:
            result = (type(e), str(e))
        else:
            result = (taxonomy, [(name, column if isinstance(column, tuple) else
                                  (column.dtype.str, column.shape, column.tobytes()))
                                 for name, column in vars(table).items()])
    return result, [(w.category, str(w.message)) for w in caught]


def gt_read_whole(path):
    return ground_truth_from_dict(_load_json(path), path)


class TestStreamedGroundTruth:
    """`load_ground_truth` walks a ground truth annotation by annotation;
    whatever the file, it must read it as `ground_truth_from_dict` reads
    the whole document: the same taxonomy and table, or the same exception
    and problems, and the same warnings in the same order."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, io_formats._CHUNK])
    @pytest.mark.parametrize("kind", list(GT_CORPUS))
    def test_read_as_the_whole_document(self, tmp_path, monkeypatch, kind, chunk):
        monkeypatch.setattr(io_formats, "_CHUNK", chunk)
        wholes = []
        parse = io_formats._parse_json
        monkeypatch.setattr(io_formats, "_parse_json", lambda data, path: wholes.append(path) or parse(data, path))
        (tmp_path / "taxonomy.json").write_text(json.dumps(GT_TAXONOMY))
        walked, files = GT_CORPUS[kind]
        path = tmp_path / "gt.json"
        for data in files:
            path.write_bytes(data)
            wholes.clear()
            streamed = gt_outcome(load_ground_truth, path)
            if walked:
                assert [p for p in wholes if p == path] == [], data[:300]
            assert streamed == gt_outcome(gt_read_whole, path), data[:300]

    def test_problems_in_file_order_across_batches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_formats, "_CHUNK", 64)
        path = tmp_path / "gt.json"
        path.write_bytes(GT_CORPUS["problems"][1][0])
        result, caught = gt_outcome(load_ground_truth, path)
        quoted = 'q"b\\s'
        assert result == (ValidationError, [
            f"{path}: annotation 1: must be an object",
            f"{path}: annotation 2: must be an object",
            f"{path}: annotation 3: missing example_uid",
            f"{path}: annotation 4: missing example_uid",
            f"{path}: annotation 5 (uid café): noun_id {2**70} out of range [0, 3)",
            f"{path}: annotation 5 (uid café): verb_id {-(2**70)} out of range [0, 2)",
            f"{path}: annotation 6 (uid \U0001f600 smile): noun_id 7 out of range [0, 3)",
            f"{path}: annotation 7 (uid {quoted}): box must be a 4-element [x1, y1, x2, y2] list, "
            "got [0, 0, 1]",
            f"{path}: annotation 7 (uid {quoted}): bad or missing category/ttc field "
            "(could not convert string to float: 'x')",
            f"{path}: annotation 8 (uid ex_0): box has x1 > x2: (10.0, 10.0, 0.0, 0.0); "
            "box has y1 > y2: (10.0, 10.0, 0.0, 0.0)",
            f"{path}: annotation 9 (uid café): ttc must be finite and >= 0, got nan",
            f"{path}: annotation 10 (uid \U0001f600 smile): bad or missing category/ttc field "
            "(verb_category_id must be a whole number, got 2.5)",
            f"{path}: annotation 11 (uid {quoted}): noun_id {-(2**70)} out of range [0, 3)",
            f"{path}: annotation 13 (uid café): ttc must be finite and >= 0, got -0.5",
        ])
        assert [message for _, message in caught] == [
            f"{path}: annotation {i}: ignoring unknown fields ['score']" for i in (6, 11)]

    def test_validate_gives_the_verdict_of_evaluate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(io_formats, "_CHUNK", 7)
        (tmp_path / "taxonomy.json").write_text(json.dumps(GT_TAXONOMY))
        (tmp_path / "sub.json").write_text('{"results": {}}')
        path = tmp_path / "gt.json"
        for kind in ("valid", "problems"):
            for data in GT_CORPUS[kind][1]:
                path.write_bytes(data)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    validated = main(["validate", str(path)])
                    _, validate_err = capsys.readouterr()
                    evaluated = main(["evaluate", str(path), str(tmp_path / "sub.json"), "--out", str(tmp_path)])
                    _, evaluate_err = capsys.readouterr()
                assert (validated, validate_err) == (evaluated, evaluate_err), data[:300]

    def test_peak_allocation_bounded_by_the_columns(self, tmp_path):
        # Reading the whole document held its text and every decoded
        # annotation: 14.7 MB here, six times the columns. The walk holds
        # the columns twice (each batch's, then joined) and about four
        # chunks: one of text and the annotations decoded from it.
        rng = np.random.default_rng(5)
        n = 20_000
        corners = rng.uniform(0, 500, (n, 4))
        gts = GroundTruthTable(
            uid=[f"ex_{i // 8:05d}" for i in range(n)],
            boxes=np.concatenate([corners[:, :2], corners[:, :2] + corners[:, 2:]], axis=1),
            noun=rng.integers(0, 3, n), verb=rng.integers(0, 2, n), ttc=rng.uniform(0, 2, n))
        path = tmp_path / "gt.json"
        write_ground_truth(Taxonomy(tuple(GT_TAXONOMY["nouns"]), tuple(GT_TAXONOMY["verbs"])), gts, path)
        tracemalloc.start()
        try:
            _, loaded = load_ground_truth(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.uid == gts.uid
        assert [loaded.boxes.tolist(), loaded.noun.tolist(), loaded.verb.tolist(), loaded.ttc.tolist()] == [
            gts.boxes.tolist(), gts.noun.tolist(), gts.verb.tolist(), gts.ttc.tolist()]
        held = sum(sys.getsizeof(uid) for uid in loaded.uid) + sys.getsizeof(loaded.uid) + sum(
            column.nbytes for column in (loaded.boxes, loaded.noun, loaded.verb, loaded.ttc))
        assert peak < 2 * held + 4 * io_formats._CHUNK, f"peak {peak} bytes for columns of {held}"

    @pytest.mark.parametrize("walked", [True, False])
    def test_one_string_per_uid(self, tmp_path, monkeypatch, walked):
        # Each annotation's uid is decoded as a string of its own; the
        # table keeps one of them per example, across batches too.
        monkeypatch.setattr(io_formats, "_CHUNK", 7)
        rng = np.random.default_rng(8)
        n = 40
        corners = rng.uniform(0, 500, (n, 4))
        gts = GroundTruthTable(
            uid=[f"ex_{i % 5:03d}" for i in range(n)],
            boxes=np.concatenate([corners[:, :2], corners[:, :2] + corners[:, 2:]], axis=1),
            noun=rng.integers(0, 3, n), verb=rng.integers(0, 2, n), ttc=rng.uniform(0, 2, n))
        path = tmp_path / "gt.json"
        write_ground_truth(Taxonomy(tuple(GT_TAXONOMY["nouns"]), tuple(GT_TAXONOMY["verbs"])), gts, path)
        _, loaded = load_ground_truth(path) if walked else gt_read_whole(path)
        assert loaded.uid == gts.uid
        assert len(set(map(id, loaded.uid))) == len(set(loaded.uid)) == 5


class TestAnnotationBlocks:
    """Each chunk's annotations up to its last "}," are decoded at once,
    and the rest one at a time: also all of them, when that "}," is in a
    string or a nested value. Either way the table, problems and warnings
    are those of the whole read."""

    @staticmethod
    def write(path, last: dict) -> list:
        """A ground truth of 40 annotations, the last updated by `last`;
        its annotations."""
        annotations = gt_entries(np.random.default_rng(3), 40)
        annotations[-1].update(last)
        path.write_text(json.dumps({"annotations": annotations, "taxonomy": GT_TAXONOMY}, indent=2, sort_keys=True))
        return annotations

    @staticmethod
    def decoded(monkeypatch, path) -> list:
        """The values `_SCAN` decodes while the ground truth at path is loaded."""
        values, scan = [], io_formats._SCAN
        monkeypatch.setattr(io_formats, "_SCAN", lambda text, idx: values.append(scan(text, idx)[0]) or scan(text, idx))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_ground_truth(path)
        monkeypatch.setattr(io_formats, "_SCAN", scan)
        return values

    def test_all_but_the_last_at_once(self, tmp_path, monkeypatch):
        path = tmp_path / "gt.json"
        annotations = self.write(path, {})
        assert self.decoded(monkeypatch, path) == [annotations[:-1], annotations[-1], GT_TAXONOMY]

    @pytest.mark.parametrize("last", [{"example_uid": "a},b"}, {"example_uid": '"},"'}, {"example_uid": "\\},\\"},
                                      {"extra": {"a": [1, {}], "b": None}}],
                             ids=["comma-brace", "quoted", "backslashes", "nested"])
    def test_comma_brace_after_the_last_annotation_starts(self, tmp_path, monkeypatch, last):
        path = tmp_path / "gt.json"
        annotations = self.write(path, last)
        assert self.decoded(monkeypatch, path) == [*annotations, GT_TAXONOMY]
        for chunk in (1, 2, 3, 7, 64, io_formats._CHUNK):
            monkeypatch.setattr(io_formats, "_CHUNK", chunk)
            assert gt_outcome(load_ground_truth, path) == gt_outcome(gt_read_whole, path), chunk

    def test_objects_after_the_annotations(self, tmp_path):
        # The last "}," is in a list after the annotations, whose closing
        # bracket is then inside the values up to it: they are not all an
        # array holds, so they are decoded one at a time.
        annotations = gt_entries(np.random.default_rng(5), 4)
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"annotations": annotations, "future": [{"a": 1}, {"b": 2}], "taxonomy": GT_TAXONOMY}))
        walked = gt_outcome(load_ground_truth, path)
        assert walked == gt_outcome(gt_read_whole, path)
        assert [message for _, message in walked[1]] == [f"{path}: ignoring unknown fields ['future']"]

    def test_mixed_elements_read_as_the_whole_document(self, tmp_path, monkeypatch):
        annotations = gt_entries(np.random.default_rng(4), 12, unknown=True)
        annotations[3:3] = [5, [{"a": 1}], None, "},", {"example_uid": "},", "box": {"a": {}}}]
        path = tmp_path / "gt.json"
        for text in (json.dumps({"annotations": annotations, "taxonomy": GT_TAXONOMY}, indent=2),
                     json.dumps({"annotations": annotations, "taxonomy": GT_TAXONOMY}, separators=(",", ":"))):
            path.write_text(text)
            for chunk in (1, 2, 3, 7, 64, io_formats._CHUNK):
                monkeypatch.setattr(io_formats, "_CHUNK", chunk)
                walked = gt_outcome(load_ground_truth, path)
                assert walked == gt_outcome(gt_read_whole, path), chunk
                assert walked[0][0] is ValidationError and len(walked[1]) == 3


class TestEntryFieldCount:
    """An entry has no unknown field when the entries have as many fields
    in all as the known fields they hold, which the reader counts only
    while no entry has a problem; else every entry's fields are checked."""

    ENTRY = {"box": [0.0, 0.0, 1.0, 1.0], "noun_category_id": 0, "verb_category_id": 0, "time_to_contact": 1.0,
             "score": 0.5}

    def read(self, tmp_path, *entries) -> tuple:
        """What `load_predictions` makes of a submission of one example of
        the entries, which must be what the whole read makes of it."""
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"results": {"u": list(entries)}}))
        walked = outcome(load_predictions, path)
        assert walked == outcome(read_whole, path)
        return walked[0], [message.replace(f"{path}: ", "") for _, message in walked[1]]

    @staticmethod
    def column(result, name: str) -> bytes:
        """The bytes of one column of the one example's table."""
        [(_, columns)] = result
        return {column: data for column, _, _, data in columns}[name]

    def test_an_unknown_field_in_place_of_a_missing_one(self, tmp_path):
        entry = {**self.ENTRY, "scor": 0.5}
        del entry["score"]
        result, warned = self.read(tmp_path, self.ENTRY, entry)
        assert result[0] is ValidationError and len(result[1]) == 1
        assert warned == ["results['u'][1]: ignoring unknown fields ['scor']"]

    def test_a_null_source_next_to_an_unknown_field(self, tmp_path):
        result, warned = self.read(tmp_path, {**self.ENTRY, "source_id": None, "x": 1}, self.ENTRY)
        assert self.column(result, "has_source") == bytes(2)
        assert warned == ["results['u'][0]: ignoring unknown fields ['x']"]

    def test_sources_on_some_entries(self, tmp_path):
        entries = [{**self.ENTRY, "source_id": 1}, {**self.ENTRY, "x": [{}]}, {**self.ENTRY, "source_id": None},
                   self.ENTRY]
        result, warned = self.read(tmp_path, *entries)
        assert sorted(self.column(result, "has_source")) == [0, 0, 0, 1]
        assert warned == ["results['u'][1]: ignoring unknown fields ['x']"]

    @pytest.mark.parametrize("unknown", [False, True])
    def test_no_entry_with_a_source(self, tmp_path, unknown):
        entries = [self.ENTRY, {**self.ENTRY, "x": 1} if unknown else self.ENTRY]
        result, warned = self.read(tmp_path, *entries)
        assert (self.column(result, "has_source"), self.column(result, "source")) == (bytes(2), bytes(16))
        assert warned == (["results['u'][1]: ignoring unknown fields ['x']"] if unknown else [])


# -- generated documents: the walk against the whole read ---------------------

# Strings of a few pieces, some of which hold what ends an annotation in
# the text ("}," and '"},"'), so that a chunk's last "}," may be in one.
GENERATED_TEXT = st.lists(st.sampled_from(["a", "7", "\u00e9", "\U0001f600", '"', "\\", " ", "\n", "},", '"},"']),
                          max_size=4).map("".join)
WIDE_INTS = st.sampled_from([2**63, -(2**63) - 1, 2**70, -(2**70)])
BAD_VALUES = st.sampled_from([None, True, "x", "1", "0.5", [1], {"a": 1}, 2.5, float("nan"), float("inf"), 10**400])
IDS = st.one_of(st.integers(-1, 3), WIDE_INTS, BAD_VALUES)
FLOATS = st.one_of(st.floats(-1, 3), BAD_VALUES)
BOXES = st.one_of(st.lists(st.floats(-10, 500), min_size=4, max_size=4), st.lists(FLOATS, max_size=5), BAD_VALUES)


@st.composite
def valid_box(draw):
    x, y = draw(st.floats(0, 500)), draw(st.floats(0, 500))
    return [x, y, x + draw(st.floats(0.5, 50)), y + draw(st.floats(0.5, 50))]


# The value of an unknown field: a string, or objects and lists nested
# in it, whose closing braces are followed by commas in the text.
UNKNOWN_VALUES = st.recursive(GENERATED_TEXT, lambda inner: st.one_of(
    st.lists(inner, max_size=2), st.dictionaries(GENERATED_TEXT, inner, max_size=2)), max_leaves=4)


def generated_entry(fields: dict, valid: dict):
    """An entry of the fields, each valid or not, perhaps with an unknown
    field, or now and then a value that is not an object."""
    anything = st.fixed_dictionaries({}, optional={**fields, "comment": UNKNOWN_VALUES})
    return st.one_of(st.fixed_dictionaries(valid), st.fixed_dictionaries(valid, optional={"comment": UNKNOWN_VALUES}),
                     anything, BAD_VALUES)


GENERATED_ENTRY = generated_entry(
    {"box": BOXES, "noun_category_id": IDS, "verb_category_id": IDS, "time_to_contact": FLOATS,
     "score": FLOATS, "source_id": IDS},
    {"box": valid_box(), "noun_category_id": st.integers(0, 2), "verb_category_id": st.integers(0, 1),
     "time_to_contact": st.floats(0, 2), "score": st.floats(0.01, 1)})
GENERATED_ANNOTATION = generated_entry(
    {"example_uid": st.one_of(GENERATED_TEXT, BAD_VALUES), "box": BOXES, "noun_category_id": IDS,
     "verb_category_id": IDS, "time_to_contact": FLOATS},
    {"example_uid": GENERATED_TEXT.filter(bool), "box": valid_box(), "noun_category_id": st.integers(0, 2),
     "verb_category_id": st.integers(0, 1), "time_to_contact": st.floats(0, 2)})
HEADER_VALUES = st.one_of(st.none(), st.integers(), GENERATED_TEXT, st.lists(st.floats(), max_size=2), UNKNOWN_VALUES)
# Repeated branches weight `one_of` toward documents with a list to walk,
# so that many are read, or fail on their entries, across several batches.
SUBMISSIONS = st.builds(
    lambda header, results: {**header, **results},
    st.dictionaries(st.sampled_from(["version", "challenge", "provenance", "future", "nouns"]), HEADER_VALUES,
                    max_size=3),
    st.one_of(*[st.fixed_dictionaries({"results": st.dictionaries(
        GENERATED_TEXT, st.one_of(*[st.lists(GENERATED_ENTRY, max_size=4)] * 3, BAD_VALUES), max_size=4)})] * 3,
        st.fixed_dictionaries({}, optional={"results": BAD_VALUES})))
GROUND_TRUTHS = st.builds(
    lambda header, taxonomy, annotations: {**header, **taxonomy, **annotations},
    st.dictionaries(st.sampled_from(["provenance", "future", "results"]), HEADER_VALUES, max_size=2),
    st.one_of(*[st.just({"taxonomy": GT_TAXONOMY})] * 2, st.just({"taxonomy_path": "taxonomy.json"}),
              st.fixed_dictionaries({}, optional={
                  "taxonomy": st.sampled_from([{"nouns": "n0"}, {"nouns": ["n0", "n0"], "verbs": [1]}, None]),
                  "taxonomy_path": st.sampled_from([5, "missing.json", "taxonomy.json"])})),
    st.one_of(*[st.fixed_dictionaries({"annotations": st.lists(GENERATED_ANNOTATION, max_size=8)})] * 3,
              st.fixed_dictionaries({}, optional={"annotations": BAD_VALUES})))


@st.composite
def generated_bytes(draw, documents):
    """A document serialised compactly, indented by 2 spaces or by tabs,
    with LF or CRLF line ends, its keys in either order, escaped or not,
    between runs of outer whitespace (none in half of them), with 0-3
    bytes cut off its end (none in half of them). JSON text has no raw
    newline inside a string, so every newline is one of the layout's."""
    indent, sort_keys, ensure_ascii = draw(st.sampled_from([None, 2, "\t"])), draw(st.booleans()), draw(st.booleans())
    text = json.dumps(draw(documents), indent=indent, sort_keys=sort_keys,
                      separators=None if indent else (",", ":"), ensure_ascii=ensure_ascii)
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    outer = st.sampled_from(["", "", "", " ", "\n", "\r\n", "\t \r\n "])
    data = (draw(outer) + text + draw(outer)).encode("utf-8")
    return data[:len(data) - draw(st.sampled_from([0, 0, 0, 1, 2, 3]))]


CHUNKS = st.sampled_from([1, 2, 3, 7, 64, io_formats._CHUNK])


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("generated")
    (path / "taxonomy.json").write_text(json.dumps(GT_TAXONOMY))
    return path


def entry_warnings(path, data: bytes, kind: str) -> list[str]:
    """The warnings about the unknown fields of a document's entries, in
    file order, told from its parse alone: every object in `results`'
    lists or in `annotations` with a field other than its known ones. A
    reader gives them once it knows the document is of its kind and, of a
    ground truth, the taxonomy; else none."""
    try:
        doc = json.loads(data)
    except ValueError:
        return []
    if kind == "submission":
        known = {"box", "noun_category_id", "verb_category_id", "time_to_contact", "score", "source_id"}
        if not (isinstance(doc, dict) and isinstance(doc.get("results"), dict)):
            return []
        lists = [(f"results[{uid!r}][", "]", entries) for uid, entries in doc["results"].items()
                 if isinstance(entries, list)]
    else:
        known = {"example_uid", "box", "noun_category_id", "verb_category_id", "time_to_contact"}
        if not (isinstance(doc, dict) and isinstance(doc.get("annotations"), list)):
            return []
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                io_formats._ground_truth_taxonomy(doc, path)
        except (ValidationError, OSError):
            return []
        lists = [("annotation ", "", doc["annotations"])]
    return [f"{path}: {before}{i}{after}: ignoring unknown fields {sorted(set(entry) - known)}"
            for before, after, entries in lists for i, entry in enumerate(entries)
            if isinstance(entry, dict) and not known.issuperset(entry)]


def piped_outcome(read, data: bytes, path):
    """What `outcome` gives of the bytes read through a pipe, with the
    pipe's name in its messages replaced by path."""
    assert len(data) < 16384  # it fits in the pipe's buffer
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    try:
        piped = f"/dev/fd/{read_end}"
        result, caught = outcome(read, piped)
    finally:
        os.close(read_end)
    if isinstance(result, tuple):  # the problems
        result = (result[0], [problem.replace(piped, str(path)) for problem in result[1]])
    return result, [(category, message.replace(piped, str(path))) for category, message in caught]


class TestGeneratedDocuments:
    """Whatever the document, however it is written and cut, and whatever
    the chunk, a loader gives what the parsed-whole reader gives of the
    whole parse: the same tables bit for bit, or the same problems, and
    the same warnings in order, and a submission through a pipe what it
    gives of the file. The two readers share the reader of the entries,
    so its warnings about unknown fields are also held to the parse."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=generated_bytes(SUBMISSIONS), chunk=CHUNKS)
    def test_submissions(self, generated_dir, data, chunk):
        path = generated_dir / "sub.json"
        path.write_bytes(data)
        with mock.patch.object(io_formats, "_CHUNK", chunk):
            walked = outcome(load_predictions, path)
            assert walked == outcome(read_whole, path), data
            if os.path.isdir("/dev/fd"):
                assert piped_outcome(load_predictions, data, path) == walked, data
        assert [message for _, message in walked[1] if not message.startswith(f"{path}: ignoring")] == (
            entry_warnings(path, data, "submission")), data

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=generated_bytes(GROUND_TRUTHS), chunk=CHUNKS)
    def test_ground_truths(self, generated_dir, data, chunk):
        path = generated_dir / "gt.json"
        path.write_bytes(data)
        with mock.patch.object(io_formats, "_CHUNK", chunk):
            walked = gt_outcome(load_ground_truth, path)
            assert walked == gt_outcome(gt_read_whole, path), data
        assert [message for _, message in walked[1] if not message.startswith(f"{path}: ignoring")] == (
            entry_warnings(path, data, "ground truth")), data


# A uid's entries drawn from a few values, so that most are full ties,
# rows told apart by their source id alone (none, -1 or 3).
TIED_ENTRY = st.builds(lambda noun, score, source: entry(noun_category_id=noun, score=score, **(
    {} if source is None else {"source_id": source})), st.sampled_from([0, 1]), st.sampled_from([0.5, 0.25]),
    st.sampled_from([None, -1, 3]))
TIED_RESULTS = st.dictionaries(st.sampled_from(["a", "b", "c"]), st.lists(TIED_ENTRY, max_size=6), max_size=3)


@st.composite
def permuted_sources(draw):
    """Two submissions' results, and the same with each uid's entries in
    another order."""
    sources = [draw(TIED_RESULTS), draw(TIED_RESULTS)]
    return sources, [{uid: draw(st.permutations(entries)) for uid, entries in results.items()}
                     for results in sources]


class TestEntryOrder:
    """Whatever the order of each uid's entries in the files, vista writes
    the same bytes: of each submission as loaded and written, of the
    ensemble of both and of the report on the first."""

    def outputs(self, root: Path, sources: list[dict]) -> list[bytes]:
        root.mkdir()
        names = []
        for s, results in enumerate(sources):
            names.append(str(root / f"source_{s}.json"))
            Path(names[-1]).write_text(json.dumps({"results": results}))
            write_submission(load_predictions(names[-1]), root / f"written_{s}.json")
        annotations = [{"example_uid": uid, "box": [0, 0, 10, 10], "noun_category_id": 1, "verb_category_id": 0,
                        "time_to_contact": 0.5} for uid in "abc"]
        (root / "gt.json").write_text(json.dumps({"taxonomy": GT_TAXONOMY, "annotations": annotations}))
        with redirect_stdout(io.StringIO()):
            assert main(["ensemble", *names, "--out", str(root)]) == EXIT_OK
            assert main(["evaluate", str(root / "gt.json"), names[0], "--out", str(root)]) == EXIT_OK
        return [(root / name).read_bytes().replace(str(root).encode(), b"<root>")
                for name in ("written_0.json", "written_1.json", "ensemble.json", "report.json")]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=permuted_sources())
    @example(pair=([{"a": [entry(source_id=3), entry(), entry(source_id=-1)]}, {}],
                   [{"a": [entry(source_id=-1), entry(), entry(source_id=3)]}, {}]))
    def test_same_bytes_in_any_entry_order(self, pair):
        with tempfile.TemporaryDirectory() as tmp:
            written, permuted = (self.outputs(Path(tmp) / name, sources) for name, sources in zip("wp", pair))
            assert permuted == written, pair


def read_at_depth(load, path, frames: int):
    """What load(path) makes of a file when called `frames` frames deeper
    than here: "read", or the problems it raises."""
    if frames:
        return read_at_depth(load, path, frames - 1)
    try:
        load(path)
    except ValidationError as e:
        return e.problems
    return "read"


class TestNestingLimit:
    """How deeply a file may nest does not depend on how deep in the stack
    it is read. The json scanner counts the caller's frames against the
    recursion limit, so a file too deep for them is parsed again on a
    fresh thread, whose verdict holds."""

    @pytest.mark.parametrize("load", [load_predictions, load_ground_truth])
    def test_same_verdict_at_two_stack_depths(self, tmp_path, load):
        path = tmp_path / "doc.json"
        fields = ('"results": {}' if load is load_predictions
                  else '"taxonomy": {"nouns": ["n"], "verbs": ["v"]}, "annotations": []')

        def verdict(nesting: int, frames: int):
            path.write_text(f'{{{fields}, "provenance": {"[" * nesting}{"]" * nesting}}}')
            return read_at_depth(load, path, frames)

        lo, hi = 1, 1 << 16  # the shallowest nesting refused when read from here
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if verdict(mid, 0) == "read" else (lo, mid)
        assert verdict(lo, 0) == [f"{path}: invalid JSON: nested too deeply to parse"]
        for nesting in range(lo - 40, lo + 41, 4):
            assert verdict(nesting, 300) == verdict(nesting, 0), nesting


class TestTensorContainer:
    def test_round_trip(self, tmp_path):
        from vista.io_formats import write_tensor_file

        path = tmp_path / "t.vstf"
        tensors = {
            "a": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": np.float32([1.5]),
        }
        write_tensor_file(tensors, path)
        loaded = read_tensor_file(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], tensors["a"])

    def test_byte_identical_round_trip(self, tmp_path):
        from vista.io_formats import write_tensor_file

        rng = CounterRng(3)
        tensors = {
            f"t{i}": np.array([rng.gaussian() for _ in range(12)], dtype=np.float32).reshape(3, 4)
            for i in range(5)
        }
        p1 = tmp_path / "a.vstf"
        p2 = tmp_path / "b.vstf"
        write_tensor_file(tensors, p1)
        write_tensor_file(read_tensor_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_map_is_valid(self, tmp_path):
        from vista.io_formats import write_tensor_file

        path = tmp_path / "empty.vstf"
        write_tensor_file({}, path)
        assert read_tensor_file(path) == {}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vstf"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(ValidationError):
            read_tensor_file(path)

    def test_truncated_payload(self, tmp_path):
        from vista.io_formats import write_tensor_file

        path = tmp_path / "t.vstf"
        write_tensor_file({"a": np.ones((4, 4), dtype=np.float32)}, path)
        truncated = tmp_path / "trunc.vstf"
        truncated.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValidationError):
            read_tensor_file(truncated)

    def test_nan_payload_rejected(self, tmp_path):
        from vista.io_formats import write_tensor_file

        path = tmp_path / "t.vstf"
        with pytest.raises(ValidationError):
            write_tensor_file({"a": np.array([np.nan], dtype=np.float32)}, path)
        # forge a NaN payload on disk
        write_tensor_file({"a": np.zeros(1, dtype=np.float32)}, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError):
            read_tensor_file(path)

    def test_each_tensor_is_a_read_only_array_of_its_own(self, tmp_path):
        from vista.io_formats import write_tensor_file

        path = tmp_path / "t.vstf"
        write_tensor_file({"a": np.ones((2, 3)), "b": np.zeros(4)}, path)
        loaded = read_tensor_file(path)

        # each tensor was read into a buffer of its own, not a view of the file's bytes
        assert not np.shares_memory(loaded["a"], loaded["b"])
        for arr in loaded.values():
            assert arr.dtype == np.float32
            assert not arr.flags.writeable
            assert not isinstance(arr.base, bytes) and arr.base.base is None

    def test_non_utf8_tensor_name(self, tmp_path):
        path = tmp_path / "t.vstf"
        path.write_bytes(vstf_record(b"\xffa", [1.0]))
        with pytest.raises(ValidationError, match="not UTF-8"):
            read_tensor_file(path)

    @pytest.mark.parametrize("dims", [(0, 2**62), (2**32, 2**32, 0)])
    def test_empty_tensor_with_dims_numpy_cannot_hold(self, tmp_path, dims):
        import struct

        path = tmp_path / "t.vstf"
        path.write_bytes(b"VSTF" + struct.pack("<II", 1, 1) + b"t" + struct.pack("<I", len(dims))
                         + struct.pack(f"<{len(dims)}Q", *dims))
        with pytest.raises(ValidationError, match=rf"tensor 't' has dims \({dims[0]}, .*numpy cannot hold"):
            read_tensor_file(path)

    def test_duplicate_tensor_name(self, tmp_path):
        path = tmp_path / "t.vstf"
        path.write_bytes(vstf_record(b"score", [1.0]) + vstf_record(b"score", [2.0])[8:])
        with pytest.raises(ValidationError, match="duplicate tensor name 'score'"):
            read_tensor_file(path)

    def test_non_finite_tensor_before_a_truncation_reported_alone(self, tmp_path):
        path = tmp_path / "t.vstf"
        blob = vstf_record(b"a", [1.0, float("nan")]) + vstf_record(b"b", [2.0, 3.0])[8:]
        path.write_bytes(blob[:-3])
        with pytest.raises(ValidationError) as err:
            read_tensor_file(path)
        assert err.value.problems == [f"{path}: tensor 'a' contains non-finite values"]

    def test_structural_fault_before_a_non_finite_tensor_reported(self, tmp_path):
        path = tmp_path / "t.vstf"
        path.write_bytes(vstf_record(b"a", [1.0]) + vstf_record(b"a", [2.0])[8:]
                         + vstf_record(b"b", [float("inf")])[8:])
        with pytest.raises(ValidationError, match="duplicate tensor name 'a'"):
            read_tensor_file(path)

    def test_first_non_finite_tensor_in_file_order_reported(self, tmp_path):
        path = tmp_path / "t.vstf"
        path.write_bytes(vstf_record(b"z", [float("inf")]) + vstf_record(b"a", [float("nan")])[8:])
        with pytest.raises(ValidationError) as err:
            read_tensor_file(path)
        assert err.value.problems == [f"{path}: tensor 'z' contains non-finite values"]


def vstf_record(name: bytes, values) -> bytes:
    """A version-1 container holding one rank-1 tensor, built byte by byte."""
    import struct

    data = np.asarray(values, dtype="<f4")
    return (
        b"VSTF" + struct.pack("<I", 1) + struct.pack("<I", len(name)) + name
        + struct.pack("<I", 1) + struct.pack("<Q", len(data)) + data.tobytes()
    )
