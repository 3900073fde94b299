"""Pins the exact bytes `vista ensemble` and `vista evaluate` write.

The digests below were recorded with an earlier, per-object
implementation, since replaced by columnar tables: one StaHypothesis per
entry, grouping by repeated scans with a scalar per-pair compatibility
test (a `compatible` function that no longer exists), merged means
summed member by member with Python's `sum`, and four passes of scalar
matching. Any rewrite must reproduce them bit for bit. The inputs cover:

- full canonical-key ties across sources (the same entry in two files),
  so the seed of a group depends on the stable pooling order;
- entries without a source_id and entries with a negative one;
- groups of 9 to 12 members, where a pairwise summation of the member
  weights would change the last bit;
- the same hypothesis in two examples, matched in one and not in the
  other, so the order of full ties across examples moves the AP;
- top-k truncation of crowded examples and an export cap of 7.
"""

import hashlib
import json

import pytest

from vista.boxes import Box2D
from vista.cli import EXIT_OK, main
from vista.ensemble import group_hypotheses
from vista.rng import CounterRng
from vista.types import StaHypothesis, as_table

N_NOUNS = 6
N_VERBS = 4
N_EXAMPLES = 6
N_SOURCES = 3

GOLDEN = {
    "ensemble":
        "46cd91b735e7ad8ebc9688ada14963591f12d2ef4e50b817518b3a4e2af66199",
    "ensemble-export7":
        "e17853aef4d43b18c82e9fb873f7177be3b2f2820f0f18fa55d013726d6d020c",
    "evaluate-ensemble-top3":
        "feb188d68e37499d27261ccda0be90b63f6db92d6853cef8b72a58fadaf294b1",
    "evaluate-source0-top5":
        "3022b3df5c4c79aac5ef511baeb35e25c38fbda041d129684a4e4faa48b86908",
}


def entry(box, noun, verb, ttc, score, source=None):
    doc = {"box": box, "noun_category_id": noun, "verb_category_id": verb,
           "time_to_contact": ttc, "score": score}
    if source is not None:
        doc["source_id"] = source
    return doc


def jittered(rng, box, sigma):
    x1, y1, x2, y2 = (v + rng.gaussian(0, sigma) for v in box)
    return [min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)]


def source_id(s, k):
    """Source 0 never names itself, source 1 alternates between no id
    and -1, source 2 is 7."""
    if s == 0 or (s == 1 and k % 2 == 0):
        return None
    return -1 if s == 1 else 7


def make_inputs(rng):
    annotations = []
    results = [{} for _ in range(N_SOURCES)]
    for ex in range(N_EXAMPLES):
        uid = f"ex_{ex}"
        for g in range(3):
            w, h = rng.uniform(60, 200), rng.uniform(50, 150)
            x1, y1 = rng.uniform(0, 600), rng.uniform(0, 400)
            box = [x1, y1, x1 + w, y1 + h]
            noun, verb, ttc = rng.randint(N_NOUNS), rng.randint(N_VERBS), rng.uniform(0.2, 2.5)
            annotations.append({"example_uid": uid, "box": box, "noun_category_id": noun,
                                "verb_category_id": verb, "time_to_contact": ttc})
            # A crowd of 9 to 12 near-copies spread over the sources for the
            # first annotation of every example; 1 to 3 per source otherwise.
            per_source = [3 + rng.randint(2) for _ in range(N_SOURCES)] if g == 0 else [
                1 + rng.randint(3) for _ in range(N_SOURCES)
            ]
            for s, count in enumerate(per_source):
                for k in range(count):
                    flip = rng.uniform() < 0.15
                    results[s].setdefault(uid, []).append(entry(
                        jittered(rng, box, 1.5 if g == 0 else 6.0),
                        (noun + 1) % N_NOUNS if flip else noun,
                        verb if rng.uniform() < 0.8 else rng.randint(N_VERBS),
                        max(0.0, ttc + rng.gaussian(0, 0.05 if g == 0 else 0.2)),
                        rng.uniform(0.05, 1.0),
                        source_id(s, k),
                    ))
        # Background hypotheses that match nothing.
        for s in range(N_SOURCES):
            for _ in range(2):
                x1, y1 = rng.uniform(700, 900), rng.uniform(500, 700)
                results[s][uid].append(entry([x1, y1, x1 + 40, y1 + 30], rng.randint(N_NOUNS),
                                             rng.randint(N_VERBS), rng.uniform(0.2, 2.5),
                                             rng.uniform(0.01, 0.3), source_id(s, 0)))
    # Full ties across sources: source 1 repeats some of source 0's entries
    # exactly, under its own source ids.
    for uid, entries in results[0].items():
        for k, e in enumerate(entries[:4]):
            results[1][uid].append(dict(e, **({} if k % 2 else {"source_id": -1})))
    # The same hypothesis in two examples: a copy of ex_0's first
    # annotation, scored 0.99, in ex_0 (where it matches) and in ex_1
    # (where it does not).
    first = annotations[0]
    copy = entry(first["box"], first["noun_category_id"], first["verb_category_id"],
                 first["time_to_contact"], 0.99)
    for uid in ("ex_1", "ex_0"):
        results[0][uid].append(dict(copy))
    taxonomy = {"nouns": [f"n{i}" for i in range(N_NOUNS)], "verbs": [f"v{i}" for i in range(N_VERBS)]}
    ground_truth = {"taxonomy": taxonomy, "annotations": annotations}
    submissions = [{"version": "1.0", "challenge": "ego4d_sta", "results": r} for r in results]
    return taxonomy, ground_truth, submissions


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    # Relative paths keep the provenance blocks, and so the digests, fixed.
    monkeypatch.chdir(tmp_path)
    taxonomy, ground_truth, submissions = make_inputs(CounterRng(4242))
    (tmp_path / "taxonomy.json").write_text(json.dumps(taxonomy))
    (tmp_path / "gt.json").write_text(json.dumps(ground_truth))
    for s, doc in enumerate(submissions):
        (tmp_path / f"s{s}.json").write_text(json.dumps(doc))
    return tmp_path


SOURCES = [f"s{s}.json" for s in range(N_SOURCES)]
RUNS = {
    "ensemble": (["ensemble", *SOURCES, "--taxonomy", "taxonomy.json", "--out", "ens"],
                 "ens/ensemble.json"),
    "ensemble-export7": (["ensemble", *SOURCES, "--max-exports", "7", "--out", "ens7"],
                         "ens7/ensemble.json"),
    "evaluate-ensemble-top3": (["evaluate", "gt.json", "ens/ensemble.json", "--top-k", "3",
                                "--out", "ev3"], "ev3/report.json"),
    "evaluate-source0-top5": (["evaluate", "gt.json", "s0.json", "--out", "ev0"], "ev0/report.json"),
}


def digests(root) -> dict[str, str]:
    out = {}
    for name, (argv, output) in RUNS.items():
        assert main(argv) == EXIT_OK, name
        out[name] = hashlib.sha256((root / output).read_bytes()).hexdigest()
    return out


def test_inputs_cover_the_pinned_cases(inputs):
    docs = [json.loads((inputs / name).read_text())["results"] for name in SOURCES]
    assert {e.get("source_id") for doc in docs for es in doc.values() for e in es} == {None, -1, 7}

    def fields(e):
        return json.dumps([e["box"], e["noun_category_id"], e["verb_category_id"],
                           e["time_to_contact"], e["score"]])

    assert {fields(e) for e in docs[0]["ex_0"]} & {fields(e) for e in docs[1]["ex_0"]}
    pooled = [
        StaHypothesis(Box2D(*e["box"]), e["noun_category_id"], e["verb_category_id"],
                      e["time_to_contact"], e["score"], s)
        for s, doc in enumerate(docs) for e in doc["ex_0"]
    ]
    assert max(len(g.members) for g in group_hypotheses(as_table(pooled))) >= 8


def test_ensemble_and_report_bytes_are_pinned(inputs):
    assert digests(inputs) == GOLDEN


# Pinned runs with their settings in a config file: the same settings as
# the flags of RUNS give, and for evaluate a flag that beats a conflicting
# config value.
CONFIG_RUNS = {
    "ensemble-export7": (["ensemble", *SOURCES], {"max_exports": 7, "out": "ens7"}, "ens7/ensemble.json"),
    "evaluate-source0-top5": (["evaluate", "gt.json", "s0.json", "--top-k", "5"],
                              {"top_k": 3, "iou_min": 0.5, "ttc_tol": 0.25, "out": "ev0"},
                              "ev0/report.json"),
}


@pytest.mark.parametrize("name", list(CONFIG_RUNS))
def test_config_file_gives_the_pinned_bytes(inputs, name):
    argv, config, output = CONFIG_RUNS[name]
    (inputs / "config.json").write_text(json.dumps(config))
    assert main([*argv, "--config", "config.json"]) == EXIT_OK
    assert hashlib.sha256((inputs / output).read_bytes()).hexdigest() == GOLDEN[name]
