"""Seeded input shards for the three benchmark workloads and the CLI job
that runs on each shard.

A shard is one job's input: a directory of files the `vista` CLI reads.
Shards are generated from a fixed base seed and a shard index, so every
shard in a workload's pool has committed golden digests (golden.json).
Generated shards are cached on disk under a directory named after the
generator version; bump GENERATOR_VERSION whenever a generator changes.

Workloads (per job):

- pipeline: two head-output VSTF containers ("sources") of 32 examples,
  each with 300 proposals, 128 nouns, 81 verbs and box_deltas of shape
  (300, 128, 4). Job: postprocess each source, ensemble the two, evaluate
  at top-5 against 4 ground truths per example. Logits are drawn at a
  realistic scale (standard deviation 1.5, a +4 bump on the true class),
  so no logit gap comes near the ~745 that makes softmax underflow. The
  benchmark does not exercise that defect; it is still present and is
  covered by the program's own tests.
- merge: five JSON submissions of 64 examples x 100 hypotheses, noisy
  `vista.synth` views of one shared hypothesis set plus per-source
  distractors, so most ensemble groups have several members. Job:
  ensemble, then evaluate at top-5.
- score: one ground truth of 1,000 examples x 8 annotations and one
  submission of ~100 hypotheses per example pooled from 14 noisy
  `vista.synth` views. Job: evaluate --top-k 100.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 1
BASE_SEED = 20260
N_NOUNS = 128
N_VERBS = 81
CANVAS_W = 1920.0
CANVAS_H = 1080.0

SALT = {"pipeline": 1, "merge": 2, "score": 3}


def shard_seed(workload: str, shard: int) -> int:
    return BASE_SEED + 1000 * SALT[workload] + shard


# -- file writers (the formats the CLI reads, written without vista) --------

def dump_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_vstf(tensors: dict[str, np.ndarray], path: Path) -> None:
    """Write the VSTF v1 container: magic, version, then named float32 tensors."""
    with open(path, "wb") as f:
        f.write(b"VSTF" + struct.pack("<I", 1))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)) + encoded + struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes())


def taxonomy_doc() -> dict:
    return {
        "nouns": [f"noun_{i:03d}" for i in range(N_NOUNS)],
        "verbs": [f"verb_{i:03d}" for i in range(N_VERBS)],
    }


def _gt_doc(annotations: list[dict]) -> dict:
    return {"taxonomy": taxonomy_doc(), "annotations": annotations}


def _entry(box, noun, verb, ttc, score, source=None) -> dict:
    entry = {
        "box": [float(v) for v in box],
        "noun_category_id": int(noun),
        "verb_category_id": int(verb),
        "time_to_contact": float(ttc),
        "score": float(score),
    }
    if source is not None:
        entry["source_id"] = int(source)
    return entry


def _submission_doc(results: dict[str, list[dict]]) -> dict:
    return {"version": "1.0", "challenge": "ego4d_sta", "results": results}


# -- pipeline ----------------------------------------------------------------

def _random_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(40.0, 400.0, n)
    h = rng.uniform(40.0, 300.0, n)
    x1 = rng.uniform(0.0, CANVAS_W - w)
    y1 = rng.uniform(0.0, CANVAS_H - h)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def _head_outputs(rng, gt_boxes, gt_nouns, gt_verbs, gt_ttcs, n_props, n_nouns, n_verbs):
    """Head tensors for one example: a quarter of the proposals sit near a
    ground truth and favour its noun and verb; the rest are background."""
    n_near = n_props // 4
    which = rng.integers(0, len(gt_boxes), n_near)
    near = gt_boxes[which]
    size = np.repeat(near[:, 2:] - near[:, :2], 2, axis=1)
    near = near + rng.normal(0.0, 0.08, (n_near, 4)) * size
    near = np.concatenate([np.minimum(near[:, :2], near[:, 2:] - 1.0), near[:, 2:]], axis=1)
    boxes = np.concatenate([near, _random_boxes(rng, n_props - n_near)])

    noun_logits = rng.normal(0.0, 1.5, (n_props, n_nouns))
    verb_logits = rng.normal(0.0, 1.5, (n_props, n_verbs))
    noun_logits[np.arange(n_near), gt_nouns[which]] += 4.0
    verb_logits[np.arange(n_near), gt_verbs[which]] += 3.0
    objectness = np.concatenate([rng.uniform(0.5, 0.99, n_near), rng.uniform(0.02, 0.9, n_props - n_near)])
    # Inverse softplus of the true TTC, so near proposals predict it roughly.
    ttc_near = np.log(np.expm1(gt_ttcs[which])) + rng.normal(0.0, 0.2, n_near)
    ttc_raw = np.concatenate([ttc_near, rng.normal(0.0, 1.0, n_props - n_near)])
    return {
        "proposal_boxes": boxes,
        "objectness": objectness,
        "noun_logits": noun_logits,
        "verb_logits": verb_logits,
        "box_deltas": rng.normal(0.0, 0.05, (n_props, n_nouns, 4)),
        "ttc_raw": ttc_raw,
        "quality": rng.uniform(0.1, 0.99, n_props),
    }


def make_pipeline(out: Path, seed: int, n_examples=32, n_props=300, n_sources=2, gts_per_example=4):
    rng = np.random.default_rng(seed)
    annotations = []
    gts = []
    for ex in range(n_examples):
        uid = f"ex_{ex:04d}"
        boxes = _random_boxes(rng, gts_per_example)
        nouns = rng.integers(0, N_NOUNS, gts_per_example)
        verbs = rng.integers(0, N_VERBS, gts_per_example)
        ttcs = rng.uniform(0.1, 3.0, gts_per_example)
        gts.append((uid, boxes, nouns, verbs, ttcs))
        annotations += [
            {
                "example_uid": uid,
                "box": [float(v) for v in boxes[i]],
                "noun_category_id": int(nouns[i]),
                "verb_category_id": int(verbs[i]),
                "time_to_contact": float(ttcs[i]),
            }
            for i in range(gts_per_example)
        ]
    dump_json(taxonomy_doc(), out / "taxonomy.json")
    dump_json(_gt_doc(annotations), out / "ground_truth.json")
    for s in range(n_sources):
        tensors = {}
        for uid, boxes, nouns, verbs, ttcs in gts:
            heads = _head_outputs(rng, boxes, nouns, verbs, ttcs, n_props, N_NOUNS, N_VERBS)
            tensors.update({f"{uid}/{name}": arr for name, arr in heads.items()})
        write_vstf(tensors, out / f"head_{s}.vstf")


def pipeline_job(shard_dir: str, out_dir: str, n_sources=2) -> list[list[str]]:
    argv = []
    for s in range(n_sources):
        argv.append(["postprocess", f"{shard_dir}/head_{s}.vstf", f"{shard_dir}/taxonomy.json",
                     "--out", f"{out_dir}/head_{s}"])
    argv.append(["ensemble", *(f"{out_dir}/head_{s}/submission.json" for s in range(n_sources)),
                 "--taxonomy", f"{shard_dir}/taxonomy.json", "--out", out_dir])
    argv.append(["evaluate", f"{shard_dir}/ground_truth.json", f"{out_dir}/ensemble.json",
                 "--out", out_dir])
    return argv


# -- merge and score (vista.synth views) ---------------------------------------

def _synth_entries(preds, source=None) -> dict[str, list[dict]]:
    return {
        uid: [_entry(h.box.corners(), h.noun_id, h.verb_id, h.ttc, h.score, source) for h in hyps]
        for uid, hyps in preds.items()
    }


def make_merge(out: Path, seed: int, n_examples=64, per_source=100, shared=96, n_sources=5):
    from vista.synth import NoiseConfig, generate_scenario, perturb_to_predictions

    taxonomy, truth = generate_scenario(n_examples, N_NOUNS, N_VERBS, shared, seed)
    views = perturb_to_predictions(
        taxonomy, truth,
        NoiseConfig(box_jitter_sigma=4.0, label_flip_prob=0.02, verb_flip_prob=0.02,
                    ttc_noise_sigma=0.05, drop_prob=0.1, seed=seed),
        n_sources,
    )
    dump_json(taxonomy_doc(), out / "taxonomy.json")
    dump_json(_gt_doc(_gt_annotations(truth)), out / "ground_truth.json")
    for s, view in enumerate(views):
        # Distractors: a different scenario per source, so they group with
        # nothing. A view keeps ~90% of the shared set, so per_source - 0.7 *
        # shared candidates always fill a source up to per_source.
        spare = per_source - int(0.7 * shared)
        _, noise_truth = generate_scenario(n_examples, N_NOUNS, N_VERBS, spare, seed + 7919 * (s + 1))
        distractors = perturb_to_predictions(
            taxonomy, noise_truth, NoiseConfig(box_jitter_sigma=30.0, ttc_noise_sigma=0.5, seed=seed + s),
        )[0]
        results = _synth_entries(view, s)
        for uid, hyps in _synth_entries(distractors, s).items():
            mine = results.setdefault(uid, [])
            mine += hyps[: per_source - len(mine)]
        dump_json(_submission_doc(results), out / f"source_{s}.json")


def merge_job(shard_dir: str, out_dir: str, n_sources=5) -> list[list[str]]:
    return [
        ["ensemble", *(f"{shard_dir}/source_{s}.json" for s in range(n_sources)),
         "--taxonomy", f"{shard_dir}/taxonomy.json", "--out", out_dir],
        ["evaluate", f"{shard_dir}/ground_truth.json", f"{out_dir}/ensemble.json", "--out", out_dir],
    ]


def make_score(out: Path, seed: int, n_examples=1000, gts_per_example=8, n_views=14):
    dump_json(taxonomy_doc(), out / "taxonomy.json")
    gts, preds = score_instance(seed, n_examples, gts_per_example, n_views)
    dump_json(_gt_doc(_gt_annotations(gts)), out / "ground_truth.json")
    dump_json(_submission_doc(_synth_entries(preds)), out / "submission.json")


def score_instance(seed: int, n_examples=1000, gts_per_example=8, n_views=14):
    """Ground truth and pooled predictions of the score workload. Every draw
    depends on the example and annotation index only, so a smaller
    n_examples gives exactly the leading examples of the full shard."""
    from vista.synth import NoiseConfig, generate_scenario, perturb_to_predictions

    taxonomy, gts = generate_scenario(n_examples, N_NOUNS, N_VERBS, gts_per_example, seed)
    views = perturb_to_predictions(
        taxonomy, gts,
        NoiseConfig(box_jitter_sigma=25.0, label_flip_prob=0.15, verb_flip_prob=0.25,
                    ttc_noise_sigma=0.3, drop_prob=0.1, seed=seed),
        n_views,
    )
    pooled: dict = {}
    for view in views:
        for uid, hyps in view.items():
            pooled.setdefault(uid, []).extend(replace(h, source_id=None) for h in hyps)
    return gts, pooled


def score_job(shard_dir: str, out_dir: str) -> list[list[str]]:
    return [["evaluate", f"{shard_dir}/ground_truth.json", f"{shard_dir}/submission.json",
             "--top-k", "100", "--out", out_dir]]


def _gt_annotations(gts) -> list[dict]:
    return [
        {
            "example_uid": gt.example_uid,
            "box": list(gt.box.corners()),
            "noun_category_id": gt.noun_id,
            "verb_category_id": gt.verb_id,
            "time_to_contact": gt.ttc,
        }
        for gt in gts
    ]


# -- workload table ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    make: object          # (out_dir, seed) -> None
    job: object           # (shard_dir, out_dir) -> list of argv
    outputs: tuple        # output files, relative to the job's out dir
    examples: int         # examples per job
    pool: int             # shards with golden digests
    max_jobs: int         # cap on jobs in one timed pass


SPECS = {
    "pipeline": Workload(make_pipeline, pipeline_job,
                         ("head_0/submission.json", "head_1/submission.json", "ensemble.json", "report.json"),
                         32, 16, 14),
    "merge": Workload(make_merge, merge_job, ("ensemble.json", "report.json"), 64, 32, 28),
    "score": Workload(make_score, score_job, ("report.json",), 1000, 14, 12),
}
WORKLOADS = tuple(SPECS)


def pick_shards(workload: str, seed: int, count: int) -> list[int]:
    """A seeded sample of `count` distinct shards from the workload's pool."""
    pool = SPECS[workload].pool
    order = sorted(range(pool), key=lambda k: hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest())
    return order[:count]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def shard_rel(workload: str, shard: int) -> str:
    """Shard directory relative to the work directory."""
    return f"inputs/{workload}-g{GENERATOR_VERSION}/{shard:02d}"


def ensure_shard(work: Path, workload: str, shard: int) -> tuple[Path, bool]:
    """Generate the shard unless a complete cached copy exists.
    Returns the shard directory and whether it was generated now."""
    final = work / shard_rel(workload, shard)
    if (final / "DONE").exists():
        return final, False
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    SPECS[workload].make(tmp, shard_seed(workload, shard))
    (tmp / "DONE").write_text("")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final, True


def input_digests(shard_dir: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(shard_dir.iterdir()) if p.name != "DONE"}
