"""Command-line entry point: `vista <subcommand>`.

Subcommands: evaluate, postprocess, ensemble, synth, plan, fuse-demo,
validate. A JSON config file (--config) supplies defaults; explicit flags
override it. Exit codes: 0 success, 1 I/O error, 2 validation error,
3 internal error. Outputs are deterministic given config + inputs; no
timestamps are written.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import fusion
from .ensemble import EnsembleConfig, ensemble_predictions
from .errors import FormatError, ValidationError
from .evaluation import EvalConfig, evaluate, format_report_table
from .io_formats import (
    _dump_json,
    _load_json,
    load_ground_truth,
    load_predictions,
    load_taxonomy,
    read_tensor_file,
    write_ground_truth,
    write_submission,
)
from .postprocess import InferenceConfig, load_proposal_batches, run_inference_chain
from .rng import CounterRng
from .sampling import plan_frames
from .synth import NoiseConfig, generate_scenario, perturb_to_predictions

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


def _load_config(path, keys: tuple[str, ...]) -> dict:
    """The JSON object at path ({} without a path), whose keys must all be
    among the keys the command reads."""
    if path is None:
        return {}
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise ValidationError(
            [f"{path}: unknown config key {key!r} (known: {', '.join(keys)})" for key in unknown]
        )
    return doc


def _get(args, config: dict, key: str, default):
    """Flag (if given) beats config file beats built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _out_dir(args, config) -> Path:
    out = Path(_get(args, config, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_evaluate(args) -> int:
    config = _load_config(args.config, args.config_keys)
    cfg = EvalConfig(
        iou_min=_get(args, config, "iou_min", 0.5),
        ttc_max_error=_get(args, config, "ttc_tol", 0.25),
        top_k=_get(args, config, "top_k", 5),
    )
    taxonomy, gts = load_ground_truth(args.ground_truth)
    preds = load_predictions(args.predictions, taxonomy)
    report = evaluate(preds, gts, cfg, taxonomy)
    out = _out_dir(args, config)
    doc = report.to_dict()
    doc["provenance"] = {
        "ground_truth": str(args.ground_truth),
        "predictions": str(args.predictions),
        "config": {"iou_min": cfg.iou_min, "ttc_max_error": cfg.ttc_max_error, "top_k": cfg.top_k},
    }
    _dump_json(doc, out / "report.json")
    table = format_report_table(report)
    (out / "report.txt").write_text(table + "\n")
    print(table)
    return EXIT_OK


def cmd_postprocess(args) -> int:
    config = _load_config(args.config, args.config_keys)
    cfg = InferenceConfig(
        max_proposals=_get(args, config, "max_proposals", 300),
        k_noun=_get(args, config, "k_noun", 3),
        k_verb=_get(args, config, "k_verb", 3),
        nms_iou=_get(args, config, "nms_iou", 0.5),
        max_exports=_get(args, config, "max_exports", 100),
    )
    taxonomy = load_taxonomy(args.taxonomy)
    batches = load_proposal_batches(args.head_outputs, default_uid=Path(args.head_outputs).stem)
    preds = {uid: run_inference_chain(batch, taxonomy, cfg) for uid, batch in batches.items()}
    out = _out_dir(args, config)
    write_submission(
        preds,
        out / "submission.json",
        provenance={
            "head_outputs": str(args.head_outputs),
            "taxonomy": str(args.taxonomy),
            "config": {
                "max_proposals": cfg.max_proposals,
                "k_noun": cfg.k_noun,
                "k_verb": cfg.k_verb,
                "nms_iou": cfg.nms_iou,
                "max_exports": cfg.max_exports,
            },
        },
    )
    print(out / "submission.json")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    config = _load_config(args.config, args.config_keys)
    taxonomy = load_taxonomy(args.taxonomy) if args.taxonomy else None
    sources = [load_predictions(path, taxonomy) for path in args.predictions]
    cfg = EnsembleConfig(
        box_iou_min=_get(args, config, "iou_min", 0.5),
        ttc_tolerance=_get(args, config, "ttc_tol", 0.25),
        agreement_weight=_get(args, config, "agreement_weight", 0.5),
        n_sources=len(sources),
        max_exports=_get(args, config, "max_exports", 100),
    )
    merged = ensemble_predictions(sources, cfg)
    out = _out_dir(args, config)
    write_submission(
        merged,
        out / "ensemble.json",
        provenance={
            "inputs": [str(p) for p in args.predictions],
            "config": {
                "box_iou_min": cfg.box_iou_min,
                "ttc_tolerance": cfg.ttc_tolerance,
                "agreement_weight": cfg.agreement_weight,
                "n_sources": cfg.n_sources,
                "max_exports": cfg.max_exports,
            },
        },
    )
    print(out / "ensemble.json")
    return EXIT_OK


def cmd_synth(args) -> int:
    config = _load_config(args.config, args.config_keys)
    noise = NoiseConfig(
        box_jitter_sigma=_get(args, config, "box_jitter_sigma", 0.0),
        label_flip_prob=_get(args, config, "label_flip_prob", 0.0),
        verb_flip_prob=_get(args, config, "verb_flip_prob", 0.0),
        ttc_noise_sigma=_get(args, config, "ttc_noise_sigma", 0.0),
        drop_prob=_get(args, config, "drop_prob", 0.0),
        seed=_get(args, config, "seed", 0),
    )
    taxonomy, gts = generate_scenario(
        n_examples=_get(args, config, "n_examples", 10),
        n_nouns=_get(args, config, "n_nouns", 8),
        n_verbs=_get(args, config, "n_verbs", 6),
        gts_per_example=_get(args, config, "gts_per_example", 2),
        seed=noise.seed,
    )
    n_sources = _get(args, config, "n_sources", 1)
    sources = perturb_to_predictions(taxonomy, gts, noise, n_sources)
    out = _out_dir(args, config)
    write_ground_truth(taxonomy, gts, out / "ground_truth.json")
    for s, preds in enumerate(sources):
        write_submission(preds, out / f"predictions_source_{s:02d}.json")
    print(out / "ground_truth.json")
    return EXIT_OK


def cmd_plan(args) -> int:
    config = _load_config(args.config, args.config_keys)
    plan = plan_frames(
        query_time=args.time,
        frame_count=_get(args, config, "frame_count", 8),
        sample_rate=_get(args, config, "sample_rate", 2.0),
    )
    print(" ".join(f"{t:g}" for t in plan.frame_times))
    return EXIT_OK


def _demo_probe_params(rng: CounterRng, d_in: int) -> fusion.ProbeParams:
    return fusion.ProbeParams(
        key_proj=np.array([[rng.gaussian() for _ in range(d_in)] for _ in range(d_in)]),
        value_proj=np.array([[rng.gaussian() for _ in range(d_in)] for _ in range(d_in)]),
        query=np.array([rng.gaussian() for _ in range(d_in)]),
    )


def cmd_fuse_demo(args) -> int:
    tensors = read_tensor_file(args.tensors)
    if "seq" not in tensors:
        raise ValidationError(f"{args.tensors}: needs a 'seq' tensor of shape (T, D)")
    problems = [f"{args.tensors}: {name!r} must have shape ({dims}), got {tensors[name].shape}"
                for name, dims in (("seq", "T, D"), ("rois", "R, D_roi"), ("fpn", "C, H, W"))
                if name in tensors and tensors[name].ndim != len(dims.split(", "))]
    # The demo's stand-in parameters and its report need a non-empty seq and fpn.
    problems += [f"{args.tensors}: {name!r} must have no zero-length dimension, got {tensors[name].shape}"
                 for name in ("seq", "fpn") if name in tensors and 0 in tensors[name].shape]
    if problems:
        raise ValidationError(problems)
    seq = tensors["seq"]
    rois = tensors.get("rois", seq)
    t, d_in = seq.shape
    rng = CounterRng(int(args.seed or 0))
    if {"probe/key_proj", "probe/value_proj", "probe/query"} <= set(tensors):
        probe = fusion.ProbeParams(
            key_proj=tensors["probe/key_proj"],
            value_proj=tensors["probe/value_proj"],
            query=tensors["probe/query"],
        )
    else:
        probe = _demo_probe_params(rng, d_in)
    token, weights = fusion.attentive_probe(seq, probe)
    print("probe weights:", " ".join(f"{w:.6f}" for w in weights))

    fmap = tensors.get("fpn")
    if fmap is None:
        fmap = np.asarray(seq, dtype=np.float64).reshape(t, 1, d_in)
    c = fmap.shape[0]
    d_token = token.shape[0]
    identity = fusion.FilmParams(
        gamma_proj=np.zeros((d_token, c)),
        gamma_bias=np.ones(c),
        beta_proj=np.zeros((d_token, c)),
        beta_bias=np.zeros(c),
    )
    modulated = fusion.film_modulate(fmap, token, identity)
    print(f"film identity max |delta|: {np.max(np.abs(modulated - fmap)):g}")

    d_roi = rois.shape[1]
    zero_residual = fusion.ContextMlpParams(
        layer1_w=np.zeros((d_roi + d_token, d_roi)),
        layer1_b=np.zeros(d_roi),
        layer2_w=np.zeros((d_roi, d_roi)),
        layer2_b=np.zeros(d_roi),
        token_proj=np.eye(d_token),
        token_bias=np.zeros(d_token),
    )
    for i, roi in enumerate(rois):
        fused = fusion.roi_context_fuse(roi, token, zero_residual)
        print(f"fused roi {i} norm: {np.linalg.norm(fused):.6f}")
    return EXIT_OK


def cmd_validate(args) -> int:
    path = Path(args.path)
    head = path.read_bytes()[:4]
    if head == b"VSTF":
        tensors = read_tensor_file(path)
        print(f"{path}: valid tensor container, {len(tensors)} tensors")
        return EXIT_OK
    doc = _load_json(path)
    if isinstance(doc, dict) and "results" in doc:
        preds = load_predictions(path)
        n = sum(len(v) for v in preds.values())
        print(f"{path}: valid submission, {len(preds)} examples, {n} hypotheses")
    elif isinstance(doc, dict) and "annotations" in doc:
        _, gts = load_ground_truth(path)
        print(f"{path}: valid ground truth, {len(gts)} annotations")
    elif isinstance(doc, dict) and "nouns" in doc:
        taxonomy = load_taxonomy(path)
        print(f"{path}: valid taxonomy, {taxonomy.n_nouns} nouns / {taxonomy.n_verbs} verbs")
    else:
        raise ValidationError(f"{path}: unrecognized document type")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vista", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def configurable(p):
        """Add --config. A config may set what the flags added so far set,
        except the input flags --taxonomy and --time."""
        p.set_defaults(config_keys=tuple(
            action.dest for action in p._actions
            if action.option_strings and action.dest not in ("help", "taxonomy", "time")
        ))
        p.add_argument("--config", help="JSON config file providing flag defaults")

    def common(p):
        p.add_argument("--out", help="output directory (default: current directory)")
        configurable(p)

    p = sub.add_parser("evaluate", help="score a submission against ground truth")
    p.add_argument("ground_truth")
    p.add_argument("predictions")
    p.add_argument("--iou-min", dest="iou_min", type=float)
    p.add_argument("--ttc-tol", dest="ttc_tol", type=float)
    p.add_argument("--top-k", dest="top_k", type=int)
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("postprocess", help="head outputs -> ranked submission")
    p.add_argument("head_outputs", help="tensor container with proposal head outputs")
    p.add_argument("taxonomy")
    p.add_argument("--max-proposals", dest="max_proposals", type=int)
    p.add_argument("--k-noun", dest="k_noun", type=int)
    p.add_argument("--k-verb", dest="k_verb", type=int)
    p.add_argument("--nms-iou", dest="nms_iou", type=float)
    p.add_argument("--max-exports", dest="max_exports", type=int)
    common(p)
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("ensemble", help="merge several prediction sets")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--taxonomy")
    p.add_argument("--iou-min", dest="iou_min", type=float)
    p.add_argument("--ttc-tol", dest="ttc_tol", type=float)
    p.add_argument("--agreement-weight", dest="agreement_weight", type=float)
    p.add_argument("--max-exports", dest="max_exports", type=int)
    common(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-examples", dest="n_examples", type=int)
    p.add_argument("--n-nouns", dest="n_nouns", type=int)
    p.add_argument("--n-verbs", dest="n_verbs", type=int)
    p.add_argument("--gts-per-example", dest="gts_per_example", type=int)
    p.add_argument("--n-sources", dest="n_sources", type=int)
    p.add_argument("--box-jitter-sigma", dest="box_jitter_sigma", type=float)
    p.add_argument("--label-flip-prob", dest="label_flip_prob", type=float)
    p.add_argument("--verb-flip-prob", dest="verb_flip_prob", type=float)
    p.add_argument("--ttc-noise-sigma", dest="ttc_noise_sigma", type=float)
    p.add_argument("--drop-prob", dest="drop_prob", type=float)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plan", help="observed-frame timestamps for a query time")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--frame-count", dest="frame_count", type=int)
    p.add_argument("--sample-rate", dest="sample_rate", type=float)
    configurable(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("fuse-demo", help="run the fusion kernels on a tensor container")
    p.add_argument("tensors")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_fuse_demo)

    p = sub.add_parser("validate", help="check a toolkit file for well-formedness")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FormatError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
