"""Command-line entry point: `vista <subcommand>`.

Subcommands: evaluate, postprocess, ensemble, synth, plan, fuse,
validate. Each setting's flag, config key and default come from the
signature of the class or function it configures. A JSON config file
(--config) supplies defaults; explicit flags override it. Exit codes:
0 success, 1 I/O error, 2 validation error, 3 internal error. Outputs
are deterministic given config + inputs; no timestamps are written.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
import traceback
import warnings
from pathlib import Path

from .ensemble import EnsembleConfig, ensemble_predictions
from .errors import ValidationError
from .evaluation import EvalConfig, evaluate, format_report_table
from .fusion import fuse_tensors
from .io_formats import (
    SubmissionFile,
    _dump_json,
    _load_json,
    load_ground_truth,
    load_predictions,
    load_taxonomy,
    read_document,
    read_tensor_file,
    tensor_file_bytes,
    write_ground_truth,
    write_submission,
)
from .postprocess import InferenceConfig, postprocess_container
from .sampling import plan_frames
from .synth import NoiseConfig, generate_scenario, perturb_to_predictions
from .types import as_gt_table

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


# The config keys (and so flags) whose names differ from the parameters
# they set.
_KEYS = {"ttc_max_error": "ttc_tol", "ttc_tolerance": "ttc_tol", "box_iou_min": "iou_min"}
# The defaulted parameters that are not settings: the command passes them.
_PASSED = {generate_scenario: ("seed",)}


def _parameters(callee) -> list[tuple[str, inspect.Parameter]]:
    """Each setting of `callee` with its config key: every defaulted
    parameter, except those in `_PASSED`."""
    return [(_KEYS.get(name, name), param)
            for name, param in inspect.signature(callee).parameters.items()
            if param.default is not param.empty and name not in _PASSED.get(callee, ())]


def _load_config(args) -> dict:
    """The JSON object at args.config ({} without one). Its keys must all
    be among the keys the command reads, and its `out` a string."""
    path, keys = args.config, args.config_keys
    if path is None:
        return {}
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    problems = [f"{path}: unknown config key {key!r} (known: {', '.join(keys)})"
                for key in doc if key not in keys]
    if "out" in keys and not isinstance(doc.get("out", ""), str):
        problems.append(f"{path}: out must be a string, got {doc['out']!r}")
    if problems:
        raise ValidationError(problems)
    return doc


def _settings(args, config: dict, callee) -> dict:
    """The settings of `callee` given by a flag or the config file, by
    parameter name. A flag beats the config file; a setting neither gives
    is left to `callee`'s own default."""
    given = {}
    for key, param in _parameters(callee):
        flag = getattr(args, key)
        if flag is not None:
            given[param.name] = flag
        elif key in config:
            given[param.name] = config[key]
    return given


def _out_dir(args, config) -> Path:
    out = Path(args.out if args.out is not None else config.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    cfg = EvalConfig(**_settings(args, config, EvalConfig))
    taxonomy, gts = load_ground_truth(args.ground_truth)
    with SubmissionFile(args.predictions, taxonomy) as preds:
        report = evaluate(preds, gts, cfg)
    out = _out_dir(args, config)
    doc = report.to_dict()
    doc["provenance"] = {
        "ground_truth": str(args.ground_truth),
        "predictions": str(args.predictions),
        "config": dataclasses.asdict(cfg),
    }
    _dump_json(doc, out / "report.json")
    table = format_report_table(report)
    (out / "report.txt").write_text(table + "\n")
    print(table)
    return EXIT_OK


def cmd_postprocess(args) -> int:
    config = _load_config(args)
    cfg = InferenceConfig(**_settings(args, config, InferenceConfig))
    taxonomy = load_taxonomy(args.taxonomy)
    preds = postprocess_container(args.head_outputs, taxonomy, cfg)
    out = _out_dir(args, config)
    provenance = {"head_outputs": str(args.head_outputs), "taxonomy": str(args.taxonomy),
                  "config": dataclasses.asdict(cfg)}
    write_submission(preds, out / "submission.json", provenance=provenance)
    print(out / "submission.json")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    config = _load_config(args)
    cfg = EnsembleConfig(**_settings(args, config, EnsembleConfig))
    taxonomy = load_taxonomy(args.taxonomy) if args.taxonomy else None
    merged = ensemble_predictions([load_predictions(path, taxonomy) for path in args.predictions], cfg)
    out = _out_dir(args, config)
    provenance = {"inputs": [str(p) for p in args.predictions],
                  "config": {**dataclasses.asdict(cfg), "n_sources": len(args.predictions)}}
    write_submission(merged, out / "ensemble.json", provenance=provenance)
    print(out / "ensemble.json")
    return EXIT_OK


def cmd_synth(args) -> int:
    config = _load_config(args)
    noise = NoiseConfig(**_settings(args, config, NoiseConfig))
    taxonomy, gts = generate_scenario(seed=noise.seed, **_settings(args, config, generate_scenario))
    sources = perturb_to_predictions(taxonomy, gts, noise, **_settings(args, config, perturb_to_predictions))
    out = _out_dir(args, config)
    write_ground_truth(taxonomy, as_gt_table(gts), out / "ground_truth.json")
    for s, preds in enumerate(sources):
        write_submission(preds, out / f"predictions_source_{s:02d}.json")
    print(out / "ground_truth.json")
    return EXIT_OK


def cmd_plan(args) -> int:
    config = _load_config(args)
    times = plan_frames(query_time=args.time, **_settings(args, config, plan_frames))
    print(" ".join(f"{t:g}" for t in times))
    return EXIT_OK


def cmd_fuse(args) -> int:
    config = _load_config(args)
    fused = tensor_file_bytes(fuse_tensors(read_tensor_file(args.tensors)))
    out = _out_dir(args, config)
    (out / "fused.vstf").write_bytes(fused)
    print(out / "fused.vstf")
    return EXIT_OK


def cmd_validate(args) -> int:
    path = Path(args.path)
    kind, value = read_document(path)
    counts = {
        "tensor container": lambda: f"{len(value)} tensors",
        "submission": lambda: "{} examples, {} hypotheses".format(*value),
        "ground truth": lambda: f"{len(value[1])} annotations",
        "taxonomy": lambda: f"{value.n_nouns} nouns / {value.n_verbs} verbs",
    }[kind]()
    print(f"{path}: valid {kind}, {counts}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vista", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def configurable(p, func, *callees, writes=True):
        """Add a flag for each setting of the callees, then --out if the
        command writes files, then --config, which may set the same keys."""
        keys = []
        for callee in callees:
            for key, param in _parameters(callee):
                sets = "" if key == param.name else f"sets {param.name} "
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type={"int": int, "float": float}[param.annotation],
                               help=f"{sets}(default: {param.default})")
                keys.append(key)
        if writes:
            p.add_argument("--out", help="output directory (default: current directory)")
            keys.append("out")
        p.add_argument("--config", help="JSON config file providing flag defaults")
        p.set_defaults(func=func, config_keys=tuple(keys))

    p = sub.add_parser("evaluate", help="score a submission against ground truth")
    p.add_argument("ground_truth")
    p.add_argument("predictions")
    configurable(p, cmd_evaluate, EvalConfig)

    p = sub.add_parser("postprocess", help="head outputs -> ranked submission")
    p.add_argument("head_outputs", help="tensor container with proposal head outputs")
    p.add_argument("taxonomy")
    configurable(p, cmd_postprocess, InferenceConfig)

    p = sub.add_parser("ensemble", help="merge several prediction sets")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--taxonomy")
    configurable(p, cmd_ensemble, EnsembleConfig)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    configurable(p, cmd_synth, NoiseConfig, generate_scenario, perturb_to_predictions)

    p = sub.add_parser("plan", help="observed-frame timestamps for a query time")
    p.add_argument("--time", type=float, required=True)
    configurable(p, cmd_plan, plan_frames, writes=False)

    p = sub.add_parser("fuse", help="fuse the temporal token into fpn and rois, all read from a container")
    p.add_argument("tensors")
    configurable(p, cmd_fuse)

    p = sub.add_parser("validate", help="check a toolkit file for well-formedness")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as its message alone, not the line of vista that
    issued it."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # restores `showwarning` on the way out
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ValidationError, UserWarning) as e:  # a UserWarning here is one the user's filters made an error
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
