"""Span tracing at the toolkit's layer boundaries, and the per-layer
metrics computed from the spans.

The tracer replaces module attributes of `vista` with timing wrappers
from outside the package; nothing under src/ is edited. Per-pair
predicates (`iou`, `compatible`, `matches`, `canonical_key`) are never
wrapped: they run millions of times per job and a wrapper would cost
more than the work it times.
"""

from __future__ import annotations

import importlib
import os
import time

# (module, attribute, span name). sort_canonical is wrapped at every
# module's binding of it, so each caller's use is timed.
WRAPPED = (
    ("vista.cli", "cmd_postprocess", "cli"),
    ("vista.cli", "cmd_ensemble", "cli"),
    ("vista.cli", "cmd_evaluate", "cli"),
    ("vista.io_formats", "read_tensor_file", "io_formats.read_tensor"),
    ("vista.cli", "read_tensor_file", "io_formats.read_tensor"),
    ("vista.io_formats", "load_taxonomy", "io_formats.read_json"),
    ("vista.cli", "load_taxonomy", "io_formats.read_json"),
    ("vista.cli", "load_ground_truth", "io_formats.read_json"),
    ("vista.cli", "load_predictions", "io_formats.read_json"),
    ("vista.cli", "write_submission", "io_formats.write_json"),
    ("vista.postprocess", "proposals_from_tensors", "postprocess.decode"),
    ("vista.postprocess", "expand_hypotheses", "postprocess.expand"),
    ("vista.postprocess", "class_aware_nms", "postprocess.nms"),
    ("vista.postprocess", "finalize_submission", "postprocess.export"),
    ("vista.cli", "ensemble_predictions", "ensemble"),
    ("vista.ensemble", "group_hypotheses", "ensemble.group"),
    ("vista.ensemble", "merge_group", "ensemble.merge"),
    ("vista.cli", "evaluate", "evaluation"),
    ("vista.evaluation", "top_k_filter", "evaluation.topk"),
    ("vista.evaluation", "average_precision", "evaluation.ap"),
    ("vista.types", "sort_canonical", "types.sort_canonical"),
    ("vista.io_formats", "sort_canonical", "types.sort_canonical"),
    ("vista.postprocess", "sort_canonical", "types.sort_canonical"),
    ("vista.ensemble", "sort_canonical", "types.sort_canonical"),
    ("vista.evaluation", "sort_canonical", "types.sort_canonical"),
)


def _n_hyps(preds) -> int:
    return sum(len(v) for v in preds.values())


def _count(span_name: str, result, args) -> dict | None:
    """Counts at a boundary, taken from the call's return value (the
    written size for write_submission, which returns nothing)."""
    if span_name == "io_formats.read_tensor":
        return {"mb": sum(a.nbytes for a in result.values()) / 1e6}
    if span_name == "io_formats.read_json" and isinstance(result, dict):
        return {"hyps": _n_hyps(result)}
    if span_name == "io_formats.write_json":
        return {"hyps": _n_hyps(args[0]), "mb": os.path.getsize(args[1]) / 1e6}
    if span_name == "postprocess.decode":
        return {"proposals": len(result)}
    if span_name == "postprocess.expand":
        return {"hyps": len(result)}
    if span_name == "postprocess.nms":
        return {"in": len(args[0]), "kept": len(result)}
    if span_name == "postprocess.export":
        return {"kept": len(result)}
    if span_name == "ensemble.group":
        return {"groups": len(result), "hyps_in": sum(len(g.members) for g in result)}
    if span_name == "evaluation":
        overall = result.counts["overall"]
        return {"scored_preds": overall["matched"] + overall["unmatched_predictions"],
                "matched.overall": overall["matched"]}
    if span_name == "types.sort_canonical":
        return {"items": len(result)}
    return None


class Tracer:
    """Records spans [name, start, end, parent index, job id, counts] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def wrap(self, fn, span_name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()
            span[5] = _count(span_name, result, args)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


# Per-layer metrics: (name, unit, better, the end-to-end metric it should
# move and on which workload). BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("io_formats.read_tensor.s", "s", "lower", "peak_rss_mb, examples_per_s on pipeline"),
    ("io_formats.read_tensor.mb", "MB", "lower", "peak_rss_mb, examples_per_s on pipeline"),
    ("io_formats.read_json.s", "s", "lower", "examples_per_s on score and merge"),
    ("io_formats.read_json.hyps", "count", "lower", "examples_per_s on score and merge"),
    ("io_formats.write_json.s", "s", "lower", "examples_per_s on pipeline and merge; 0 on score"),
    ("io_formats.write_json.hyps", "count", "lower", "examples_per_s on pipeline and merge; 0 on score"),
    ("io_formats.write_json.mb", "MB", "lower", "examples_per_s on pipeline and merge; 0 on score"),
    ("postprocess.decode.s", "s", "lower", "examples_per_s, cpu_ms_per_example on pipeline"),
    ("postprocess.decode.proposals", "count", "lower", "examples_per_s on pipeline"),
    ("postprocess.expand.s", "s", "lower", "examples_per_s, cpu_ms_per_example on pipeline"),
    ("postprocess.expand.hyps", "count", "lower", "examples_per_s on pipeline"),
    ("postprocess.nms.s", "s", "lower", "examples_per_s, cpu_ms_per_example on pipeline"),
    ("postprocess.nms.kept", "count", "lower", "examples_per_s on pipeline"),
    ("postprocess.nms.keep_ratio", "fraction", "lower", "examples_per_s on pipeline"),
    ("postprocess.export.s", "s", "lower", "examples_per_s on pipeline"),
    ("postprocess.export.kept", "count", "lower", "examples_per_s on pipeline"),
    ("ensemble.group.s", "s", "lower", "examples_per_s on merge; small share on pipeline"),
    ("ensemble.group.hyps_in", "count", "lower", "examples_per_s on merge"),
    ("ensemble.group.groups", "count", "lower", "examples_per_s on merge"),
    ("ensemble.group.mean_size", "count", "higher", "examples_per_s on merge"),
    ("ensemble.merge.s", "s", "lower", "examples_per_s on merge; small share on pipeline"),
    ("ensemble.self.s", "s", "lower", "examples_per_s on merge; small share on pipeline"),
    ("evaluation.self.s", "s", "lower", "examples_per_s on score; under 2% on pipeline, merge"),
    ("evaluation.topk.s", "s", "lower", "examples_per_s on score"),
    ("evaluation.ap.s", "s", "lower", "examples_per_s on score"),
    ("evaluation.scored_preds", "count", "lower", "examples_per_s on score"),
    ("evaluation.matched.overall", "count", "higher", "examples_per_s on score"),
    ("types.sort_canonical.s", "s", "lower", "examples_per_s on all three workloads"),
    ("types.sort_canonical.items", "count", "lower", "examples_per_s on all three workloads"),
    ("cli.self.s", "s", "lower", "examples_per_s on all three workloads"),
    ("trace.overhead_frac", "fraction", "lower", "none: tracing cost, 1 - traced/untraced examples_per_s"),
)


def layer_metrics(
    spans: list[list], n_jobs: int, overhead_frac: float, time_scale: float = 1.0
) -> dict[str, float]:
    """Per-job self times (multiplied by time_scale) and counts per layer.
    A `.s` metric is the self time of the span named by its prefix (less a
    trailing `.self`); any other metric is the count of that name, except
    the two ratios of totals and the tracing overhead. A layer that does
    not run on a workload reports 0."""
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        self_s[name] = self_s.get(name, 0.0) + own * time_scale
        for key, value in (span[5] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0.0) + value

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    special = {
        "postprocess.nms.keep_ratio": ratio("postprocess.nms.kept", "postprocess.nms.in"),
        "ensemble.group.mean_size": ratio("ensemble.group.hyps_in", "ensemble.group.groups"),
        "trace.overhead_frac": overhead_frac,
    }
    values = {}
    for name, *_ in LAYER_METRICS:
        if name in special:
            values[name] = special[name]
        elif name.endswith(".s"):
            values[name] = self_s.get(name.removesuffix(".s").removesuffix(".self"), 0.0) / n_jobs
        else:
            values[name] = counts.get(name, 0.0) / n_jobs
    return values


def module_shares(spans: list[list]) -> dict[str, float]:
    """Share of all self time spent in each module (first name component)."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        module = span[0].split(".")[0]
        totals[module] = totals.get(module, 0.0) + own
    whole = sum(totals.values()) or 1.0
    return {m: t / whole for m, t in sorted(totals.items(), key=lambda kv: -kv[1])}
