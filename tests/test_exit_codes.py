"""The exit-code contract under corrupted inputs.

Each case runs `vista` in process on a valid file with a few bytes
replaced and, half the time, its tail cut off. Whatever the bytes, the
command exits 0, 1 or 2, never 3 (internal error), and an exit 2 prints
its problems on stderr.
"""

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vista.cli import EXIT_VALIDATION, main
from vista.io_formats import write_tensor_file

import test_cli


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> Path:
    """A directory of valid inputs, one of each kind the cases corrupt."""
    root = tmp_path_factory.mktemp("valid")
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--n-examples", "2", "--n-nouns", "3", "--n-verbs", "3", "--n-sources", "2",
                     "--out", str(root)]) == 0
    gt = json.loads((root / "ground_truth.json").read_text())
    (root / "taxonomy.json").write_text(json.dumps(gt["taxonomy"]))
    write_tensor_file(test_cli.TestPostprocessCommand().head_tensors(4), root / "heads.vstf")
    # "out" is checked but not used: every case passes --out.
    (root / "evaluate.json").write_text(json.dumps({"iou_min": 0.5, "ttc_tol": 0.25, "top_k": 5, "out": "run"}))
    (root / "ensemble.json").write_text(json.dumps(
        {"iou_min": 0.5, "ttc_tol": 0.25, "agreement_weight": 0.5, "max_exports": 100, "out": "run"}))
    (root / "postprocess.json").write_text(json.dumps({"k_noun": 2, "nms_iou": 0.5, "max_exports": 10}))
    write_tensor_file(test_cli.fusion_tensors(), root / "fuse.vstf")
    return root


GT, TAXONOMY, HEADS = "ground_truth.json", "taxonomy.json", "heads.vstf"
SUB, OTHER = "predictions_source_00.json", "predictions_source_01.json"

# (the file corrupted, the command run on it and the valid files)
CASES = [
    (HEADS, ["postprocess", HEADS, TAXONOMY]),
    (HEADS, ["validate", HEADS]),
    (SUB, ["validate", SUB]),
    (SUB, ["evaluate", GT, SUB]),
    (SUB, ["ensemble", SUB, OTHER, "--taxonomy", TAXONOMY]),
    (GT, ["validate", GT]),
    (GT, ["evaluate", GT, SUB]),
    (TAXONOMY, ["validate", TAXONOMY]),
    (TAXONOMY, ["postprocess", HEADS, TAXONOMY]),
    ("evaluate.json", ["evaluate", GT, SUB, "--config", "evaluate.json"]),
    ("ensemble.json", ["ensemble", SUB, OTHER, "--config", "ensemble.json"]),
    ("postprocess.json", ["postprocess", HEADS, TAXONOMY, "--config", "postprocess.json"]),
    ("fuse.vstf", ["fuse", "fuse.vstf"]),
    ("fuse.vstf", ["validate", "fuse.vstf"]),
]

# Bytes that keep a JSON document or a VSTF header plausible, and any byte.
replacement = st.sampled_from(b'0123456789.-eE"[]{},: \x00\xff') | st.integers(0, 255)


@st.composite
def edits(draw):
    """Up to four (position fraction, byte) replacements and an optional
    cut, as a fraction of the file's length."""
    swaps = draw(st.lists(st.tuples(st.floats(0, 1, exclude_max=True), replacement), min_size=1, max_size=4))
    return swaps, draw(st.none() | st.floats(0, 1))


def corrupt(blob: bytes, swaps, cut) -> bytes:
    data = bytearray(blob)
    for at, byte in swaps:
        data[int(at * len(data))] = byte
    return bytes(data if cut is None else data[: int(cut * len(data))])


@pytest.mark.filterwarnings("ignore:.*ignoring unknown fields:UserWarning")
@pytest.mark.parametrize("target, argv", CASES, ids=[f"{argv[0]}-{target}" for target, argv in CASES])
@settings(max_examples=40, deadline=None)
@given(edit=edits())
def test_corrupted_input_exits_0_1_or_2(valid, target, argv, edit):
    code, err = run_with(valid, target, corrupt((valid / target).read_bytes(), *edit), argv)
    assert code in (0, 1, 2), err
    if code == EXIT_VALIDATION:
        assert err.startswith("error: ") and err.strip() != "error:"


def run_with(valid, target, blob: bytes, argv) -> tuple[int, str]:
    """Run argv on the valid files, with `target` replaced by blob; the
    exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / target
        bad.write_bytes(blob)
        paths = [str(bad if arg == target else valid / arg) if arg.endswith((".json", ".vstf")) else arg
                 for arg in argv]
        out = ["--out", tmp] if argv[0] != "validate" else []
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main([*paths, *out])
        return code, stderr.getvalue().replace(str(bad), target)


@pytest.mark.parametrize("target, argv", [
    (GT, ["validate", GT]),
    (GT, ["evaluate", GT, SUB]),
    (SUB, ["evaluate", GT, SUB]),
    (SUB, ["ensemble", SUB, OTHER, "--taxonomy", TAXONOMY]),
    ("evaluate.json", ["evaluate", GT, SUB, "--config", "evaluate.json"]),
], ids=["validate", "evaluate-ground-truth", "evaluate-predictions", "ensemble", "config"])
def test_deeply_nested_json_exits_2(valid, target, argv):
    code, err = run_with(valid, target, b"[" * 100_000, argv)
    assert (code, err) == (EXIT_VALIDATION, f"error: {target}: invalid JSON: nested too deeply to parse\n")


@pytest.mark.parametrize("target", [SUB, GT])
def test_id_of_5000_digits_exits_2(valid, target):
    # Past the interpreter's int-digit limit the parse fails; without the
    # limit the id breaks the int64 rule. Either way the file is named.
    text = (valid / target).read_text()
    blob = re.sub(r'"noun_category_id": \d+', f'"noun_category_id": {"7" * 5000}', text, count=1).encode()
    code, err = run_with(valid, target, blob, ["validate", target])
    assert code == EXIT_VALIDATION
    assert err.startswith(f"error: {target}: ")
