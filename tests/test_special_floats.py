"""Special float32 values in a heads container.

Each case writes one special value into one value of one tensor of a
small valid container, or into every value of it, and runs `vista
postprocess` and `vista validate` on it in process: each exits 0 or 2,
never 3 (internal error), and a numpy RuntimeWarning is an error. NaN and
the infinities are written as raw bytes, since `write_tensor_file`
refuses them.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from vista.cli import EXIT_OK, EXIT_VALIDATION, main
from vista.io_formats import TensorFile, write_tensor_file

import test_cli

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TENSORS = list(test_cli.TestPostprocessCommand().head_tensors(4))
VALUES = {
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
    "1e38": 1e38,
    "-1e38": -1e38,
    "3.4e38": 3.4e38,
    "denormal": np.finfo(np.float32).smallest_subnormal,
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("special")
    write_tensor_file(test_cli.TestPostprocessCommand().head_tensors(4), root / "heads.vstf")
    test_cli.TestPostprocessCommand().write_taxonomy(root / "taxonomy.json")
    return root


@pytest.mark.parametrize("every", [False, True], ids=["one", "every"])
@pytest.mark.parametrize("value", list(VALUES))
@pytest.mark.parametrize("tensor", TENSORS)
def test_postprocess_and_validate_exit_0_or_2(valid, tmp_path, tensor, value, every):
    blob = bytearray((valid / "heads.vstf").read_bytes())
    with TensorFile(valid / "heads.vstf") as container:
        start, dims = container.index[tensor]
    data = np.frombuffer(blob, dtype="<f4", count=int(np.prod(dims)), offset=start)
    data[slice(None) if every else len(data) // 2] = VALUES[value]
    heads = tmp_path / "heads.vstf"
    heads.write_bytes(blob)
    for argv in (["postprocess", str(heads), str(valid / "taxonomy.json"), "--out", str(tmp_path)],
                 ["validate", str(heads)]):
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION), (argv[0], stderr.getvalue())
        if code == EXIT_VALIDATION:
            assert stderr.getvalue().startswith("error: "), stderr.getvalue()
        if value in ("nan", "inf", "-inf"):
            assert code == EXIT_VALIDATION, argv[0]
