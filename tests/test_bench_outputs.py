"""The benchmark's `series` and `linalg` argv pools, replayed through
`cli.dispatch`, must print the stdout that `bench/expected.json` stores.

These pin Master Theorem coefficients, determinants and seminvariant
kernels that the CLI golden corpus does not cover.  `bench/` is only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from combanal import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pool", ["series", "linalg"])
def test_pool_stdout_matches_expected(pool):
    expected = json.loads((BENCH / "expected.json").read_text())
    wrong = []
    for argv in _workloads().POOLS[pool]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv.split())
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest, err.getvalue()) != (0, expected[argv]["sha256"], ""):
            wrong.append(argv)
    assert wrong == []
