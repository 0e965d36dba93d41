"""Every argv of the benchmark's four pools, replayed through
`cli.dispatch`, must give the response that `bench/expected.json` stores:
each response is judged by `bench/run.py`'s own `judge`, so an answer
must print the stdout whose SHA-256 is stored with nothing on stderr, and
a refusal must exit with one of its accepted codes, print nothing on
stdout and give the short diagnostic the benchmark requires.

These pin the bytes of every benchmarked answer, among them Master
Theorem coefficients, seminvariant kernels, tilings in each format and
the election simulation, which the CLI golden corpus does not all cover.
`bench/` is only read.
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


def _bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pool", ["series", "linalg", "enumerate", "cli-mix"])
def test_pool_stdout_matches_expected(pool):
    bench = _bench_run()
    expected = json.loads((BENCH / "expected.json").read_text())
    wrong = []
    for argv in dict.fromkeys(bench.POOLS[pool]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv.split())
        data = out.getvalue().encode()
        reply = [code, 0, hashlib.sha256(data).hexdigest(), len(data), err.getvalue()]
        if not bench.judge(expected[argv], reply):
            wrong.append(argv)
    assert wrong == []
