"""The parser's surface, byte for byte: `--help` of the top level, of every
group and of every action, and the usage error of one malformed argv per
action, against a stored snapshot.  Groups and actions are read from the
help text itself, so the test does not depend on how the parser is built.

argparse's wording and line layout can change between Python minor
releases, so the snapshot records the version that wrote it, and a
mismatch on another version says so in its failure message.

Regenerate the snapshot (only for an intended change of the surface) with

    PYTHONPATH=src python tests/test_cli_help.py
"""

import contextlib
import io
import json
import os
import re
import sys

import pytest

from combanal import cli

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_help_snapshot.json")
# help text wraps at the terminal width, which argparse reads from COLUMNS
COLUMNS = "80"
MALFORMED = "--no-such-option"


def run(argv: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv.split())
    return [code, out.getvalue(), err.getvalue()]


def choices(help_text: str):
    """The subcommand names of a parser, from the first {a,b,...} of its help."""
    return re.search(r"\{([^}]*)\}", help_text).group(1).split(",")


def surface():
    """Every argv of the snapshot, with its [exit code, stdout, stderr]."""
    out = {"--help": run("--help")}
    for group in choices(out["--help"][1]):
        out[f"{group} --help"] = run(f"{group} --help")
        for action in choices(out[f"{group} --help"][1]):
            for argv in (f"{group} {action} --help", f"{group} {action} {MALFORMED}"):
                out[argv] = run(argv)
    return out


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def load():
    if not os.path.exists(SNAPSHOT):
        return {"python": python_version(), "surface": {}}
    with open(SNAPSHOT, encoding="utf-8") as fh:
        return json.load(fh)


_snapshot = load()
SNAPSHOT_PYTHON, EXPECTED = _snapshot["python"], _snapshot["surface"]
# added to a failure's message when this interpreter is not the snapshot's
VERSION_NOTE = (
    ""
    if SNAPSHOT_PYTHON == python_version()
    else f"the snapshot was written by Python {SNAPSHOT_PYTHON} and this is "
    f"Python {python_version()}, whose argparse may word or lay out help differently"
)


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)


def test_snapshot_covers_every_group_and_action():
    assert sorted(surface()) == sorted(EXPECTED), VERSION_NOTE
    assert len(EXPECTED) == 1 + 9 + 2 * 53


@pytest.mark.parametrize("argv", sorted(EXPECTED))
def test_surface_matches_snapshot(argv):
    assert run(argv) == EXPECTED[argv], VERSION_NOTE


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    with open(SNAPSHOT, "w", encoding="utf-8") as fh:
        json.dump({"python": python_version(), "surface": surface()}, fh, indent=1, sort_keys=True)
        fh.write("\n")
