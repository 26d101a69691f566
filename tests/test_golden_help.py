"""Byte-for-byte lock on the CLI's help text and one usage error.

Each invocation runs through `heckeq.cli.main` with the terminal width
fixed at 80 columns; its exit status, stdout and stderr must match
`golden_help.json`.  argparse's help layout differs between Python
versions, so the file holds the text of the interpreter that recorded
it.  After a deliberate change to the options, record it again with

    PYTHONPATH=src python tests/test_golden_help.py
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from heckeq.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_help.json")

COMMANDS = ["eigenvalue", "reconstruct", "characters", "traces", "verify", "suq"]
INVOCATIONS = [
    "--help",
    *(f"{command} --help" for command in COMMANDS),
    # an unguarded command refuses the flag that lifts a scale guard
    "eigenvalue --n 3 --diagram 2,1 --unsafe-large-n",
]


def run(invocation: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(invocation.split())
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_covers_every_invocation():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(INVOCATIONS)


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_golden_help(invocation, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(invocation) == json.loads(GOLDEN.read_text())[invocation]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(json.dumps({i: run(i) for i in INVOCATIONS}, indent=2, sort_keys=True) + "\n")
