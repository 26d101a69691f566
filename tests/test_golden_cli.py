"""Byte-for-byte lock on the JSON output of a fixed CLI command set.

Each command runs through `heckeq.cli.main`; its exit status and the
sha256 of its stdout must match `golden_cli.json`.  A refactor that
keeps behaviour keeps every digest.  After a deliberate output change,
record the file again with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from heckeq.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

# commands that take seconds rather than a fraction of one
SLOW = {"verify --n 7 --q0 5/3"}

COMMANDS = [
    "eigenvalue --n 6 --diagram 3,3",
    "eigenvalue --n 5 --diagram 2,2,2",
    "reconstruct --n 6 --poly q^2+3*q-1",
    "reconstruct --n 4 --poly=-3-2*q^-1-q^-2",
    "characters --n 3 --method projector",
    "characters --n 5 --method projector",
    "characters --n 6 --method mn",
    "characters --n 7 --method both",
    "characters --n 8 --method both",
    "characters --n 9 --method mn",
    "traces --n 4 --kind murphy --diagram 3,1",
    "traces --n 12 --kind murphy",
    "traces --n 6 --kind simply --diagram 3,2,1",
    "traces --n 7 --kind doubly --diagram 4,2,1",
    "traces --n 8 --kind products --diagram 4,3,1 --alphas 2,5,7",
    "traces --n 18 --kind products --diagram 6,4,3,2,2,1 --alphas 3,9,15",
    "traces --n 9 --kind products --diagram 4,3,2 --alphas 9",
    "verify --n 2",
    "verify --n 4",
    "verify --n 3 --q0 3/2",
    "verify --n 3 --q0 1",
    "verify --n 5 --q0=-3/2",
    "verify --n 6",
    "verify --n 7 --q0 5/3",
    "suq --N 3 --action casimir --diagram 2,1",
    "suq --N 4 --action dimension --diagram 3,1,0",
    "suq --N 3 --action reconstruct --poly 1+q^-4",
    "suq --N 3 --action check --diagram 2,1",
    "suq --N 6 --action check --sweep-n 4",
]


def run(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split() + ["--format", "json"])
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_golden_covers_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize(
    "command", [pytest.param(c, marks=pytest.mark.slow) if c in SLOW else c for c in COMMANDS]
)
def test_golden_output(command):
    assert run(command) == json.loads(GOLDEN.read_text())[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: run(c) for c in COMMANDS}, indent=2, sort_keys=True) + "\n")
