"""Byte-for-byte lock on the printed output of the scripts in `demos/`.

Each demo runs in its own interpreter, as a user would run it, with the
package's `src` directory on its path; its exit status and the sha256 of
its stdout must match `golden_demos.json`.  After a deliberate output
change, record the file again with

    PYTHONPATH=src python tests/test_demos.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("golden_demos.json")
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run(name: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=env,
        timeout=120,
        check=False,
    )
    return {"exit": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()}


def test_golden_covers_every_demo():
    assert sorted(json.loads(GOLDEN.read_text())) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    assert run(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({d: run(d) for d in DEMOS}, indent=2, sort_keys=True) + "\n")
