"""Record the expected outputs of every command the benchmark can run.

    python3 bench/record.py

Run from the root of a checkout.  Builds every variant of every workload,
in full and smoke form, runs each distinct command once in a cold
interpreter, applies the semantic checks of ``run.check`` and writes the
sha256 of each stdout to ``bench/golden.json``.

Run it only at a commit whose outputs are trusted: from then on the
benchmark counts any byte of difference in a command's stdout as a
failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    env = run.child_env(root)
    problem = run.locate_program(root, env)
    if problem:
        print(f"bench/record.py: {problem}", file=sys.stderr)
        return 2
    commands: dict[str, workloads.Command] = {}
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            for smoke in (False, True):
                for c in workloads.build(name, variant, smoke).commands:
                    commands.setdefault(run.command_key(c.args), c)
    digests, bad = {}, 0
    for i, (key, c) in enumerate(sorted(commands.items())):
        code, wall, _, _, out, err = run.spawn([sys.executable, "-c", run.CLI, *c.args], env, root)
        witness = run.check(c, code, out, err)
        if witness:
            bad += 1
            print(f"FAIL {c.text()}\n     {witness}", file=sys.stderr)
            continue
        digests[key] = run.output_digest(out)
        print(f"[{i + 1}/{len(commands)}] {wall:7.3f} s  {c.text()}", flush=True)
    if bad:
        print(f"bench/record.py: {bad} commands failed; nothing written", file=sys.stderr)
        return 1
    info = run.environment(root)
    with open(run.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({"recorded_at": info, "digests": dict(sorted(digests.items()))}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} outputs in {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
