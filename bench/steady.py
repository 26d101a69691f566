"""Steadiness report: two sets of benchmark runs, spreads next to bounds.

    python3 bench/steady.py [--runs 10] [--out FILE]

Run from the root of a checkout.  Each of the two sets runs
``bench/run.py`` once per seed and workload (seeds differ between sets,
workloads interleave), with ``run_seconds`` from BENCHMARK.json and
``--trace 0``.  For every end-to-end metric and workload it prints, per
set, the median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  Next to them stand the metric's bound and the drift of the second
set's median from the first set's, counted positive when it is worse.  A
metric fails when a spread or the drift exceeds its bound, and is steady
when both spreads are below a third of it.  With ``--out`` the report is
also written as JSON: the baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("FAIL"):
            print(f"  {line}", flush=True)
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> one value per run
    values = [{w: {m["name"]: [] for m in metrics} for w in names} for _ in range(SETS)]
    failures = 0
    started = time.time()
    for s in range(SETS):
        for i in range(args.runs):
            seed = 1000 * s + i
            for w in names:
                result = one_run(w, seed, seconds)
                failures += result["failed"]
                for m in metrics:
                    values[s][w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s + 1} seed {seed:>4} {w:<16} failed {result['failed']} "
                      f"wall_s {result['metrics']['wall_s']['value']:.3f} "
                      f"({time.time() - started:.0f} s elapsed)", flush=True)

    header = f"{'workload':<16} {'metric':<12} {'bound':>6} " + " ".join(
        f"{'median' + str(s + 1):>10} {'spread' + str(s + 1):>8}" for s in range(SETS)
    ) + f" {'drift':>7}  verdict"
    print(header)
    rows = []
    verdict_all = failures == 0
    for w in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [values[s][w][name] for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            verdict = "FAIL" if max(spreads) > bound or drift > bound else (
                "steady" if max(spreads) < bound / 3 else "ok (spread above bound/3)")
            verdict_all = verdict_all and verdict != "FAIL"
            print(f"{w:<16} {name:<12} {bound:>6.2f} " + " ".join(
                f"{md:>10.4f} {sp:>8.4f}" for md, sp in zip(medians, spreads)) + f" {drift:>+7.4f}  {verdict}")
            rows.append({"workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                         "medians": medians, "spreads": spreads, "drift": drift, "verdict": verdict,
                         "values": sets})
    print(f"failed commands: {failures}; overall: {'PASS' if verdict_all else 'FAIL'}")
    if args.out:
        doc = {"environment": run.environment(Path.cwd()), "run_seconds": seconds, "runs": args.runs,
               "failed_commands": failures, "pass": verdict_all, "rows": rows}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if verdict_all else 1


if __name__ == "__main__":
    sys.exit(main())
