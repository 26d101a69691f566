"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the repository root.

The smoke runs use each workload's smallest form, so the whole module
takes well under a minute.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import workloads
from workloads import Command

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from heckeq.diagrams import YoungDiagram, partitions  # noqa: E402
from heckeq.invariant import invariant_eigenvalue  # noqa: E402


def test_benchmark_json_keeps_within_the_format_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and name_re.fullmatch(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert name_re.fullmatch(m["name"]) and unit_re.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert spec["paths"] == ["bench"] and spec["command"][1].startswith("bench/")
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_sampler_is_seeded_and_uniform():
    rng = random.Random(7)
    draws = Counter(workloads.random_partition(6, rng) for _ in range(5500))
    assert set(draws) == {g.rows for g in partitions(6)}
    assert min(draws.values()) > 350  # 500 expected for each of the 11 partitions
    big = workloads.random_partition(1000, random.Random(3))
    assert sum(big) == 1000 and list(big) == sorted(big, reverse=True)
    assert big == workloads.random_partition(1000, random.Random(3))
    assert workloads.build("symbolic-tables", 5).commands == workloads.build("symbolic-tables", 5 + workloads.VARIANTS).commands


def test_every_command_a_seed_can_produce_has_a_recorded_digest():
    golden = run.load_golden()
    for name in workloads.WORKLOADS:
        for seed in range(workloads.VARIANTS):
            for smoke in (False, True):
                for c in workloads.build(name, seed, smoke).commands:
                    assert run.command_key(c.args) in golden, c.text()


def test_eigenvalue_text_agrees_with_the_package():
    for n in range(1, 8):
        for g in partitions(n):
            assert workloads.eigenvalue_text(g.rows) == str(invariant_eigenvalue(g))
    rows = workloads.random_partition(200, random.Random(1))
    assert workloads.eigenvalue_text(rows) == str(invariant_eigenvalue(YoungDiagram(rows)))


def test_tail_latency_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    value, percentile = run.tail_latency(samples)
    assert value == 90.0 and sum(s > value for s in samples) == 10 and percentile == 90.0
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in run.SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(name, trace):
    result, lines = run.run(name, seed=3, seconds=0, trace=bool(trace), root=ROOT, smoke=True)
    spec = run.SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    report = "\n".join(lines)
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines), m["name"]
    assert "fail_ratio 0.0000" in report
    if trace:
        assert 0 < result["metrics"]["cli.import_s"]["value"] < 5
        assert result["metrics"]["trace_overhead_ratio"]["value"] > 0


def test_faults_raise_fail_ratio_and_print_witnesses():
    golden = run.load_golden()
    first = workloads.build("cli-small", 3, smoke=True).commands[0]
    golden[run.command_key(first.args)] = "0" * 16
    extra = [
        Command(("verify", "--n", "9", "--format", "json")),  # refused: exit status 1
        Command(("reconstruct", "--n", "2", "--poly=q", "--format", "json"), expect="1,1"),  # it is 2
    ]
    result, lines = run.run("cli-small", seed=3, seconds=0, trace=False, root=ROOT, smoke=True,
                            golden=golden, extra=extra)
    report = "\n".join(lines)
    assert not result["correct"] and result["failed"] == 3
    assert f"fail_ratio {3 / result['attempted']:.4f}" in report
    assert "stdout sha256: expected 0000000000000000, received" in report
    assert "exit status: expected 0, received 1" in report
    assert "diagram: expected 1,1, received '2'" in report


def test_without_the_program_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        ["python3", "bench/run.py", "--workload", "cli-small", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no heckeq source" in proc.stderr
