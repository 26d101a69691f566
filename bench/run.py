"""heckeq benchmark: run one workload through cold ``heckeq`` processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command of the workload runs in
a fresh interpreter with ``PYTHONPATH=src``, one at a time, the way a
user runs ``heckeq``.  A run has three steps:

1. a warm-up pass, the workload's smoke form, discarded (it writes the
   ``.pyc`` files, so compilation is never timed);
2. measured passes over the workload, as many as ``--seconds`` buys
   (``workloads.PASSES_PER_30_S``), with ``SETUP_PROBES`` set-up probes
   (cold interpreters that import ``heckeq.cli``) spread between their
   commands;
3. with ``--trace 1``, one more pass in which every command runs under
   ``tracer.py``, which gives the per-module numbers.

Every output is checked (see ``check``); a failed check counts in
``failed`` and prints a witness.  The last line of stdout is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``), as BENCHMARK.json names them.  The lines
before it are a readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import TRACE_MARKER
from workloads import Command

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SPANS_DIR = HERE / "out"
SETUP_PROBES = 25
COMMAND_TIMEOUT_S = 150
CLI = "import sys\nfrom heckeq.cli import main\nsys.exit(main())"

# The metrics, with their units and bounds, are those BENCHMARK.json names.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Outcome:
    command: Command
    wall_s: float
    cpu_s: float
    rss_kb: int
    witness: str | None  # why the command failed, or None
    trace: dict | None  # tracer.py's report, in a traced pass


def command_key(args: tuple[str, ...]) -> str:
    return hashlib.sha256("\0".join(args).encode()).hexdigest()[:16]


def output_digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    # a stale cache file makes the CLI print wrong characters with exit 0
    env.pop("HECKEQ_CACHE_DIR", None)
    # the warm-up pass must leave .pyc files behind for the timed passes
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[int, float, float, int, bytes, bytes]:
    """Run one child to completion: exit code, wall, cpu, peak RSS (KiB), stdout, stderr.

    The child is reaped with os.wait4, so its resource usage is its own
    and not the high-water mark of every child so far.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, out, err[0]


def check(c: Command, code: int, stdout: bytes, stderr: bytes) -> str | None:
    """None when the output passes the semantic checks, else a witness."""
    if code != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
        return f"exit status: expected 0, received {code}; stderr: {' | '.join(tail)}"
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return f"output: expected a JSON document with a result, received {stdout[:200]!r} ({exc})"
    kind = c.kind
    if kind == "verify" and result.get("all_pass") is not True:
        return f"all_pass: expected true, received {result.get('all_pass')!r}; checks {result.get('checks')}"
    if kind == "characters" and "both" in c.args and result.get("agreement") is not True:
        return f"agreement: expected true, received {result.get('agreement')!r}"
    if kind == "reconstruct" and result.get("diagram") != c.expect:
        return f"diagram: expected {c.expect}, received {result.get('diagram')!r}"
    if kind == "eigenvalue" and result.get("eigenvalue") != c.expect:
        return f"eigenvalue: expected {c.expect}, received {result.get('eigenvalue')!r}"
    return None


def check_digest(c: Command, stdout: bytes, golden: dict[str, str]) -> str | None:
    """None when stdout is byte-identical to the output recorded in golden.json."""
    expected = golden.get(command_key(c.args))
    received = output_digest(stdout)
    if expected != received:
        return f"stdout sha256: expected {expected or '(none recorded)'}, received {received}: {stdout[:160]!r}"
    return None


def run_pass(commands: list[Command], root: Path, env: dict[str, str], golden: dict[str, str],
             traced: bool = False) -> list[Outcome]:
    prefix = [sys.executable, str(HERE / "tracer.py")] if traced else [sys.executable, "-c", CLI]
    outcomes = []
    for c in commands:
        code, wall, cpu, rss, out, err = spawn(prefix + list(c.args), env, root)
        trace = None
        if traced:
            head, marker, tail = err.rpartition(TRACE_MARKER.encode())
            if marker:
                trace, err = json.loads(tail), head
        witness = check(c, code, out, err) or check_digest(c, out, golden)
        if traced and witness is None and trace is None:
            witness = "trace: expected a trace report on stderr, received none"
        outcomes.append(Outcome(c, wall, cpu, rss, witness, trace))
    return outcomes


def setup_probe(root: Path, env: dict[str, str]) -> float:
    """Wall time of one cold interpreter that imports heckeq.cli and exits."""
    code, wall, _, _, _, err = spawn([sys.executable, "-c", "import heckeq.cli"], env, root)
    if code != 0:
        raise SystemExit(f"bench/run.py: importing heckeq.cli failed: {err.decode(errors='replace')}")
    return wall


def measure(commands: list[Command], n_passes: int, root: Path, env: dict[str, str],
            golden: dict[str, str]) -> tuple[list[float], list[list[Outcome]]]:
    """The set-up probes and `n_passes` measured passes over `commands`.

    The probes are spread evenly over the gaps before, between and after
    the passes' commands.  The machine's speed changes for seconds at a
    time, so probes taken in one block would see one second of it; spread
    out, their median sees the same machine as the passes.
    """
    run_order = commands * n_passes
    gaps = len(run_order) + 1
    setup: list[float] = []
    outcomes: list[Outcome] = []
    for i in range(gaps):
        due = (i + 1) * SETUP_PROBES // gaps - i * SETUP_PROBES // gaps
        setup += [setup_probe(root, env) for _ in range(due)]
        if i < len(run_order):
            outcomes += run_pass(run_order[i:i + 1], root, env, golden)
    k = len(commands)
    return setup, [outcomes[p * k:(p + 1) * k] for p in range(n_passes)]


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample.  With ten samples or fewer no
    percentile qualifies, and the slowest sample is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup: list[float], passes: list[list[Outcome]]) -> dict[str, float]:
    """The end-to-end metrics of the measured passes.

    `wall_s` and `cpu_s` are one pass, summed over its commands from each
    command's median over the passes: the machine's speed changes for
    seconds at a time, and the median drops a command that ran in a burst.
    """
    samples = [o.wall_s for p in passes for o in p]
    per_command = list(zip(*passes))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(o.wall_s for o in runs) for runs in per_command),
        "cpu_s": sum(statistics.median(o.cpu_s for o in runs) for runs in per_command),
        "cmd_p50_s": statistics.median(samples),
        "cmd_tail_s": tail_latency(samples)[0],
        "peak_rss_mb": max(o.rss_kb for p in passes for o in p) / 1024,
    }


def per_layer(traced: list[Outcome], untraced_wall_s: float) -> dict[str, float]:
    """Sum the traced pass's per-command reports into the per-layer metrics."""
    docs = [o.trace for o in traced if o.trace is not None]
    calls: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    repeats: dict[str, float] = {}
    self_s: dict[str, float] = {}
    hits = misses = 0
    peak_support = max_bits = 0
    for doc in docs:
        for target, source in ((calls, "calls"), (inclusive, "inclusive_s"), (repeats, "repeats"), (self_s, "self_s")):
            for key, value in doc[source].items():
                target[key] = target.get(key, 0) + value
        cache = doc["caches"].get("hecke_oracle.projector_element", {})
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
        peak_support = max(peak_support, doc["peak_support"])
        max_bits = max(max_bits, doc["max_coeff_bits"])
    murphy_calls = calls.get("traces.murphy_traces", 0)
    special = {
        "hecke_oracle.projector_element.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "hecke_oracle.peak_support": peak_support,
        "hecke_oracle.max_coeff_bits": max_bits,
        "traces.murphy_traces.repeat_ratio": repeats.get("traces.murphy_traces", 0) / murphy_calls if murphy_calls else 0.0,
        "cli.import_s": statistics.median(doc["import_s"] for doc in docs) if docs else 0.0,
        "trace_overhead_ratio": sum(o.wall_s for o in traced) / untraced_wall_s,
    }
    values = {}
    for name in (m["name"] for m in SPEC["per_layer"]):
        head, _, stat = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif stat == "self_s":
            values[name] = self_s.get(head, 0.0)
        elif stat == "calls":
            values[name] = calls.get(head, 0)
        elif stat == "s":
            values[name] = inclusive.get(head, 0.0)
        else:
            raise ValueError(f"no rule for per-layer metric {name}")
    return values


def environment(root: Path) -> dict[str, str]:
    """Python version, machine, nproc, commit (when the checkout is a git tree) and a source digest."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = ""
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or platform.platform()}",
        "nproc": str(os.cpu_count()),
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
    }


def load_golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def locate_program(root: Path, env: dict[str, str]) -> str | None:
    """An error message unless heckeq.cli imports from this checkout's src."""
    expected = root / "src" / "heckeq" / "cli.py"
    if not expected.is_file():
        return f"no heckeq source at {expected}: run from the root of a heckeq checkout"
    code, _, _, _, out, err = spawn([sys.executable, "-c", "import heckeq.cli; print(heckeq.cli.__file__)"], env, root)
    found = out.decode().strip()
    if code != 0 or Path(found).resolve() != expected.resolve():
        return f"heckeq.cli imports from {found or err.decode(errors='replace').strip()!r}, not {expected}"
    return None


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, smoke: bool = False,
        golden: dict[str, str] | None = None, extra: list[Command] = ()) -> tuple[dict, list[str]]:
    """Run the benchmark; return the result object and the report lines.

    `smoke` measures the warm-up form itself, `golden` replaces the
    recorded digests and `extra` appends commands to the workload; the
    benchmark's tests use them.
    """
    env = child_env(root)
    problem = locate_program(root, env)
    if problem:
        raise SystemExit(f"bench/run.py: {problem}")
    golden = load_golden() if golden is None else golden
    workload = workloads.build(name, seed, smoke=smoke)
    commands = workload.commands + list(extra)
    run_pass(workloads.build(name, seed, smoke=True).commands, root, env, golden)

    setup, passes = measure(commands, workload.passes(seconds), root, env, golden)
    measured = end_to_end(setup, passes)
    traced = run_pass(commands, root, env, golden, traced=True) if trace else None

    outcomes = [o for p in passes + ([traced] if traced else []) for o in p]
    failed = [o for o in outcomes if o.witness]
    info = environment(root)
    samples = [o.wall_s for p in passes for o in p]
    _, percentile = tail_latency(samples)
    lines = [
        f"# heckeq benchmark: workload {name}, seed {seed} (variant {workload.variant}), "
        f"{seconds:g} s, trace {int(trace)}",
        "# " + ", ".join(f"{k} {v}" for k, v in info.items()),
        f"# {len(passes)} measured passes of {len(commands)} commands; "
        f"{len(outcomes)} commands attempted, {len(failed)} failed, fail_ratio {len(failed) / len(outcomes):.4f}",
    ]
    for o in failed:
        lines.append(f"FAIL {o.command.text()}\n     {o.witness}")
    notes = {
        "setup_s": f"median of {len(setup)} cold imports of heckeq.cli, spread over the passes",
        "wall_s": f"one pass, from per-command medians over {len(passes)} passes",
        "cpu_s": f"user+sys of the children, one pass, from per-command medians over {len(passes)} passes",
        "cmd_p50_s": f"median of {len(samples)} commands",
        "cmd_tail_s": f"p{percentile:.1f} of {len(samples)} commands"
        + (" (the slowest: ten or fewer samples)" if len(samples) <= 10 else ""),
        "peak_rss_mb": "largest child ru_maxrss",
    }
    for key, value in measured.items():
        lines.append(f"{key:<14} {value:12.6f} {UNITS[key]:<3} {notes[key]}")
    if trace:
        layers = per_layer(traced, measured["wall_s"])
        for key, value in layers.items():
            lines.append(f"{key:<44} {value:14.6f} {UNITS[key]}")
        metrics = {key: {"value": value, "unit": UNITS[key]} for key, value in layers.items()}
        write_spans(name, seed, traced)
    else:
        metrics = {key: {"value": value, "unit": UNITS[key]} for key, value in measured.items()}
    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed), "metrics": metrics}
    return result, lines


def write_spans(name: str, seed: int, traced: list[Outcome]) -> None:
    """Keep the traced pass's spans: [name, parent index, start, end] per command."""
    SPANS_DIR.mkdir(exist_ok=True)
    doc = [
        {"command": o.command.text(), "self_s": o.trace["self_s"], "spans": o.trace["spans"],
         "dropped_spans": o.trace["dropped_spans"]}
        for o in traced
        if o.trace is not None
    ]
    with open(SPANS_DIR / f"spans-{name}-{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    # on SIGTERM, unwind through spawn(), which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
