"""Seeded inputs for the heckeq benchmark.

Each workload is a list of ``heckeq`` command lines built from the seed.
The seed is reduced to one of ``VARIANTS`` variants, so the set of
commands any seed can produce is finite and every output can be checked
against a digest recorded in ``golden.json`` (see ``record.py``).  The
partition sampler and the eigenvalue polynomial below are the
benchmark's own code: the inputs and the ``reconstruct`` check do not
depend on the package under test.

Every workload also has a smoke form with the same command shapes at
the smallest sizes.  It is the warm-up pass of a run and the input of
the benchmark's tests.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

VARIANTS = 16

# Non-integer q0 values for oracle-verify: none makes two invariant
# eigenvalues collide through n = 5, and verify --n 5 costs about the same
# at each of them as at q0 = 2 (3/2 is cheaper, 3/5 dearer).
Q0_VALUES = ("2/3", "4/3", "5/3")

# Passes in a run of 30 seconds; a run of S seconds makes S/30 times as
# many, rounded, at least one.  The count depends on --seconds alone, not on
# how fast the machine happens to be during the run, so the number of
# samples behind each percentile is the same on every run.  At the commit
# that defined the benchmark (x86_64, 2 vCPUs shared with other tenants,
# Python 3.11) a pass took about 40, 19 and 3.6 s, and a run of 30 s about
# 40, 42 and 28 s.
PASSES_PER_30_S = {"oracle-verify": 1, "symbolic-tables": 2, "cli-small": 7}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the benchmark knows its output must say."""

    args: tuple[str, ...]
    # For reconstruct: the row lengths the polynomial was built from.
    # For eigenvalue: the polynomial text the output must carry.
    expect: str | None = None

    @property
    def kind(self) -> str:
        return self.args[0]

    def text(self) -> str:
        shown = " ".join(self.args)
        return shown if len(shown) <= 160 else shown[:150] + f"... ({len(shown)} chars)"


@dataclass
class Workload:
    name: str
    variant: int
    commands: list[Command]

    def passes(self, seconds: float) -> int:
        return max(1, int(PASSES_PER_30_S[self.name] * seconds / 30 + 0.5))


# -- partitions ------------------------------------------------------------


@lru_cache(maxsize=None)
def partition_counts(n: int) -> tuple[int, ...]:
    """p(0), ..., p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return tuple(p)


def random_partition(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random partition of n (Nijenhuis-Wilf), largest part first.

    Repeatedly draws a pair (d, j) with weight d * p(m - j*d), whose total
    over all pairs is m * p(m), and appends j parts of size d.  Integer
    arithmetic only, so a seed gives the same partition on every machine.
    """
    p = partition_counts(n)
    parts: list[int] = []
    m = n
    while m:
        r = rng.randrange(m * p[m])
        chosen = None
        for d in range(1, m + 1):
            for j in range(1, m // d + 1):
                r -= d * p[m - j * d]
                if r < 0:
                    chosen = (d, j)
                    break
            if chosen:
                break
        d, j = chosen
        parts.extend([d] * j)
        m -= d * j
    return tuple(sorted(parts, reverse=True))


def contents(rows: tuple[int, ...]) -> list[int]:
    return [j - i for i, length in enumerate(rows) for j in range(length)]


def eigenvalue_text(rows: tuple[int, ...]) -> str:
    """The invariant eigenvalue of the diagram, in the CLI's canonical text.

    Read off the content counts: the coefficient of q^k is the number of
    boxes with content >= k for k >= 1, and minus the number with content
    <= k - 1 for k <= 0.
    """
    count = Counter(contents(rows))
    lo, hi = min(count), max(count)
    coeffs = {}
    for k in range(1, hi + 1):
        coeffs[k] = sum(v for c, v in count.items() if c >= k)
    for k in range(lo + 1, 1):
        coeffs[k] = -sum(v for c, v in count.items() if c <= k - 1)
    out = []
    for e in sorted((e for e, c in coeffs.items() if c), reverse=True):
        c = coeffs[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            body = qpart if mag == 1 else f"{mag}*{qpart}"
        out.append(("-" if c < 0 else ("+" if out else "")) + body)
    return "".join(out) or "0"


def rows_text(rows: tuple[int, ...]) -> str:
    return ",".join(map(str, rows))


def eigenvalue_commands(rows: tuple[int, ...]) -> list[Command]:
    n = str(sum(rows))
    poly = eigenvalue_text(rows)
    return [
        Command(("eigenvalue", "--n", n, "--diagram", rows_text(rows)), expect=poly),
        Command(("reconstruct", "--n", n, f"--poly={poly}"), expect=rows_text(rows)),
    ]


def trace_command(kind: str, rows: tuple[int, ...], rng: random.Random) -> Command:
    n = sum(rows)
    args = ["traces", "--n", str(n), "--kind", kind, "--diagram", rows_text(rows)]
    if kind == "products":
        alphas = sorted(rng.sample(range(2, n + 1), min(3, n - 1)))
        args += ["--alphas", ",".join(map(str, alphas))]
    return Command(tuple(args))


def sized_partition(n: int, rng: random.Random, max_rows: int | None = None) -> tuple[int, ...]:
    while True:
        rows = random_partition(n, rng)
        if max_rows is None or len(rows) <= max_rows:
            return rows


# -- the workloads -----------------------------------------------------------


def _oracle_verify(rng: random.Random, smoke: bool) -> list[Command]:
    n = "3" if smoke else "5"
    q0 = rng.choice(Q0_VALUES)
    return [Command(("verify", "--n", n)), Command(("verify", "--n", n, "--q0", q0))]


# The trace commands of symbolic-tables.  Their kinds and sizes are fixed
# and the seed picks only the diagrams and the order, so the commands
# around a pass's median command change less from seed to seed.
TRACE_SHAPES = (("simply", 14), ("simply", 16), ("simply", 18),
                ("doubly", 13), ("doubly", 15), ("doubly", 17),
                ("products", 12), ("products", 14), ("products", 16), ("products", 18))


def _symbolic_tables(rng: random.Random, smoke: bool) -> list[Command]:
    big = 12 if smoke else 1000
    cmds = [Command(("traces", "--n", "6" if smoke else "20", "--kind", "murphy"))]
    # Of the 50 samples of two passes, cmd_tail_s is the eleventh-largest.
    # Above it stand six: the Murphy table (about 6 s) and the one-column
    # pair (about 2.3 s each).  Next come the eight samples of the two-column
    # and two-row pairs (about 1.3 s each), far above the seeded commands'
    # 0.1 to 0.3 s, so cmd_tail_s is the fifth of these eight, near their
    # median: the same commands for every seed, and one sample taken in a
    # burst of the machine's speed does not move it.
    for rows in ((1,) * big, (2,) * (big // 2), (big // 2,) * 2):
        cmds += eigenvalue_commands(rows)
    # Uniform random diagrams of 1000 boxes share one limit shape, so these
    # cost about 0.2 s whatever the seed.  Their sixteen samples lie in the
    # middle of the fractions of a second, where cmd_p50_s is read; the
    # trace commands' cost depends more on the seed's diagrams.
    for _ in range(4):
        cmds += eigenvalue_commands(random_partition(big, rng))
    shapes = list(TRACE_SHAPES)
    rng.shuffle(shapes)
    for kind, n in shapes:
        cmds.append(trace_command(kind, random_partition(n - 8 if smoke else n, rng), rng))
    return cmds


def _cli_small(rng: random.Random, smoke: bool) -> list[Command]:
    cmds: list[Command] = []
    for _ in range(5):
        cmds += eigenvalue_commands(random_partition(rng.randint(4, 10), rng))[:1]
    for _ in range(4):
        cmds += eigenvalue_commands(random_partition(rng.randint(4, 10), rng))[1:]
    # the projector route costs 0.02 s at n = 5 and 0.12 s at n = 7, so its
    # sizes are fixed and only their order is seeded, to keep a pass's cost
    # the same for every seed.  The projector route at n = 7 runs three times
    # and is the slowest command of a pass: cmd_tail_s, the eleventh-largest of
    # the samples of seven passes, is the median of its twenty-one, so a few
    # samples taken in a burst of the machine's speed do not move it.
    sizes = [("mn", rng.randint(3, 8)), ("mn", rng.randint(3, 8)),
             ("projector", 7), ("projector", 7), ("projector", 7), ("both", 6), ("both", 5)]
    rng.shuffle(sizes)
    for method, n in sizes:
        cmds.append(Command(("characters", "--n", str(n), "--method", method)))
    for _ in range(3):
        big_n = rng.randint(2, 6)
        rows = sized_partition(rng.randint(1, 6), rng, big_n - 1)
        cmds.append(Command(("suq", "--N", str(big_n), "--action", "casimir", "--diagram", rows_text(rows))))
    for _ in range(3):
        big_n = rng.randint(3, 5)
        rows = sized_partition(rng.randint(2, 5), rng, big_n - 1)
        cmds.append(Command(("suq", "--N", str(big_n), "--action", "dimension", "--diagram", rows_text(rows))))
    for _ in range(2):
        big_n = rng.randint(3, 7)
        rows = sized_partition(rng.randint(2, 6), rng, big_n - 1)
        cmds.append(Command(("suq", "--N", str(big_n), "--action", "check", "--diagram", rows_text(rows))))
    cmds.append(Command(("suq", "--N", "6", "--action", "check", "--sweep-n", str(rng.randint(3, 5)))))
    for kind in ("murphy", "simply", "products", "doubly"):
        cmds.append(trace_command(kind, random_partition(rng.randint(4, 8), rng), rng))
    cmds.append(Command(("verify", "--n", "3")))
    cmds.append(Command(("verify", "--n", "3", "--q0", rng.choice(Q0_VALUES))))
    if smoke:
        # one command of each subcommand and method is enough to warm up
        seen: set[tuple[str, ...]] = set()
        kept = []
        for c in cmds:
            key = c.args[:1] + tuple(a for a in c.args if a in ("mn", "projector", "both", "casimir", "dimension", "check"))
            if key not in seen:
                seen.add(key)
                kept.append(c)
        cmds = kept
    return cmds


# Each workload's reason is recorded in BENCHMARK.json.
WORKLOADS = {
    "oracle-verify": _oracle_verify,
    "symbolic-tables": _symbolic_tables,
    "cli-small": _cli_small,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The command list of workload `name` for `seed` (same seed, same list)."""
    variant = seed % VARIANTS
    rng = random.Random(f"{name}:{variant}")
    commands = [Command(c.args + ("--format", "json"), c.expect) for c in WORKLOADS[name](rng, smoke)]
    return Workload(name, variant, commands)
