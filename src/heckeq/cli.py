"""Command-line front end.

Subcommands expose every capability with table and JSON output:

    eigenvalue   invariant eigenvalue of a diagram
    reconstruct  diagram back from an eigenvalue polynomial
    characters   S_n character table (projector route, MN route, or both)
    traces       Murphy, connected, product, and doubly-connected traces
    verify       regular-representation oracle suite at a rational q0
    suq          quantum-group Casimir spectra and the correspondence

JSON output is deterministic (sorted keys, canonical polynomial
strings).  Exit status is 0 exactly when the command succeeded; failed
verification or validation errors exit nonzero, with a machine-readable
``error`` field in JSON mode.  A failed verification also reports a
``witness``: the first comparison that failed (see ``heckeq.verify``);
a failed ``suq --sweep-n`` check, the first diagram and N that failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice

from .diagrams import YoungDiagram, partitions
from .invariant import invariant_eigenvalue, reconstruct_diagram
from .laurent import _RATIONAL_TEXT, LaurentPoly, _integers
from .suq import (
    SuqIrrep,
    casimir_eigenvalue,
    hecke_casimir_correspondence,
    irrep_from_casimir,
)
from .symgroup import character_table_json
from .traces import (
    doubly_connected_traces,
    murphy_product_trace,
    murphy_trace_table_json,
    murphy_traces,
    simply_connected_trace,
)
from .verify import oracle_checks

# The largest n (N for `suq`) each guarded command accepts without
# --unsafe-large-n.  `verify` answers to the library's `MAX_ORACLE_N` alone.
# The projector route of `characters` has no ceiling: its class algebra
# never lists S_n, and a cold n = 12 takes about 0.35 s.  `traces` and `suq
# check --sweep-n` both walk the lattice of partitions of n, so they share one
# default.  SU_q(N) work grows with N itself: `suq --action dimension`
# multiplies O(rows * N) factors, and a sweep checks every N' up to N.
SCALE_DEFAULTS = {
    "character tables": 8,
    "partition-lattice walks": 24,
    "SU_q(N) ranks": 64,
}


# Options whose value may start with a minus sign, as in "--q0 -3/2".
SIGNED_OPTIONS = ("--q0", "--poly")


class CommandError(ValueError):
    """A validation failure surfaced to the user."""


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Join "--q0 -3/2" into "--q0=-3/2"; argparse reads a lone "-3/2" as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in SIGNED_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _parse_q0(text: str) -> Fraction:
    try:
        if not _RATIONAL_TEXT.fullmatch(text):
            raise ValueError(text)
        return Fraction(text)  # a ValueError past 4300 digits
    except ValueError as exc:
        raise CommandError(f"cannot parse q0 {text!r} (expected an integer or p/q)") from exc


def _parse_diagram(text: str, n: int | None = None) -> YoungDiagram:
    try:
        g = YoungDiagram.from_string(text)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    if n is not None and g.n != n:
        raise CommandError(f"diagram {g} has {g.n} boxes, expected n={n}")
    return g


def _check_scale(args, guard: str, n: int, name: str = "n") -> None:
    """Refuse n above the guard's default unless --unsafe-large-n is given."""
    limit = SCALE_DEFAULTS[guard]
    if n > limit and not args.unsafe_large_n:
        raise CommandError(f"{guard} are capped at {name} <= {limit} (pass --unsafe-large-n to override)")


# -- command handlers -----------------------------------------------------


def _cmd_eigenvalue(args) -> tuple[dict, int]:
    g = _parse_diagram(args.diagram, args.n)
    return {"eigenvalue": str(invariant_eigenvalue(g)), "diagram": str(g), "n": args.n}, 0


def _cmd_reconstruct(args) -> tuple[dict, int]:
    poly = LaurentPoly.from_string(args.poly)
    g = reconstruct_diagram(poly, args.n)
    return {"diagram": str(g), "eigenvalue": str(poly), "n": args.n}, 0


def _cmd_characters(args) -> tuple[dict, int]:
    n, method = args.n, args.method
    _check_scale(args, "character tables", n)
    result: dict = {"n": n, "method": method}
    if method in ("mn", "both"):
        result["mn"] = character_table_json(n, "mn")
    if method in ("projector", "both"):
        result["projector"] = character_table_json(n, "projector")
    if method == "both":
        result["agreement"] = result["mn"]["rows"] == result["projector"]["rows"]
    return result, 0


def _cmd_traces(args) -> tuple[dict, int]:
    n, kind = args.n, args.kind
    _check_scale(args, "partition-lattice walks", n)
    if kind == "murphy" and args.diagram is None:
        return {"n": n, "kind": kind, **murphy_trace_table_json(n)}, 0
    if args.diagram is None:
        raise CommandError(f"--diagram is required for kind={kind}")
    g = _parse_diagram(args.diagram, n)
    doc: dict = {"n": n, "kind": kind, "diagram": str(g)}
    if kind == "murphy":
        entries = murphy_traces(g)
        doc["murphy_traces"] = {str(i): str(entries[i]) for i in sorted(entries)}
    elif kind == "simply":
        doc["connected_traces"] = {str(k): str(simply_connected_trace(g, k)) for k in range(2, n + 1)}
    elif kind == "products":
        if not args.alphas:
            raise CommandError("--alphas is required for kind=products (e.g. --alphas 2,4)")
        alphas = _integers(args.alphas, "--alphas")
        doc["alphas"] = list(alphas)
        doc["trace"] = str(murphy_product_trace(g, alphas))
    elif kind == "doubly":
        doc["doubly_connected_traces"] = {
            label: str(poly) for label, poly in doubly_connected_traces(g).items()
        }
    return doc, 0


def _cmd_verify(args) -> tuple[dict, int]:
    n = args.n
    q0 = _parse_q0(args.q0)
    if n < 2:
        raise CommandError(f"verify runs need n >= 2, got n = {n}")
    if q0 in (0, 1, -1):
        raise CommandError(f"q0 = {q0} is a degenerate specialization; pick any other rational")
    report = oracle_checks(n, q0)
    all_pass = all(report.checks.values())
    doc = {"n": n, "q0": str(q0), "checks": report.checks, "all_pass": all_pass}
    if not all_pass:
        doc["witness"] = report.witness
    return doc, 0 if all_pass else 1


def _cmd_suq(args) -> tuple[dict, int]:
    N, action = args.N, args.action
    if N < 2:
        raise CommandError(f"SU_q(N) needs N >= 2, got N = {N}")
    _check_scale(args, "SU_q(N) ranks", N, "N")
    doc: dict = {"N": N, "action": action}
    if action == "casimir":
        irrep = _suq_irrep_from_args(args, N)
        doc["irrep"] = str(irrep)
        doc["casimir"] = str(casimir_eigenvalue(irrep))
    elif action == "dimension":
        irrep = _suq_irrep_from_args(args, N)
        doc["irrep"] = str(irrep)
        doc["dimension"] = irrep.dimension
    elif action == "reconstruct":
        if not args.poly:
            raise CommandError("--poly is required for action=reconstruct")
        irrep = irrep_from_casimir(LaurentPoly.from_string(args.poly), N)
        doc["irrep"] = str(irrep)
        doc["row_lengths"] = ",".join(str(h) for h in irrep.row_lengths)
    elif action == "check":
        if args.diagram:
            g = YoungDiagram(tuple(r for r in _suq_irrep_from_args(args, N).row_lengths if r))
            doc["diagram"] = str(g)
            doc["holds"] = hecke_casimir_correspondence(g, N)
        elif args.sweep_n is not None:
            if args.sweep_n < 1:
                raise CommandError(f"--sweep-n must be at least 1, got {args.sweep_n}")
            _check_scale(args, "partition-lattice walks", args.sweep_n)
            pairs = ((g, big_n) for n in range(1, args.sweep_n + 1) for g in partitions(n)
                     for big_n in range(len(g.rows) + 1, N + 1))
            checked = 0
            for checked, (g, big_n) in enumerate(pairs, 1):
                if not hecke_casimir_correspondence(g, big_n):
                    doc["witness"] = {"diagram": str(g), "N": str(big_n)}
                    break
            doc.update(sweep_n=args.sweep_n, checked=checked, holds="witness" not in doc)
        else:
            raise CommandError("action=check needs --diagram or --sweep-n")
        if not doc["holds"]:
            return doc, 1
    return doc, 0


def _suq_irrep_from_args(args, N: int) -> SuqIrrep:
    if not args.diagram:
        raise CommandError(f"--diagram is required for action={args.action}")
    text = args.diagram
    try:
        return SuqIrrep.from_rows(N, _integers(text, "diagram"))
    except ValueError as exc:
        raise CommandError(f"cannot build an SU_q({N}) irrep from {text!r}: {exc}") from exc


# -- rendering ------------------------------------------------------------


def _render_table(doc: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_table(value, indent + 1))
        elif isinstance(value, bool):
            lines.append(f"{pad}{key}: {'PASS' if value else 'FAIL'}")
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + ", ".join(str(v) for v in value))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _print_json(document: dict) -> None:
    """Print `json.dumps(document, sort_keys=True, indent=2)` in batches, never the whole text at once."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(document)
    for batch in iter(lambda: "".join(islice(chunks, 4096)), ""):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _emit(command: str, fmt: str, payload: dict | None, exc: Exception | None = None) -> None:
    """Print a command's result, or the error it raised, as JSON or as a table (errors to stderr)."""
    if fmt == "json":
        key, value = ("result", payload) if exc is None else ("error", {"type": type(exc).__name__, "message": str(exc)})
        _print_json({"command": command, "format": fmt, key: value})
    elif exc is not None:
        print(f"error: {exc}", file=sys.stderr)
    else:
        print(_render_table(payload))


# -- argument parsing -----------------------------------------------------


def _integer_option(text: str) -> int:
    """An integer option's value, read by `laurent._integers`; other text is the usage error `type=int` gave."""
    try:
        (value,) = _integers(text, "integer")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return value


_N = ("--n", dict(type=_integer_option, required=True))

# One row per command: its help, its handler, whether it takes
# --unsafe-large-n (only the commands with a default in SCALE_DEFAULTS do),
# and its own options as (flag, add_argument keywords) pairs.
COMMANDS = {
    "eigenvalue": ("invariant eigenvalue of a diagram", _cmd_eigenvalue, False,
                   [_N, ("--diagram", dict(required=True, help="comma-separated rows, e.g. 3,3"))]),
    "reconstruct": ("diagram from an eigenvalue polynomial", _cmd_reconstruct, False,
                    [_N, ("--poly", dict(required=True, help="e.g. 'q^2+3*q-1'"))]),
    "characters": ("S_n character table", _cmd_characters, True,
                   [_N, ("--method", dict(choices=("projector", "mn", "both"), default="both"))]),
    "traces": ("symbolic Hecke trace tables", _cmd_traces, True, [
        _N,
        ("--diagram", {}),
        ("--kind", dict(choices=("murphy", "simply", "products", "doubly"), required=True)),
        ("--alphas", dict(help="Murphy indices for kind=products, e.g. 2,4")),
    ]),
    "verify": ("run the oracle suite", _cmd_verify, False,
               [_N, ("--q0", dict(default="2", help="rational specialization point (default 2)"))]),
    "suq": ("quantum-group Casimir machinery", _cmd_suq, True, [
        ("--N", dict(type=_integer_option, required=True)),
        ("--action", dict(choices=("casimir", "reconstruct", "check", "dimension"), required=True)),
        ("--diagram", dict(help="Young-diagram rows, trailing zeros optional")),
        ("--poly", dict(help="Casimir spectrum polynomial for action=reconstruct")),
        ("--sweep-n", dict(type=_integer_option, help="for action=check: verify all diagrams up to this size")),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckeq",
        description="Exact Hecke-algebra invariants, characters, traces, and Casimir spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, guarded, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("table", "json"), default="table")
        if guarded:
            p.add_argument("--unsafe-large-n", action="store_true", help="lift this command's default scale guards")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        payload, code = args.handler(args)
    except (ValueError, ArithmeticError, RecursionError) as exc:
        _emit(args.command, args.format, None, exc)
        return 1
    _emit(args.command, args.format, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
