"""The oracle verification suite behind ``heckeq verify``.

Every check compares a predicted value (from the symbolic tables or from
an identity of the algebra) with the value the word-basis oracle
computes at (n, q0).  The first comparison that fails is kept as a
witness, every field a string:

    check       the name of the failing check
    diagram     the irrep label, "g * h" for a product of two projectors,
                or "" when the check involves no single irrep
    word        the generator word multiplied in or traced ("" for none)
    symbolic    the predicted value
    oracle      the value the oracle computed

When the compared values are algebra elements, `symbolic` and `oracle`
are their coefficients at the first basis word (in lexicographic order
of permutations) where they differ, and `basis_word` is a reduced word
for it ("" for the identity).
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import YoungDiagram, dimension, partitions
from .hecke_oracle import (
    HeckeElement,
    fundamental_invariant,
    hecke_projector,
    irreducible_trace,
    projector_element,
    reduced_word,
    regular_trace,
    word_element,
)
from .traces import doubly_connected_traces, simply_connected_trace

__all__ = ["OracleReport", "oracle_checks"]


class OracleReport:
    """Each check's outcome, and the first failing comparison (None if all pass)."""

    def __init__(self) -> None:
        self.checks: dict[str, bool] = {}
        self.witness: dict[str, str] | None = None

    def compare(self, check: str, symbolic, oracle, diagram: YoungDiagram | str = "",
                word: tuple[int, ...] = ()) -> bool:
        """True when the values agree; otherwise keep the first witness and return False."""
        if symbolic == oracle:
            return True
        if self.witness is None:
            self.witness = _witness(check, symbolic, oracle, str(diagram), word)
        return False


def _words(word: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in word)


def _witness(check: str, symbolic, oracle, diagram: str, word: tuple[int, ...]) -> dict[str, str]:
    doc = {"check": check, "diagram": diagram, "word": _words(word)}
    if isinstance(symbolic, HeckeElement):
        expected, got = symbolic.coeffs, oracle.coeffs
        w = min(w for w in expected.keys() | got.keys() if expected.get(w) != got.get(w))
        doc["basis_word"] = _words(reduced_word(w))
        symbolic, oracle = expected.get(w, Fraction(0)), got.get(w, Fraction(0))
    doc["symbolic"], doc["oracle"] = str(symbolic), str(oracle)
    return doc


def oracle_checks(n: int, q0: Fraction) -> OracleReport:
    """Run the oracle invariants at (n, q0) and report each outcome.

    Covers centrality of the fundamental invariant, the projector
    algebra (idempotence, orthogonality, resolution of the identity,
    regular traces equal to squared dimensions), and agreement of the
    symbolic connected and doubly-connected traces with the oracle.
    Each check stops at its first failing comparison.
    """
    report = OracleReport()
    checks, compare = report.checks, report.compare
    parts = partitions(n)
    invariant = fundamental_invariant(n, q0)

    name = "fundamental_invariant_central"
    generators = [word_element(n, q0, (i,)) for i in range(1, n)]
    checks[name] = all(
        compare(name, gi * invariant, invariant * gi, word=(i,)) for i, gi in enumerate(generators, 1)
    )

    projectors = {g: projector_element(hecke_projector(g, n, q0)) for g in parts}
    name = "projector_idempotent"
    checks[name] = all(compare(name, p, p * p, g) for g, p in projectors.items())
    name = "projector_pairwise_orthogonal"
    zero = HeckeElement.zero(n, q0)
    checks[name] = all(
        compare(name, zero, p * p2, f"{g} * {h}")
        for g, p in projectors.items()
        for h, p2 in projectors.items()
        if g != h
    )
    name = "projector_resolution_of_identity"
    checks[name] = compare(name, HeckeElement.identity(n, q0), sum(projectors.values(), zero))
    name = "projector_regular_trace_dimension"
    checks[name] = all(
        compare(name, Fraction(dimension(g)) ** 2, regular_trace(p), g) for g, p in projectors.items()
    )

    def trace_check(name: str, g: YoungDiagram, symbolic, word: tuple[int, ...]) -> bool:
        return compare(name, symbolic.evaluate(q0), irreducible_trace(g, word, n, q0), g, word)

    name = "simply_connected_traces_agree"
    checks[name] = all(
        trace_check(name, g, simply_connected_trace(g, k), tuple(range(1, k)))
        for g in parts
        for k in range(2, n + 1)
    )

    if n >= 4:
        words = {"g1*g3": (1, 3), "g1*g3*g4": (1, 3, 4)} if n >= 5 else {"g1*g3": (1, 3)}
        name = "doubly_connected_traces_agree"
        checks[name] = True
        for g in parts:
            solved = doubly_connected_traces(g)
            if not all(trace_check(name, g, solved[label], word) for label, word in words.items()):
                checks[name] = False
                break
    return report
