"""The oracle verification suite behind ``heckeq verify``.

Every check compares a predicted value (from the symbolic tables or from
an identity of the algebra) with the value the word-basis oracle
computes at (n, q0).  The first comparison that fails is kept as a
witness, every field a string:

    check       the name of the failing check
    diagram     the irrep label, or "" when the check involves no single irrep
    word        the generator word multiplied in or traced ("" for none)
    symbolic    the predicted value
    oracle      the value the oracle computed

When the compared values are algebra elements, `symbolic` and `oracle`
are their coefficients at the first basis word (in lexicographic order
of permutations) where they differ, and `basis_word` is a reduced word
for it ("" for the identity).  A symmetrizing trace is the coefficient
of the identity, so its witness carries `basis_word` "" too.

No check multiplies two general elements.  The projector identities are
proved from relations that each cost O(n!) or one product p_g C by the
invariant C, which the oracle forms only for a central p_g, so p_g's
centrality is checked first:

    p_g central (g_i p_g = p_g g_i for every generator) and
    p_g C = ev_g p_g make p_g a multiple c e_g of the central idempotent;
    tau(p_g p_g) = tau(p_g) != 0 then forces c = 1: idempotence.
    C central gives ev_g p_g p_h = p_g C p_h = p_g p_h C = ev_h p_g p_h,
    so distinct eigenvalues make p_g p_h = 0: orthogonality.

One pass over the projectors checks both relations for every g.
Idempotence is that pass followed by the tau conditions, and
orthogonality reads the same pass.

The eigenvalues are distinct at every q0 the oracle accepts, for any n
(proved at `hecke_oracle._spectrum`).
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import YoungDiagram, dimension, partitions
from .hecke_oracle import (
    HeckeElement,
    _check_n,
    _spectrum,
    _times_invariant,
    fundamental_invariant,
    irreducible_trace,
    projector_element,
    reduced_word,
    regular_trace,
    symmetrizing_trace,
)
from .traces import doubly_connected_traces, simply_connected_trace

__all__ = ["OracleReport", "oracle_checks"]


class OracleReport:
    """Each check's outcome, and the first failing comparison (None if all pass)."""

    def __init__(self) -> None:
        self.checks: dict[str, bool] = {}
        self.witness: dict[str, str] | None = None

    def compare(self, check: str, symbolic, oracle, diagram: YoungDiagram | str = "",
                word: tuple[int, ...] = (), basis_word: tuple[int, ...] | None = None) -> bool:
        """True when the values agree; otherwise keep the first witness and return False."""
        return symbolic == oracle or self.fail(check, symbolic, oracle, diagram, word, basis_word)

    def fail(self, check: str, symbolic, oracle, diagram: YoungDiagram | str = "",
             word: tuple[int, ...] = (), basis_word: tuple[int, ...] | None = None) -> bool:
        """Keep the first witness and return False."""
        if self.witness is None:
            self.witness = _witness(check, symbolic, oracle, str(diagram), word, basis_word)
        return False


def _words(word: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in word)


def _witness(check: str, symbolic, oracle, diagram: str, word: tuple[int, ...],
             basis_word: tuple[int, ...] | None) -> dict[str, str]:
    doc = {"check": check, "diagram": diagram, "word": _words(word)}
    if isinstance(symbolic, HeckeElement):
        expected, got = symbolic.coeffs, oracle.coeffs
        w = min(w for w in expected.keys() | got.keys() if expected.get(w) != got.get(w))
        basis_word = reduced_word(w)
        symbolic, oracle = expected.get(w, Fraction(0)), got.get(w, Fraction(0))
    if basis_word is not None:
        doc["basis_word"] = _words(basis_word)
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
    _check_n(n)
    report = OracleReport()
    checks, compare = report.checks, report.compare
    parts = partitions(n)
    one = HeckeElement.identity(n, q0)

    def central(name: str, x: HeckeElement, g: YoungDiagram | str = "") -> bool:
        return all(
            compare(name, x.times_generator(i, "left"), x.times_generator(i), g, (i,)) for i in range(1, n)
        )

    name = "fundamental_invariant_central"
    checks[name] = central(name, fundamental_invariant(n, q0))

    projectors = {g: projector_element(g, q0) for g in parts}
    eigenvalues = _spectrum(n, q0)

    name = "projector_idempotent"
    eigenvectors = all(
        central(name, p, g) and compare(name, p * eigenvalues[g], _times_invariant(p), g) for g, p in projectors.items()
    )

    def tau_checks(name: str, g: YoungDiagram, p: HeckeElement) -> bool:
        tau = p.coefficient(tuple(range(1, n + 1)))
        return compare(name, tau, symmetrizing_trace(p, p), g, basis_word=()) and (
            tau != 0 or report.fail(name, "nonzero", tau, g, basis_word=())
        )

    checks[name] = eigenvectors and all(tau_checks(name, g, p) for g, p in projectors.items())
    checks["projector_pairwise_orthogonal"] = eigenvectors
    name = "projector_resolution_of_identity"
    checks[name] = compare(name, one, sum(projectors.values(), HeckeElement.zero(n, q0)))
    name = "projector_regular_trace_dimension"
    checks[name] = all(
        compare(name, Fraction(dimension(g)) ** 2, regular_trace(p), g) for g, p in projectors.items()
    )

    def trace_check(name: str, g: YoungDiagram, symbolic, word: tuple[int, ...]) -> bool:
        return compare(name, symbolic.evaluate(q0), irreducible_trace(g, word, q0), g, word)

    name = "simply_connected_traces_agree"
    checks[name] = all(
        trace_check(name, g, simply_connected_trace(g, k), tuple(range(1, k)))
        for g in parts
        for k in range(2, n + 1)
    )

    if n >= 4:
        name = "doubly_connected_traces_agree"
        checks[name] = all(
            trace_check(name, g, trace, tuple(int(x[1:]) for x in label.split("*")))
            for g in parts
            for label, trace in doubly_connected_traces(g).items()
        )
    return report
