"""Quantum unitary group irreps: Gelfand-Tsetlin patterns and the
quadratic Casimir spectrum.

An irrep of the q-deformed SU(N) is labeled by its top row, a weakly
decreasing tuple of N integers normalized to end in 0; its basis states
are the integer triangular patterns interlacing down from that row.  The
(normalized) quadratic Casimir acts on the irrep as

    sum_{k=1}^{N-1} q^(2(l_k - k))

where l_k are the Young-diagram row lengths.  Because l_k - k is
strictly decreasing, the spectrum is a sum of distinct even powers of q
and can be sorted back into the diagram, and after the substitution
q -> q^2 on the Hecke side the two fundamental invariants determine one
another through an explicit Laurent-polynomial identity.

Chevalley matrix elements are handled only as squared magnitudes, which
are exact rationals at any rational q0 > 1; phase conventions never
enter the diagonal commutator checks they are used for.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _iter_product
from math import prod

from .diagrams import YoungDiagram
from .invariant import InvalidSpectrum, invariant_eigenvalue
from .laurent import FrozenRecord, LaurentPoly, _integer, _integers, _scalar, q_integer, symmetric_bracket

__all__ = [
    "PatternViolation",
    "SuqIrrep",
    "GZPattern",
    "gz_patterns",
    "casimir_eigenvalue",
    "hecke_casimir_correspondence",
    "irrep_from_casimir",
    "lowering_squared",
    "chevalley_weight",
    "check_ef_commutator",
]

_RATIO = LaurentPoly({0: 1, -2: -1})  # (q^2 - 1)/q^2
_RATIO_SQUARED = _RATIO * _RATIO


class PatternViolation(ValueError):
    """A pattern shift left the Gelfand-Tsetlin cone."""


class SuqIrrep(FrozenRecord):
    """An irrep label: N and the top row, normalized so the last entry is 0."""

    __slots__ = __match_args__ = ("N", "top")
    N: int
    top: tuple[int, ...]

    def __init__(self, N: int, top: tuple[int, ...]):
        top = tuple(top)
        super().__init__(N, top)
        if len(top) != _integer(N, "N", 2):
            raise ValueError(f"top row must have {N} entries, got {top}")
        for h in top:
            _integer(h, "top row entry", 0)
        if any(top[i] < top[i + 1] for i in range(N - 1)):
            raise ValueError(f"top row must be weakly decreasing, got {top}")
        if top[-1] != 0:
            raise ValueError(f"top row must be normalized to end in 0, got {top}")

    @classmethod
    def from_rows(cls, N: int, rows: tuple[int, ...]) -> "SuqIrrep":
        """Build from Young-diagram row lengths (at most N-1 nonzero rows)."""
        _integer(N, "N", 2)
        rows = tuple(rows)
        if any(rows[N - 1 :]):
            raise ValueError(f"rows {rows} exceed the {N - 1}-row limit for N={N}")
        padded = rows[: N - 1] + (0,) * (N - 1 - len(rows))
        return cls(N, padded + (0,))

    @classmethod
    def from_diagram(cls, g: YoungDiagram, N: int) -> "SuqIrrep":
        return cls.from_rows(N, g.rows)

    @classmethod
    def from_string(cls, text: str) -> "SuqIrrep":
        """Parse ``N:l1,l2,...`` with trailing zeros optional."""
        try:
            n_text, rows_text = text.split(":")
            (N,) = _integers(n_text, "N")
            rows = _integers(rows_text, "rows") if rows_text else ()
        except ValueError as exc:
            raise ValueError(f"cannot parse irrep {text!r} (expected 'N:l1,l2,...')") from exc
        return cls.from_rows(N, rows)

    @property
    def row_lengths(self) -> tuple[int, ...]:
        """The N-1 Young-diagram row lengths (zeros included)."""
        return self.top[: self.N - 1]

    @property
    def boxes(self) -> int:
        return sum(self.top)

    @property
    def dimension(self) -> int:
        """The number of Gelfand-Tsetlin patterns, by Weyl's formula
        prod_{i<j} (m_i - m_j + j - i) / (j - i) over the top row m; pairs
        of equal entries give 1, so i stops at the trailing zeros."""
        m = self.top
        pairs = [(i, j) for i in range(self.N - m.count(0)) for j in range(i + 1, self.N)]
        return prod(m[i] - m[j] + j - i for i, j in pairs) // prod(j - i for i, j in pairs)

    def __str__(self) -> str:
        return f"{self.N}:" + ",".join(str(h) for h in self.row_lengths)


def _interlaces(upper: tuple[int, ...], lower: tuple[int, ...]) -> bool:
    return all(upper[i] >= lower[i] >= upper[i + 1] for i in range(len(lower)))


class GZPattern(FrozenRecord):
    """A Gelfand-Tsetlin pattern: rows[j-1] is row j (length j), rows[N-1]
    is the irrep's top row, and consecutive rows interlace."""

    __slots__ = __match_args__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(_integer(h, "pattern entry") for h in r) for r in rows)
        super().__init__(rows)
        if not rows or any(len(r) != j for j, r in enumerate(rows, start=1)):
            raise ValueError("row j of a pattern must have length j")
        for j in range(len(rows) - 1):
            if not _interlaces(rows[j + 1], rows[j]):
                raise PatternViolation(f"rows {rows[j + 1]} / {rows[j]} do not interlace")

    @property
    def N(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """The entry h_{i,j}; anything but integers 1 <= i <= j <= N is refused."""
        return self.rows[_integer(j, "j", 1, self.N) - 1][_integer(i, "i", 1, j) - 1]

    def shifted(self, i: int, j: int, delta: int) -> "GZPattern | None":
        """The pattern with h_{i,j} changed by the integer delta, or None if
        that leaves the cone."""
        value = self.entry(i, j) + _integer(delta, "delta")
        row = self.rows[j - 1]
        try:
            return GZPattern(self.rows[: j - 1] + (row[: i - 1] + (value,) + row[i:],) + self.rows[j:])
        except PatternViolation:
            return None


def gz_patterns(irrep: SuqIrrep) -> list[GZPattern]:
    """All patterns with the irrep's top row; their count is `SuqIrrep.dimension`."""
    def complete(acc: list[tuple[int, ...]], out: list[GZPattern]) -> None:
        upper = acc[-1]
        m = len(upper) - 1
        if m == 0:
            out.append(GZPattern(tuple(reversed(acc))))
            return
        ranges = [range(upper[i + 1], upper[i] + 1) for i in range(m)]
        for combo in _iter_product(*ranges):
            complete(acc + [combo], out)

    out: list[GZPattern] = []
    complete([irrep.top], out)
    return out


def casimir_eigenvalue(irrep: SuqIrrep) -> LaurentPoly:
    """Spectrum of the normalized quadratic Casimir on the irrep.

    The sum of q^(2(l_k - k)) over k = 1..N-1, with l_k the row lengths.
    """
    return LaurentPoly((2 * (l - k), 1) for k, l in enumerate(irrep.row_lengths, start=1))


def hecke_casimir_correspondence(g: YoungDiagram, N: int) -> bool:
    """Check the exact identity tying the two fundamental invariants.

    With L(q) the invariant eigenvalue of g on the Hecke side and n the
    number of boxes,

        ((q^2-1)/q^2)^2 L(q^2) + ((q^2-1)/q^2) n
            = casimir_eigenvalue + (q^(-2(N-1)) - 1)/(q^2 - 1)

    as Laurent polynomials, provided g fits in N - 1 rows.
    """
    lhs = _RATIO_SQUARED * invariant_eigenvalue(g).substitute_power(2) + _RATIO * g.n
    rhs = casimir_eigenvalue(SuqIrrep.from_diagram(g, N)) + q_integer(-(N - 1)).substitute_power(2)
    return lhs == rhs


def irrep_from_casimir(spectrum: LaurentPoly, N: int) -> SuqIrrep:
    """Recover the irrep from a Casimir spectrum polynomial.

    The spectrum must be a sum of exactly N-1 distinct even powers of q
    with unit coefficients; sorting the halved exponents L_k in
    decreasing order and setting l_k = L_k + k rebuilds the row lengths.
    """
    _integer(N, "N", 2)
    terms = spectrum.terms
    if len(terms) != N - 1:
        raise InvalidSpectrum(f"expected {N - 1} distinct powers, got {len(terms)}")
    if any(c != 1 for c in terms.values()):
        raise InvalidSpectrum(f"all coefficients must be 1 in {spectrum}")
    if any(e % 2 for e in terms):
        raise InvalidSpectrum(f"exponents must be even in {spectrum}")
    big_l = sorted((e // 2 for e in terms), reverse=True)
    rows = tuple(l + k for k, l in enumerate(big_l, start=1))
    try:
        return SuqIrrep.from_rows(N, rows)
    except ValueError as exc:
        raise InvalidSpectrum(f"{spectrum} does not sort into valid row lengths") from exc


def _q0_above_one(q0) -> Fraction:
    q0 = Fraction(_scalar(q0))
    if q0 <= 1:
        raise ValueError("q0 must be a rational greater than 1")
    return q0


def _bracket_at(x: int, q0: Fraction) -> Fraction:
    return symmetric_bracket(x).evaluate(q0)


def lowering_squared(p: GZPattern, j: int, k: int, q0) -> Fraction:
    """Squared magnitude of the lowering matrix element at entry (j, k).

    For the Chevalley lowering operator f_k acting on pattern p, the
    state with h_{j,k} lowered by one is reached with squared amplitude

        -P1 * P2 / P3

    built from symmetric brackets of entry differences in rows k+1, k-1
    and k.  The value is an exact rational at rational q0 > 1, never a
    square root.  If lowering h_{j,k} leaves the cone, the element is
    zero.
    """
    _integer(k, "k", 1, p.N - 1)
    _integer(j, "j", 1, k)
    q0 = _q0_above_one(q0)
    if p.shifted(j, k, -1) is None:
        return Fraction(0)
    h_jk = p.entry(j, k)
    p1 = Fraction(1)
    for i in range(1, k + 2):
        p1 *= _bracket_at(p.entry(i, k + 1) - h_jk - i + j + 1, q0)
    p2 = Fraction(1)
    for i in range(1, k):
        p2 *= _bracket_at(p.entry(i, k - 1) - h_jk - i + j, q0)
    p3 = Fraction(1)
    for i in range(1, k + 1):
        if i == j:
            continue
        diff = p.entry(i, k) - h_jk - i + j
        p3 *= _bracket_at(diff + 1, q0) * _bracket_at(diff, q0)
    return -p1 * p2 / p3


def chevalley_weight(p: GZPattern, k: int) -> int:
    """Exponent of the diagonal Cartan action q^(h_k) on the pattern:
    twice the row-k sum minus the sums of rows k+1 and k-1."""
    _integer(k, "k", 1, p.N - 1)
    total = 2 * sum(p.rows[k - 1]) - sum(p.rows[k])
    if k >= 2:
        total -= sum(p.rows[k - 2])
    return total


def check_ef_commutator(irrep: SuqIrrep, k: int, q0) -> bool:
    """Verify the diagonal Chevalley relation [e_k, f_k] = [h_k]_s.

    On each basis pattern, the sum of squared lowering amplitudes out of
    the state minus the sum of squared amplitudes into it from above must
    equal the symmetric bracket of the Cartan weight, exactly at q0.
    """
    _integer(k, "k", 1, irrep.N - 1)
    q0 = _q0_above_one(q0)
    for p in gz_patterns(irrep):
        down = Fraction(0)
        up = Fraction(0)
        for j in range(1, k + 1):
            down += lowering_squared(p, j, k, q0)
            raised = p.shifted(j, k, +1)
            if raised is not None:
                up += lowering_squared(raised, j, k, q0)
        if down - up != _bracket_at(chevalley_weight(p, k), q0):
            return False
    return True
