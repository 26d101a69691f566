"""Eigenvalues of the fundamental invariant and what they determine.

The fundamental invariant of the Hecke algebra acts on the irrep labeled
by a Young diagram as the sum of the q-contents of its boxes.  For
generic q that single Laurent polynomial separates all irreps, encodes
the diagonal lengths of the diagram in its coefficients, and, through
the substitution q = exp(delta), generates the power sums of the box
contents and hence the central characters of the symmetric group.  This
module implements the eigenvalue, its inversion back to a diagram, the
content power sums, the closed-form central characters of the
single-cycle class-sums for cycle lengths 2 through 5, the depth at
which consecutive power sums separate the irreps of S_n, and the
Lagrange interpolation that turns a spectrum into a central projector.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache, partial
from itertools import accumulate
from types import MappingProxyType

from .diagrams import YoungDiagram, partitions
from .laurent import LaurentPoly, Scalar, _integer, _q_content_sum, is_int

__all__ = [
    "InvalidSpectrum",
    "NonIntegerPowerSum",
    "UnsupportedCycle",
    "invariant_eigenvalue",
    "rescaled_invariant_eigenvalue",
    "reconstruct_diagram",
    "content_power_sum",
    "central_character",
    "central_character_table",
    "lagrange_numerator",
    "power_sums_from_eigenvalue",
    "separating_depth",
    "MAX_SEPARATION_N",
]

# Partitions of n up to here are cheap to sweep when probing separation
# depths; beyond this the partition count makes the probe pointless at
# desk scale.
MAX_SEPARATION_N = 41


class InvalidSpectrum(ValueError):
    """The polynomial does not encode a valid diagram of the stated size."""


class NonIntegerPowerSum(ValueError):
    """A recovered content power sum is not an integer (bad input)."""


class UnsupportedCycle(ValueError):
    """No closed form is implemented for this cycle length."""


def invariant_eigenvalue(g: YoungDiagram) -> LaurentPoly:
    """Eigenvalue of the fundamental invariant on the irrep labeled by g.

    The sum of q-contents q*[j-i]_q over the boxes (i, j) of g.  At q = 1
    it collapses to the content sum, the eigenvalue of the transposition
    class-sum of S_n.

    The diagonal counts are its content histogram, so `q_content_sum`
    reads it off by running sums in O(#rows + #diagonals).
    """
    return _q_content_sum(g.diagonal_counts())


def rescaled_invariant_eigenvalue(g: YoungDiagram) -> LaurentPoly:
    """The (q-1)/q rescaling of the invariant eigenvalue.

    Equals the sum of (q^(j-i) - 1) over boxes, which vanishes at q = 1;
    its expansion around q = exp(delta) has the content power sums as
    Taylor data.  Like the eigenvalue, it reads the content histogram.
    """
    return LaurentPoly(g.diagonal_counts()) - g.n


def content_power_sum(g: YoungDiagram, k: int) -> int:
    """The k-th power sum of the box contents of g (k >= 1), one term m c^k per diagonal."""
    _integer(k, "power sum index", 1)
    return sum(m * c**k for c, m in g.diagonal_counts().items())


def _diagonals_to_rows(beta: dict[int, int]) -> tuple[int, ...]:
    """Convert diagonal lengths {content: count} to row lengths.

    Boxes of content k >= 0 occupy rows 1..beta_k; boxes of content
    k < 0 occupy rows 1-k..beta_k-k.  Row i collects one box from each
    diagonal passing through it, so one difference-array pass over those
    row intervals gives every row length in O(#diagonals + #rows).
    """
    diff = [0] * (max(b + max(-k, 0) for k, b in beta.items()) + 1)
    for k, b in beta.items():
        first = max(-k, 0)
        diff[first] += 1
        diff[first + b] -= 1
    return tuple(accumulate(diff[:-1]))


def reconstruct_diagram(p: LaurentPoly, n: int) -> YoungDiagram:
    """Recover the Young diagram of n boxes whose invariant eigenvalue is p.

    `q_content_sum` makes the coefficient c_k of q^k the count of boxes
    of content >= k for k >= 1, and minus the count of content <= k - 1
    for k <= 0, so one first difference gives every diagonal length on
    both sides of 0: beta_k = c_k - c_(k+1) + n [k = 0].  An eigenvalue's
    exponents form one unbroken run through 0 or 1, or there are none,
    and its contents run from one below that run to its top.
    Neighbouring diagonals of a Young diagram differ by at most one box,
    which is checked before the rows are built: it keeps the row count
    within the number of diagonals, whatever n is.  The reconstructed
    diagram is then validated by recomputing its eigenvalue, so malformed
    input raises `InvalidSpectrum`.
    """
    _integer(n, "n", 1)
    terms = p.terms
    if not all(is_int(coeff) for coeff in terms.values()):
        raise InvalidSpectrum(f"non-integer coefficient in {p}")
    low, high = min(terms, default=1), max(terms, default=0)
    if len(terms) != high - low + 1 or not low <= 1 <= high + 1:
        raise InvalidSpectrum(f"exponents of {p} do not form one unbroken run through 0 or 1")

    contents = range(low - 1, high + 1)
    beta = [terms.get(k, 0) - terms.get(k + 1, 0) + (n if k == 0 else 0) for k in contents]
    # The diagonals past the extremes are empty, so the extremes hold one box.
    lengths = [0, *beta, 0]
    if min(beta) < 0 or any(abs(a - b) > 1 for a, b in zip(lengths, lengths[1:])):
        raise InvalidSpectrum(f"{p} does not give the diagonal lengths of a Young diagram for n={n}")

    rows = _diagonals_to_rows({k: b for k, b in zip(contents, beta) if b})
    try:
        diagram = YoungDiagram(rows)
    except ValueError as exc:
        raise InvalidSpectrum(f"{p} does not reconstruct to a Young diagram") from exc
    if diagram.n != n or invariant_eigenvalue(diagram) != p:
        raise InvalidSpectrum(f"{p} is not the eigenvalue of any diagram of {n} boxes")
    return diagram


def central_character(p: int, g: YoungDiagram) -> int:
    """Eigenvalue of the single-cycle class-sum of cycle length p on g.

    Closed forms in the content power sums s_k of g's n boxes are
    implemented for p = 2..5:

        p=2: s_1
        p=3: s_2 - n(n-1)/2
        p=4: s_3 - (2n-3) s_1
        p=5: s_4 - (3n-10) s_2 - 2 s_1^2 + n(n-1)(5n-19)/6

    When the class is empty (p > n) the formulas evaluate to zero.  Both
    divisions are exact, so the value is an `int`: 2 divides n(n-1), and
    as 5n - 19 = 2(n + 1) mod 3, n(n-1)(5n-19) = 2(n-1)n(n+1) mod 3, and
    three consecutive integers hold a multiple of 3, so 6 divides it.
    """
    n, s = g.n, partial(content_power_sum, g)
    if _integer(p, "p") == 2:
        return s(1)
    if p == 3:
        return s(2) - n * (n - 1) // 2
    if p == 4:
        return s(3) - (2 * n - 3) * s(1)
    if p == 5:
        return s(4) - (3 * n - 10) * s(2) - 2 * s(1) ** 2 + n * (n - 1) * (5 * n - 19) // 6
    raise UnsupportedCycle(f"no closed form for cycle length {p} (supported: 2..5)")


@lru_cache(maxsize=None, typed=True)
def central_character_table(p: int, n: int) -> Mapping[YoungDiagram, int]:
    """The p-cycle class-sum's eigenvalue on each irrep of S_n, p in 2..5.

    Each value is an `int`, by the proof in `central_character`.  The
    table is cached, so it is returned as a read-only view; the cache is
    keyed by type too, so a float or a bool that equals a cached integer
    is still refused.
    """
    return MappingProxyType({g: central_character(p, g) for g in partitions(n)})


def lagrange_numerator(values: Iterable[Scalar], target: Scalar) -> tuple[list[Scalar], Scalar]:
    """The Lagrange polynomial prod (x - v) / (target - v) over the distinct v != target.

    Returns (weights, denominator): the coefficients of prod (x - v),
    lowest degree first, and prod (target - v).  weights / denominator
    is 1 at target and 0 at every other value; a value listed twice
    counts once.  Integer values give integer weights.
    """
    weights = [1]
    denominator = 1
    for v in sorted(set(values) - {target}):
        weights = [a - v * b for a, b in zip([0] + weights, weights + [0])]
        denominator *= target - v
    return weights, denominator


def power_sums_from_eigenvalue(p: LaurentPoly, kmax: int) -> list[int]:
    """Recover content power sums s_1..s_kmax from a rescaled eigenvalue.

    p(exp(delta)) = sum over terms c_e exp(e delta), so its k-th Taylor
    coefficient times k! is s_k = sum of c_e e^k, read straight off the
    terms.  Contents are integers, so a non-integral value means the
    input was not a rescaled invariant eigenvalue and raises
    `NonIntegerPowerSum`; likewise a nonzero constant term, sum of c_e.
    """
    _integer(kmax, "kmax", 1)
    terms = p.terms
    if sum(terms.values()) != 0:
        raise NonIntegerPowerSum("nonzero constant term: not a rescaled eigenvalue")
    sigmas = []
    for k in range(1, kmax + 1):
        value = sum(c * e**k for e, c in terms.items())
        if value.denominator != 1:
            raise NonIntegerPowerSum(f"power sum s_{k} = {value} is not an integer")
        sigmas.append(int(value))
    return sigmas


def separating_depth(n: int) -> int:
    """Minimal k such that (s_1, ..., s_k) separates the partitions of n.

    The tuples of content power sums are compared across all partitions
    of n.  At n = 1 there is one partition and the depth is 1.  Past
    n = 1 it is at most n - 1.  Every diagram of n >= 2 boxes has the
    box (1, 1) of content 0, so e_n, the product of its n contents, is 0.
    Newton's identities k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) s_i give
    e_1..e_(n-1) from s_1..s_(n-1), and with e_n = 0 these fix the
    polynomial whose roots are the contents: the content multiset, which
    is the diagonal counts, which fix the diagram.  So the loop runs to
    n - 1; the raise after it, unreachable by this bound, keeps the
    function from returning None should a power sum ever be wrong.
    """
    _integer(n, "n", 1, MAX_SEPARATION_N)
    parts = partitions(n)
    signatures: list[tuple[int, ...]] = [() for _ in parts]
    for k in range(1, max(n, 2)):
        signatures = [sig + (content_power_sum(g, k),) for sig, g in zip(signatures, parts)]
        if len(set(signatures)) == len(parts):
            return k
    raise AssertionError(f"power sums up to {n - 1} failed to separate partitions of {n}")
