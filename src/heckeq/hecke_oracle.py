"""Exact regular representation of the Hecke algebra at a rational q0.

The word basis {g_w} obeys the generator rewriting rule

    g_w g_i = g_{w s_i}                    if len(w s_i) > len(w)
    g_w g_i = (q0-1) g_w + q0 g_{w s_i}    otherwise

and its mirror image on the left, which between them carry all the
defining relations.  With q0 = a/b in lowest terms (b > 0), elements are
stored in the rescaled basis T'_w = b^len(w) g_w.  For T'_i = b g_i the
rule becomes

    T'_w T'_i = T'_{w s_i}                     on an ascent
    T'_w T'_i = (a-b) T'_w + ab T'_{w s_i}     on a descent

with integer coefficients, so integer vectors stay integral under every
generator action.  An element is therefore a dense tuple of Python ints
over the permutations of 1..n, ranked once per n, together with one
positive common denominator, the pair kept in lowest terms so that equal
elements are stored identically.  Nothing divides until a coefficient
or a trace is read out as a Fraction.

No two general elements are ever multiplied.  The one product formed is
x C_n for a central x, where x g_j L_j g_j = g_j (x L_j) g_j lets the
Murphy recursion below multiply too, in 3n - 5 generator actions:

    x L_2 = x g_1,    x L_{j+1} = x g_j + q0^-1 g_j (x L_j) g_j.

The algebra is symmetric: the linear form tau(g_w) = [w = e], the
coefficient of the identity, satisfies tau(g_u g_v) = q0^len(u) when
v = u^-1 and 0 otherwise, so tau(x y) = tau(y x).  In the T' basis
tau(T'_u T'_v) = (ab)^len(u) [v = u^-1], and tau(x y) is a dot product
of x's vector with y's vector read at the inverse words: O(n!) work, no
product formed.  Decomposing tau over the irreps, tau = sum over
diagrams of chi_g / c_g with Schur elements c_g, gives for the central
idempotent e_g

    chi_g(h) = dim(g) * tau(e_g h) / tau(e_g)

(Geck-Pfeiffer, Characters of Finite Coxeter Groups and Iwahori-Hecke
Algebras, 2000, ch. 8), which is how irreducible traces are read off.

The regular trace goes through tau as well.  The coefficient of g_w in y
is tau(y d_w) for the dual basis d_w = q0^-len(w) g_{w^-1}, so the
trace of left multiplication by x is

    tr_reg(x) = sum_w tau(x g_w d_w) = tau(x z),   z = sum_w g_w d_w,

one dot product against the central element z, built once per (n, q0).

On top of the arithmetic sit the fundamental invariant C_n, the sum of
the Murphy operators, and central projectors obtained by Lagrange
interpolation on its spectrum at q0.  The Murphy operators come from the
Jucys-Murphy recursion

    L_2 = g_1,    L_{i+1} = g_i + q0^-1 g_i L_i g_i,

whose conjugation step X -> q0^-1 g_j X g_j also builds z, so C_n costs
3n - 5 generator actions.  The spectrum, the eigenvalue of C_n on each
diagram at q0, is evaluated once per (n, q0) and read by every
projector and by `heckeq verify`; it is where q0 = 1, q0 = -1 and a
q0 at which two eigenvalues collide are refused.  Together with the
two traces these produce exact irreducible traces, the oracle every
symbolic result in the package is checked against.

The facts of an (n, q0) pair, the projectors included, are kept for the
last 8 pairs, and word products for the last 64.  Only the per-n
tables, whose keys `MAX_ORACLE_N` bounds, are kept for good.

The representation is specialized at a rational q0 rather than kept
symbolic because any rational with |q0| not in {0, 1} is never a root
of unity, which is all the genericity the spectrum needs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, islice, permutations
from math import gcd, lcm
from types import MappingProxyType

from .diagrams import YoungDiagram, dimension, partitions
from .invariant import invariant_eigenvalue, lagrange_numerator
from .laurent import FrozenRecord, _integer, _scalar, is_scalar
from .symgroup import _permutation

__all__ = [
    "MAX_ORACLE_N",
    "MAX_Q0_BITS",
    "DegenerateSpecialization",
    "HeckeElement",
    "word_element",
    "fundamental_invariant",
    "murphy_element",
    "regular_trace",
    "symmetrizing_trace",
    "hecke_projector",
    "projector_element",
    "irreducible_trace",
]

# Word-basis arithmetic scales with n!; S_7 is the intended ceiling.  The
# coefficients grow with the bits of q0 = a/b, so |a| and b are capped too.
MAX_ORACLE_N = 7
MAX_Q0_BITS = 64


class DegenerateSpecialization(ValueError):
    """Two invariant eigenvalues collide at the chosen q0."""


def _check_n(n: int) -> None:
    if _integer(n, "n", 1) > MAX_ORACLE_N:
        raise ValueError(f"the regular-representation oracle is capped at n <= {MAX_ORACLE_N}")


def _check_q0(q0) -> Fraction:
    value = Fraction(_scalar(q0))
    if value == 0:
        raise ValueError("q0 = 0 is outside the algebra's parameter range")
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_Q0_BITS:
        raise ValueError(f"q0's numerator and denominator are capped at {MAX_Q0_BITS} bits")
    return value


# The per-n tables of the integer kernel, indexed by permutation rank
# (rank 0 is the identity): the permutations, their ranks, their lengths
# (inversion counts), for each generator i the action tables right[i-1]
# and left[i-1], each a pair (rank of the swapped permutation, whether
# the swap lengthens it), and the rank of each permutation's inverse.
# The left tables are the right ones read through `inverse`:
# s_i w = (w^-1 s_i)^-1 and len(w) = len(w^-1), so
# left_i[r] = (inverse[rswap_i[inverse[r]]], rup_i[inverse[r]]).
_Kernel = namedtuple("_Kernel", "perms rank lengths right left inverse")


@cache
def _kernel(n: int) -> _Kernel:
    perms = tuple(permutations(range(1, n + 1)))
    rank = {w: r for r, w in enumerate(perms)}
    right = []
    for i in range(1, n):
        swap = tuple(rank[w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]] for w in perms)
        right.append((swap, tuple(w[i - 1] < w[i] for w in perms)))
    # the positions sorted by the values they hold spell the inverse
    inverse = tuple(rank[tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1]))] for w in perms)
    left = tuple((tuple(inverse[swap[j]] for j in inverse), tuple(up[j] for j in inverse)) for swap, up in right)
    lengths = tuple(sum(u > v for u, v in combinations(w, 2)) for w in perms)
    return _Kernel(perms, rank, lengths, tuple(right), left, inverse)


def _rank(n: int, perm) -> int:
    """The rank of a permutation of 1..n; anything else is refused by `_permutation`."""
    return _kernel(n).rank[_permutation(perm, n)]


def _act(v, table, q0: Fraction) -> list[int]:
    """One T'_i action (right or left, by the table) on an integer vector at q0 = a/b."""
    swap, up = table
    ab, amb = q0.numerator * q0.denominator, q0.numerator - q0.denominator
    return [ab * v[j] if u else amb * c + v[j] for c, j, u in zip(v, swap, up)]


def _reduced(n: int, q0: Fraction, vec, den: int) -> tuple:
    """The fields of the element vec/den (den != 0) in the T' basis, in lowest terms, den > 0."""
    g = gcd(den, *vec) if den > 0 else -gcd(den, *vec)  # the sign goes into the vector
    return n, q0, tuple(vec) if g == 1 else tuple(c // g for c in vec), den // g


class HeckeElement(FrozenRecord):
    """A Hecke-algebra element at specialized q0, in the word basis.

    A `FrozenRecord` of n, q0 and the reduced vector and denominator, so
    the cached instances handed out by the constructors below (invariant,
    projector elements) cannot be altered; `coeffs` builds a fresh dict
    on every read, and all arithmetic returns new objects.
    """

    __slots__ = __match_args__ = ("n", "q0", "_vec", "_den")

    def __init__(self, n: int, q0, coeffs: dict[tuple[int, ...], Fraction] | None = None):
        _check_n(n)
        q0 = _check_q0(q0)
        kernel = _kernel(n)
        scaled: dict[int, Fraction] = {}
        for perm, c in (coeffs or {}).items():
            r = _rank(n, perm)
            scaled[r] = Fraction(_scalar(c)) / q0.denominator ** kernel.lengths[r]
        den = lcm(*(f.denominator for f in scaled.values()))
        vec = [0] * len(kernel.perms)
        for r, f in scaled.items():
            vec[r] = f.numerator * (den // f.denominator)
        FrozenRecord.__init__(self, *_reduced(n, q0, vec, den))

    @classmethod
    def _make(cls, n: int, q0: Fraction, vec, den: int) -> "HeckeElement":
        """The element vec/den (den != 0) in the T' basis, reduced to lowest terms."""
        return cls._of(*_reduced(n, q0, vec, den))

    @classmethod
    def zero(cls, n: int, q0) -> "HeckeElement":
        return cls(n, q0)

    @classmethod
    def identity(cls, n: int, q0) -> "HeckeElement":
        _check_n(n)
        return cls(n, q0, {tuple(range(1, n + 1)): 1})

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        """The nonzero word-basis coefficients {w: coefficient of g_w}, as a new dict."""
        kernel = _kernel(self.n)
        b = self.q0.denominator
        return {
            kernel.perms[r]: Fraction(c * b ** kernel.lengths[r], self._den)
            for r, c in enumerate(self._vec)
            if c
        }

    def coefficient(self, perm: tuple[int, ...]) -> Fraction:
        """The coefficient of g_perm; a non-permutation is refused as by the constructor."""
        r = _rank(self.n, perm)
        return Fraction(self._vec[r] * self.q0.denominator ** _kernel(self.n).lengths[r], self._den)

    @property
    def support_size(self) -> int:
        return len(self._vec) - self._vec.count(0)

    def _check_compatible(self, other: "HeckeElement") -> None:
        if self.n != other.n or self.q0 != other.q0:
            raise ValueError("mixing elements of different algebras or specializations")

    def times_generator(self, i: int, side: str = "right") -> "HeckeElement":
        """Multiply by the i-th generator g_i = T'_i / b on the given side.

        Right multiplication swaps the entries at positions i, i+1 of
        each basis word; left multiplication swaps the values i, i+1.
        """
        n, q0 = self.n, self.q0
        _integer(i, "generator index", 1, n - 1)
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        kernel = _kernel(n)
        table = kernel.right[i - 1] if side == "right" else kernel.left[i - 1]
        return HeckeElement._make(n, q0, _act(self._vec, table, q0), self._den * q0.denominator)

    def __add__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        total = [s * x + t * y for x, y in zip(self._vec, other._vec)]
        return HeckeElement._make(self.n, self.q0, total, den)

    def __neg__(self):
        return HeckeElement._make(self.n, self.q0, [-x for x in self._vec], self._den)

    def __sub__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """A scalar multiple; the product of two elements is not offered (see `_times_invariant`)."""
        if is_scalar(other):
            numerator, denominator = other.as_integer_ratio()
            return HeckeElement._make(self.n, self.q0, [numerator * x for x in self._vec], self._den * denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"HeckeElement(n={self.n}, q0={self.q0}, {self.support_size} basis terms)"


def reduced_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """A fixed reduced word for the permutation (first-descent stripping).

    Repeatedly swapping away the first descent sorts the one-line
    notation in exactly inversion-count many adjacent swaps; reading the
    recorded swaps backwards gives a deterministic reduced word.
    """
    w = list(perm)
    n = len(w)
    removed: list[int] = []
    while True:
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                removed.append(i + 1)
                break
        else:
            break
    return tuple(reversed(removed))


def word_element(n: int, q0, word: tuple[int, ...] | list[int]) -> HeckeElement:
    """The product of the word's generators g_{i1} ... g_{ik}, built once per (n, q0, word) and shared.

    Cached for the last 64 once n, q0 and the word are checked, keyed by q0's `Fraction`.
    """
    _check_n(n)
    word = tuple(_integer(i, "generator index", 1, n - 1) for i in word)
    return _word_product(n, _check_q0(q0), word)


@lru_cache(maxsize=64)
def _word_product(n: int, q0: Fraction, word: tuple[int, ...]) -> HeckeElement:
    element = HeckeElement.identity(n, q0)
    for i in word:
        element = element.times_generator(i)
    return element


def _conjugate(x: HeckeElement, j: int) -> HeckeElement:
    """q0^-1 g_j x g_j = T'_j (vec/den) T'_j / (ab), both actions reduced at once."""
    kernel = _kernel(x.n)
    vec = _act(_act(x._vec, kernel.left[j - 1], x.q0), kernel.right[j - 1], x.q0)
    return HeckeElement._make(x.n, x.q0, vec, x._den * x.q0.numerator * x.q0.denominator)


def _murphy_terms(x: HeckeElement) -> Iterator[HeckeElement]:
    """x L_2, ..., x L_n by the module docstring's recursion, for x central (or 1) only."""
    for j in range(1, x.n):
        term = x.times_generator(j) if j == 1 else x.times_generator(j) + _conjugate(term, j)
        yield term


def murphy_element(n: int, q0, i: int) -> HeckeElement:
    """The i-th Murphy operator inside the n-strand algebra, built anew on each call.

    The Jucys-Murphy recursion L_2 = g_1 and
    L_i = g_{i-1} + q0^-1 g_{i-1} L_{i-1} g_{i-1} expands into the
    sandwich words ending at generator i-1:

        L_i = sum_{j=1}^{i-1} q0^(j-i+1) g_j g_{j+1} ... g_{i-1} ... g_{j+1} g_j

    each summand a single basis word (a transposition).
    """
    _check_n(n)
    _integer(i, "Murphy index", 2, n)
    return next(islice(_murphy_terms(HeckeElement.identity(n, q0)), i - 2, None))


def _times_invariant(x: HeckeElement) -> HeckeElement:
    """x C for a central x, C the fundamental invariant; for any other x it is not x C.

    The sum of the x L_j, 3n - 5 generator actions; zero at n = 1, where
    the sum is empty.
    """
    terms = _murphy_terms(x)
    return sum(terms, next(terms, HeckeElement.zero(x.n, x.q0)))


def fundamental_invariant(n: int, q0) -> HeckeElement:
    """The fundamental invariant: the sum of all Murphy operators.

    Central in the algebra; its spectrum is given by `invariant_eigenvalue`
    specialized at q0.  Built as 1 C by `_times_invariant`; zero at n = 1.
    Cached for the last 8 (n, q0) once both are checked, keyed by q0's `Fraction`.
    """
    _check_n(n)
    return _invariant(n, _check_q0(q0))


@lru_cache(maxsize=8)
def _invariant(n: int, q0: Fraction) -> HeckeElement:
    return _times_invariant(HeckeElement.identity(n, q0))


def regular_trace(x: HeckeElement) -> Fraction:
    """Trace of left multiplication by x on the word basis.

    The diagonal entry at basis word w is the coefficient of g_w in
    x * g_w, which is tau(x g_w d_w); summed over w that is tau(x z)
    for the cached dual-basis sum z, one dot product over the n! words.
    """
    return symmetrizing_trace(x, _dual_basis_sum(x.n, x.q0))


def symmetrizing_trace(x: HeckeElement, y: HeckeElement) -> Fraction:
    """tau(x * y), the identity coefficient of the product, without forming it.

    In the T' basis tau(T'_u T'_v) is (ab)^len(u) when v = u^-1 and 0
    otherwise, so the trace is one integer dot product over the n! words.
    """
    x._check_compatible(y)
    kernel = _kernel(x.n)
    ab = x.q0.numerator * x.q0.denominator
    powers = [ab**k for k in range(x.n * (x.n - 1) // 2 + 1)]
    yv = y._vec
    total = sum(c * yv[s] * powers[k] for c, s, k in zip(x._vec, kernel.inverse, kernel.lengths) if c)
    return Fraction(total, x._den * y._den)


@lru_cache(maxsize=8)
def _dual_basis_sum(n: int, q0: Fraction) -> HeckeElement:
    """z = sum_w g_w d_w over the word basis and its tau-dual d_w = q0^-len(w) g_{w^-1}.

    Every w factors as v_2 v_3 ... v_n with lengths adding, v_k one of
    1, s_{k-1}, s_{k-1} s_{k-2}, ..., s_{k-1} ... s_1, so z is built from
    Y = 1 by Y <- sum_v q0^-len(v) g_v Y g_{v^-1} for k = n down to 2.
    Each level's sum is nested by Horner's scheme, innermost generator
    first: S = Y, then S <- Y + q0^-1 g_j S g_j for j = 1 .. k-1, two
    generator actions a step and n(n-1) in all.
    """
    y = HeckeElement.identity(n, q0)
    for k in range(n, 1, -1):
        s = y
        for j in range(1, k):
            s = y + _conjugate(s, j)
        y = s
    return y


def hecke_projector(g: YoungDiagram, q0) -> tuple[Fraction, ...]:
    """Lagrange interpolation onto g's eigenvalue of the invariant, coefficients in ascending degree.

    The degree is one less than the number of partitions of n, the
    diagram's box count.  The coefficients come from
    `invariant.lagrange_numerator`, which `symgroup.build_projector`
    uses too.  The spectrum of `_spectrum` refuses q0 = 1 and q0 = -1
    and any q0 at which two eigenvalues collide.  Built anew on each
    call; `projector_element` keeps the projectors themselves.
    """
    _check_n(g.n)
    values = _spectrum(g.n, _check_q0(q0))
    weights, denominator = lagrange_numerator(values.values(), values[g])
    return tuple(Fraction(c) / denominator for c in weights)


@lru_cache(maxsize=8)
def _spectrum(n: int, q0: Fraction) -> MappingProxyType[YoungDiagram, Fraction]:
    """The invariant's eigenvalue on each diagram of n at q0, asserted distinct.

    The one place the spectrum is evaluated, and the one place a q0 is
    refused for the projectors: q0 = 1 and q0 = -1 are roots of unity,
    where the word basis stops being semisimple-generic, and elsewhere
    two eigenvalues may collide.  The cached mapping is shared, so it
    is read-only.
    """
    if q0 == 1 or q0 == -1:
        raise DegenerateSpecialization(f"q0 = {q0} is a root of unity")
    values = {g: invariant_eigenvalue(g).evaluate(q0) for g in partitions(n)}
    if len(set(values.values())) != len(values):
        raise DegenerateSpecialization(f"invariant eigenvalues collide at q0 = {q0}")
    return MappingProxyType(values)


def projector_element(g: YoungDiagram, q0) -> HeckeElement:
    """The central idempotent of g at q0, the `hecke_projector` polynomial in the invariant.

    Read off `_projectors`, which builds every projector of (g.n, q0)
    at once and is cached for the last 8 (n, q0) once both are checked,
    keyed by q0's `Fraction`.  So the first projector of an (n, q0)
    costs all of them: at n = 7 a cold `irreducible_trace` of the
    diagram 4,3 takes 0.52 s against 0.36 s for one projector built
    alone, while all 15 diagrams take 0.53 s either way (x86_64, 2
    vCPUs, Python 3.11.7).  `verify`, which reads every diagram, pays
    nothing extra.
    """
    _check_n(g.n)
    return _projectors(g.n, _check_q0(q0))[g]


@lru_cache(maxsize=8)
def _projectors(n: int, q0: Fraction) -> MappingProxyType[YoungDiagram, HeckeElement]:
    """Every projector of (n, q0), each a sum of c_k C^k over one run of powers of C.

    The powers 1, C, C^2, ... start from the cached invariant of
    `_invariant`; every power of C is central, so each further one is
    the previous one through `_times_invariant`.  Each projector is one
    integer combination of the powers' vectors over a common
    denominator, reduced once at the end.  The powers are dropped once
    the projectors are built; the mapping is shared, so it is read-only.
    """
    coefficients = {g: hecke_projector(g, q0) for g in partitions(n)}
    powers = [HeckeElement.identity(n, q0), _invariant(n, q0)]
    while len(powers) < len(coefficients):
        powers.append(_times_invariant(powers[-1]))
    projectors = {}
    for g, coeffs in coefficients.items():
        terms = [(c, power) for c, power in zip(coeffs, powers) if c]
        den = lcm(*(c.denominator * power._den for c, power in terms))
        total = [0] * len(powers[0]._vec)
        for c, power in terms:
            s = c.numerator * (den // (c.denominator * power._den))
            total = [t + s * x for t, x in zip(total, power._vec)]
        projectors[g] = HeckeElement._make(n, q0, total, den)
    return MappingProxyType(projectors)


def irreducible_trace(g: YoungDiagram, word: tuple[int, ...], q0) -> Fraction:
    """Exact trace of a generator word in the irrep labeled by g, in the algebra on g.n strands.

    With e_g the central idempotent and tau the symmetrizing trace,
    chi_g(h) = dim(g) * tau(e_g h) / tau(e_g).  tau(e_g h) is a dot
    product of e_g's coefficients, never a product of elements, and
    tau(e_g) is e_g's identity coefficient, read directly.
    """
    p = projector_element(g, q0)
    x = word_element(p.n, p.q0, word)
    return dimension(g) * symmetrizing_trace(p, x) / p.coefficient(tuple(range(1, g.n + 1)))
