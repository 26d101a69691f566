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
generator action and product.  An element is therefore a dense tuple of
Python ints over the permutations of 1..n, ranked once per n, together
with one positive common denominator, the pair kept in lowest terms so
that equal elements are stored identically.  Nothing divides until a
coefficient or a trace is read out as a Fraction.

Products and traces share one walk.  The words are the nodes of a
spanning tree of the right weak order, the parent of w being w with its
first descent removed, so x T'_w costs one generator action on x T'_u
for the parent u, and only the vectors on the current root-to-node path
are held.  A product x*y walks the ancestors of y's support and sums
y's coefficients times the x T'_w it reaches.  The trace of left
multiplication walks every node and sums the diagonal entries; the
diagonal change of basis from g to T' does not change it.

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

On top of the arithmetic sit the fundamental invariant (the sum of the
Murphy operators), central projectors obtained by Lagrange interpolation
on its spectrum at q0, and the two traces.  Together these produce
exact irreducible traces, the oracle every symbolic result in the
package is checked against.

The representation is specialized at a rational q0 rather than kept
symbolic because any rational with |q0| not in {0, 1} is never a root
of unity, which is all the genericity the spectrum needs.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, lru_cache
from itertools import permutations
from math import gcd, lcm

from .diagrams import FrozenRecord, YoungDiagram, dimension, partitions
from .invariant import invariant_eigenvalue, lagrange_numerator
from .laurent import is_scalar

__all__ = [
    "MAX_ORACLE_N",
    "DegenerateSpecialization",
    "HeckeElement",
    "ProjectorPoly",
    "word_element",
    "fundamental_invariant",
    "murphy_element",
    "regular_trace",
    "symmetrizing_trace",
    "hecke_projector",
    "apply_projector",
    "projector_element",
    "irreducible_trace",
]

# Word-basis arithmetic scales with n!; S_7 is the intended ceiling.
MAX_ORACLE_N = 7


class DegenerateSpecialization(ValueError):
    """Two invariant eigenvalues collide at the chosen q0."""


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_ORACLE_N:
        raise ValueError(f"the regular-representation oracle is capped at n <= {MAX_ORACLE_N}")


def _check_q0(q0) -> Fraction:
    value = Fraction(q0)
    if value == 0:
        raise ValueError("q0 = 0 is outside the algebra's parameter range")
    return value


# The per-n tables of the integer kernel, indexed by permutation rank
# (rank 0 is the identity): the permutations, their ranks and lengths,
# each one's parent in the first-descent spanning tree, and for each
# generator i the action tables right[i-1] and left[i-1], each a pair
# (rank of the swapped permutation, whether the swap lengthens it).
# `walk` lists the non-root nodes of the tree in depth-first order as
# (rank, generator taking the parent to it, depth = length), and
# `inverse` gives the rank of each permutation's inverse.
_Kernel = namedtuple("_Kernel", "perms rank lengths parent right left walk inverse")


@cache
def _kernel(n: int) -> _Kernel:
    perms = tuple(permutations(range(1, n + 1)))
    rank = {w: r for r, w in enumerate(perms)}
    right = []
    left = []
    for i in range(1, n):
        rows = []
        for w in perms:
            pi, pj = w.index(i), w.index(i + 1)
            v = list(w)
            v[pi], v[pj] = i + 1, i
            swapped = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            rows.append((rank[swapped], w[i - 1] < w[i], rank[tuple(v)], pi < pj))
        rswap, rup, lswap, lup = zip(*rows)
        right.append((rswap, rup))
        left.append((lswap, lup))
    parent = [0] * len(perms)
    children: list[list[tuple[int, int]]] = [[] for _ in perms]
    for r, w in enumerate(perms[1:], 1):
        i = next(i for i in range(1, n) if w[i - 1] > w[i])
        parent[r] = right[i - 1][0][r]
        children[parent[r]].append((r, i))
    lengths = [0] * len(perms)
    walk: list[tuple[int, int, int]] = []
    stack = [(r, i, 1) for r, i in reversed(children[0])]
    while stack:
        r, i, depth = stack.pop()
        lengths[r] = depth
        walk.append((r, i, depth))
        stack.extend((c, j, depth + 1) for c, j in reversed(children[r]))
    # the positions sorted by the values they hold spell the inverse
    inverse = [rank[tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1]))] for w in perms]
    return _Kernel(
        perms, rank, tuple(lengths), tuple(parent), tuple(right), tuple(left), tuple(walk), tuple(inverse)
    )


def _act(v, table, ab: int, amb: int) -> list[int]:
    """One T'_i action (right or left, by the table) on an integer vector."""
    swap, up = table
    return [ab * v[j] if u else amb * c + v[j] for c, j, u in zip(v, swap, up)]


class HeckeElement:
    """A Hecke-algebra element at specialized q0, in the word basis.

    All arithmetic returns new objects, the integer vector is a tuple,
    and `coeffs` builds a fresh dict on every read, so the cached
    instances handed out by the constructors below (invariant, Murphy
    elements, projector elements) cannot be altered through their
    coefficients.
    """

    __slots__ = ("n", "q0", "_vec", "_den")

    def __init__(self, n: int, q0, coeffs: dict[tuple[int, ...], Fraction] | None = None):
        _check_n(n)
        q0 = _check_q0(q0)
        kernel = _kernel(n)
        scaled: dict[int, Fraction] = {}
        for perm, c in (coeffs or {}).items():
            r = kernel.rank.get(tuple(perm))
            if r is None:
                raise ValueError(f"{perm} is not a permutation of 1..{n}")
            scaled[r] = Fraction(c) / q0.denominator ** kernel.lengths[r]
        den = lcm(*(f.denominator for f in scaled.values()))
        vec = [0] * len(kernel.perms)
        for r, f in scaled.items():
            vec[r] = f.numerator * (den // f.denominator)
        self._set(n, q0, vec, den)

    def _set(self, n: int, q0: Fraction, vec, den: int) -> None:
        g = gcd(den, *vec)
        self.n = n
        self.q0 = q0
        self._vec = tuple(vec) if g == 1 else tuple(c // g for c in vec)
        self._den = den // g

    @classmethod
    def _make(cls, n: int, q0: Fraction, vec, den: int) -> "HeckeElement":
        """The element vec/den in the T' basis, reduced to lowest terms."""
        obj = cls.__new__(cls)
        obj._set(n, q0, vec, den)
        return obj

    @classmethod
    def zero(cls, n: int, q0) -> "HeckeElement":
        _check_n(n)
        return cls._make(n, _check_q0(q0), [0] * len(_kernel(n).perms), 1)

    @classmethod
    def identity(cls, n: int, q0) -> "HeckeElement":
        _check_n(n)
        vec = [0] * len(_kernel(n).perms)
        vec[0] = 1
        return cls._make(n, _check_q0(q0), vec, 1)

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
        return self.coeffs.get(tuple(perm), Fraction(0))

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
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} must lie in 1..{n - 1}")
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        kernel = _kernel(n)
        table = kernel.right[i - 1] if side == "right" else kernel.left[i - 1]
        a, b = q0.numerator, q0.denominator
        return HeckeElement._make(n, q0, _act(self._vec, table, a * b, a - b), self._den * b)

    def _walk(self, keep: bytearray | None = None):
        """Yield (rank of w, T' coordinates of den*self*T'_w) down the first-descent tree.

        den is self's denominator, so the vectors are integral.  With
        `keep`, only the nodes it marks are visited; it must contain the
        parent of every node it contains.
        """
        kernel = _kernel(self.n)
        a, b = self.q0.numerator, self.q0.denominator
        ab, amb = a * b, a - b
        path = [self._vec]
        yield 0, self._vec
        for r, i, depth in kernel.walk:
            if keep is None or keep[r]:
                del path[depth:]
                path.append(_act(path[-1], kernel.right[i - 1], ab, amb))
                yield r, path[-1]

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
        if isinstance(other, HeckeElement):
            self._check_compatible(other)
            parent = _kernel(self.n).parent
            weights = other._vec
            keep = bytearray(len(parent))
            for r, c in enumerate(weights):
                if c:
                    while not keep[r]:
                        keep[r] = 1
                        r = parent[r]
            total = [0] * len(parent)
            for r, column in self._walk(keep):
                c = weights[r]
                if c:
                    total = [s + c * x for s, x in zip(total, column)]
            return HeckeElement._make(self.n, self.q0, total, self._den * other._den)
        if is_scalar(other):
            f = Fraction(other)
            scaled = [f.numerator * x for x in self._vec]
            return HeckeElement._make(self.n, self.q0, scaled, self._den * f.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if is_scalar(other):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return (self.n, self.q0, self._den, self._vec) == (other.n, other.q0, other._den, other._vec)

    def __repr__(self):
        return f"HeckeElement(n={self.n}, q0={self.q0}, {self.support_size} basis terms)"


@cache
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
    """The product of generators g_{i1} ... g_{ik} for the given word."""
    element = HeckeElement.identity(n, q0)
    for i in word:
        element = element.times_generator(i)
    return element


@lru_cache(maxsize=128)
def murphy_element(n: int, q0: Fraction, i: int) -> HeckeElement:
    """The i-th Murphy operator inside the n-strand algebra.

    The difference of consecutive fundamental invariants expands into
    the sandwich words ending at generator i-1:

        L_i = sum_{j=1}^{i-1} q0^(j-i+1) g_j g_{j+1} ... g_{i-1} ... g_{j+1} g_j

    so each summand is a single basis word (a transposition).
    """
    _check_n(n)
    q0 = _check_q0(q0)
    if not 2 <= i <= n:
        raise ValueError(f"Murphy index {i} must lie in 2..{n}")
    total = HeckeElement.zero(n, q0)
    for j in range(1, i):
        word = tuple(range(j, i)) + tuple(range(i - 2, j - 1, -1))
        total = total + word_element(n, q0, word) * q0 ** (j - i + 1)
    return total


@lru_cache(maxsize=64)
def fundamental_invariant(n: int, q0: Fraction) -> HeckeElement:
    """The fundamental invariant: the sum of all Murphy operators.

    Central in the algebra; its spectrum is given by `invariant_eigenvalue`
    specialized at q0.  For n = 1 the sum is empty.
    """
    _check_n(n)
    q0 = _check_q0(q0)
    total = HeckeElement.zero(n, q0)
    for m in range(2, n + 1):
        total = total + murphy_element(n, q0, m)
    return total


def regular_trace(x: HeckeElement) -> Fraction:
    """Trace of left multiplication by x on the word basis.

    The diagonal entry at basis word w is the coefficient of w in
    x * g_w.  The walk over the first-descent spanning tree reaches
    every x * T'_w with one generator action each, so the n! columns
    cost n! actions in all.
    """
    return Fraction(sum(column[r] for r, column in x._walk()), x._den)


def symmetrizing_trace(x: HeckeElement, y: HeckeElement) -> Fraction:
    """tau(x * y), the identity coefficient of the product, without forming it.

    In the T' basis tau(T'_u T'_v) is (ab)^len(u) when v = u^-1 and 0
    otherwise, so the trace is one integer dot product over the n! words.
    """
    x._check_compatible(y)
    kernel = _kernel(x.n)
    ab = x.q0.numerator * x.q0.denominator
    powers = [ab**k for k in range(max(kernel.lengths) + 1)]
    yv = y._vec
    total = sum(c * yv[s] * powers[k] for c, s, k in zip(x._vec, kernel.inverse, kernel.lengths) if c)
    return Fraction(total, x._den * y._den)


class ProjectorPoly(FrozenRecord):
    """A central projector expressed as a polynomial in the invariant.

    `coeffs` lists the coefficients in ascending degree; the degree is
    one less than the number of partitions of n.
    """

    __slots__ = __match_args__ = ("diagram", "n", "q0", "coeffs")
    diagram: YoungDiagram
    n: int
    q0: Fraction
    coeffs: tuple[Fraction, ...]


def hecke_projector(g: YoungDiagram, n: int, q0) -> ProjectorPoly:
    """Lagrange interpolation onto g's eigenvalue of the invariant.

    Its coefficients come from `invariant.lagrange_numerator`, which
    `symgroup.build_projector` uses too.  Requires all invariant
    eigenvalues to be distinct at q0, which is asserted rather than
    assumed.  q0 = 1 and q0 = -1 are refused outright: they are roots of
    unity, where the word basis stops being semisimple-generic.  Cached
    per (g, q0); the result is read-only, so every caller can share it.
    """
    if g.n != n:
        raise ValueError(f"diagram {g} has {g.n} boxes, expected n={n}")
    _check_n(n)
    q0 = _check_q0(q0)
    if q0 == 1 or q0 == -1:
        raise DegenerateSpecialization(f"q0 = {q0} is a root of unity")
    return _projector(g, q0)


@cache
def _projector(g: YoungDiagram, q0: Fraction) -> ProjectorPoly:
    """g's Lagrange polynomial on the invariant's spectrum at q0."""
    parts = partitions(g.n)
    values = {h: invariant_eigenvalue(h).evaluate(q0) for h in parts}
    if len(set(values.values())) != len(parts):
        raise DegenerateSpecialization(f"invariant eigenvalues collide at q0 = {q0}")
    weights, denominator = lagrange_numerator(values.values(), values[g])
    return ProjectorPoly(g, g.n, q0, tuple(Fraction(c) / denominator for c in weights))


def apply_projector(p: ProjectorPoly, x: HeckeElement) -> HeckeElement:
    """Evaluate the projector polynomial on the invariant against x.

    Horner's scheme with repeated multiplication by the invariant, so no
    powers of the invariant are ever stored.
    """
    if x.n != p.n or x.q0 != p.q0:
        raise ValueError("element and projector live in different algebras")
    invariant = fundamental_invariant(p.n, p.q0)
    result = x * p.coeffs[-1]
    for a in reversed(p.coeffs[:-1]):
        result = result * invariant + x * a
    return result


@lru_cache(maxsize=8)
def _invariant_powers(n: int, q0: Fraction) -> tuple[HeckeElement, ...]:
    """1, C, C^2, ... up to the projector degree, C the fundamental invariant.

    Each power is the previous one times C, whose support is small.
    """
    invariant = fundamental_invariant(n, q0)
    powers = [HeckeElement.identity(n, q0)]
    for _ in range(len(partitions(n)) - 1):
        powers.append(powers[-1] * invariant)
    return tuple(powers)


@lru_cache(maxsize=64)
def projector_element(p: ProjectorPoly) -> HeckeElement:
    """The projector itself as an element: sum of c_k C^k over the cached powers of C."""
    powers = _invariant_powers(p.n, p.q0)
    return sum((power * c for power, c in zip(powers, p.coeffs)), HeckeElement.zero(p.n, p.q0))


def irreducible_trace(g: YoungDiagram, word: tuple[int, ...], n: int, q0) -> Fraction:
    """Exact trace of a generator word in the irrep labeled by g.

    With e_g the central idempotent and tau the symmetrizing trace,
    chi_g(h) = dim(g) * tau(e_g h) / tau(e_g); both traces are dot
    products of e_g's coefficients, never a product of elements.
    """
    p = projector_element(hecke_projector(g, n, q0))
    x = word_element(n, p.q0, tuple(word))
    one = HeckeElement.identity(n, p.q0)
    return dimension(g) * symmetrizing_trace(p, x) / symmetrizing_trace(p, one)
