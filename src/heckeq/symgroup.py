"""The class algebra of the symmetric group.

S_n itself is never listed.  A structure constant fixes one member of
one class, the first its enumeration lists (its cycles on consecutive
points), and multiplies it by every element of the other, smaller class,
generated cycle by cycle; class sizes have a closed form.  Central
projectors are the paper's construction: the Lagrange polynomial of
`invariant.lagrange_numerator` in the transposition class-sum, summed
over its cached powers [(2)]^k, then factors linear in the p-cycle
class-sums, p = 3, 4, 5, for the irreps that share the transposition
eigenvalue.  Every product is a `class_product` of `ClassVector`s,
whose coefficients stay integers until the final division.
`ClassVector` is a `laurent.SparseVector` keyed by cycle types, so its
coefficient normal form and its linear operations are `LaurentPoly`'s;
only the product and the division are its own.  `_permutation` checks
every permutation, the oracle's too, and `_canonical_type` every cycle
type.  A projector's class coefficients give its character row, and an
independent Murnaghan-Nakayama recursion cross-checks every value.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import cache, partial
from math import factorial
from types import MappingProxyType

from .diagrams import YoungDiagram, dimension, partitions
from .invariant import central_character_table, lagrange_numerator
from .laurent import Scalar, SparseVector, _integer, _integers, is_scalar

__all__ = [
    "NotSeparated",
    "NonIntegerCharacter",
    "Permutation",
    "CycleType",
    "ClassVector",
    "perm_mul",
    "cycle_type",
    "cycle_type_to_string",
    "cycle_type_from_string",
    "display_cycle_type",
    "class_size",
    "conjugacy_classes",
    "single_cycle_class_sum",
    "class_product",
    "build_projector",
    "characters_from_projector",
    "murnaghan_nakayama_character",
    "character_table",
    "character_table_json",
]


class NotSeparated(ValueError):
    """The 2- to 5-cycle class-sum eigenvalues fail to single out the irrep."""


class NonIntegerCharacter(ArithmeticError):
    """A projector coefficient did not scale to an integer character."""


# One-line notation: perm[i] is the image of i+1, values 1..n.
Permutation = tuple[int, ...]
# Cycle lengths sorted descending, unit cycles included.
CycleType = tuple[int, ...]


def _permutation(perm, n: int | None = None) -> Permutation:
    """perm as a tuple, refused unless its entries are integers listing 1..n (by default its length) once each."""
    perm = tuple(_integer(x, "permutation entry") for x in perm)
    n = len(perm) if n is None else n
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{n}")
    return perm


def perm_mul(u: Permutation, v: Permutation) -> Permutation:
    """Composition (u o v)(i) = u(v(i)) of two permutations of the same points."""
    u = _permutation(u)
    v = _permutation(v, len(u))
    return tuple([u[x - 1] for x in v])


def cycle_type(perm: Permutation) -> CycleType:
    """The cycle lengths of a permutation, sorted descending, unit cycles included."""
    return _cycle_type(_permutation(perm))


def _cycle_type(perm: Permutation) -> CycleType:
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        length = 0
        while not seen[i]:  # walk the cycle through i, unless an earlier walk did
            seen[i] = True
            i = perm[i] - 1
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def cycle_type_to_string(t: CycleType) -> str:
    """Machine format: comma-separated parts, descending, e.g. ``2,1``."""
    return ",".join(map(str, _canonical_type(t)))


def cycle_type_from_string(text: str) -> CycleType:
    return _canonical_type(_integers(text, "cycle type"))


def display_cycle_type(t: CycleType, suppress_units: bool = False) -> str:
    """Human format with grouped multiplicities, e.g. ``(1)(2)`` or ``(2)^2``."""
    t = _canonical_type(t)
    parts = [p for p in t if p > 1] if suppress_units else t
    if not parts:
        return "()"
    groups = []
    for p in sorted(set(parts)):
        m = parts.count(p)
        groups.append(f"({p})" if m == 1 else f"({p})^{m}")
    return "".join(groups)


def _canonical_type(t: CycleType) -> CycleType:
    """The cycle type as a tuple sorted descending; no parts, or a part that is not an integer >= 1, is an error."""
    parts = [_integer(p, "cycle length", 1) for p in t]
    if not parts:
        raise ValueError("a cycle type needs at least one part")
    return tuple(sorted(parts, reverse=True))


def _class_type(n: int, t: CycleType) -> CycleType:
    """The canonical cycle type t, refused unless its parts sum to n."""
    key = _canonical_type(t)
    if sum(key) != n:
        raise ValueError(f"cycle type {t} does not partition n={n}")
    return key


def class_size(t: CycleType) -> int:
    """Size of the conjugacy class with this cycle type: n! / z_t."""
    t = _canonical_type(t)
    z = 1
    for p in set(t):
        m = t.count(p)
        z *= p**m * factorial(m)
    return factorial(sum(t)) // z


def conjugacy_classes(n: int) -> list[tuple[CycleType, int]]:
    """All cycle types of S_n with class sizes, in canonical table order."""
    return [(g.rows, class_size(g.rows)) for g in partitions(n)]


def _class_members(t: CycleType) -> Iterator[Permutation]:
    """Every permutation of cycle type t, each once, built cycle by cycle.

    Each new cycle starts at the least free point and runs through free
    points in every order; once only unit cycles are left the remaining
    points are fixed.
    """
    n = sum(t)
    image = list(range(1, n + 1))
    free = set(image)

    def open_cycle(lengths: tuple[int, ...]) -> Iterator[Permutation]:
        if not lengths or lengths[0] == 1:
            for x in free:
                image[x - 1] = x
            yield tuple(image)
            return
        first = min(free)
        free.remove(first)
        for length in sorted(set(lengths), reverse=True):
            rest = list(lengths)
            rest.remove(length)
            yield from extend(first, first, length - 1, tuple(rest))
        free.add(first)

    def extend(first: int, last: int, missing: int, lengths: tuple[int, ...]) -> Iterator[Permutation]:
        if not missing:
            image[last - 1] = first
            yield from open_cycle(lengths)
            return
        for x in sorted(free):
            free.remove(x)
            image[last - 1] = x
            yield from extend(first, x, missing - 1, lengths)
            free.add(x)

    return open_cycle(t)


class ClassVector(SparseVector):
    """An element of the center of the group algebra of S_n.

    A `SparseVector` keyed by cycle types of n: the coefficients with
    respect to the class-sum basis.  Integer class vectors multiply in
    integers.  A scalar c stands for c times the identity class, and
    vectors of different n do not mix.  `n` and `coeffs` are read-only.
    """

    __slots__ = ("n",)
    __match_args__ = ("n", "_terms")

    def __init__(self, n: int, coeffs: Mapping[CycleType, Scalar] | None = None):
        n = _integer(n, "n", 1)
        super().__init__(n, self._normal(coeffs, partial(_class_type, n)))

    def _coerce(self, other) -> "ClassVector | None":
        if isinstance(other, ClassVector):
            if other.n != self.n:
                raise ValueError(f"mixing class vectors of S_{self.n} and S_{other.n}")
            return other
        if is_scalar(other):
            return ClassVector.identity(self.n) * other
        return None

    @classmethod
    def zero(cls, n: int) -> "ClassVector":
        return cls(n)

    @classmethod
    def identity(cls, n: int) -> "ClassVector":
        return cls(_integer(n, "n", 1), {(1,) * n: 1})

    @property
    def coeffs(self) -> Mapping[CycleType, Scalar]:
        """The nonzero coefficients {cycle type: coefficient}, read-only."""
        return MappingProxyType(self._terms)

    def coefficient(self, t: CycleType) -> Scalar:
        return self._terms.get(_canonical_type(t), 0)

    def __mul__(self, other):
        if isinstance(other, ClassVector):
            return class_product(self, other)
        if is_scalar(other):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if is_scalar(other):
            return self * Fraction(1, other)
        return NotImplemented

    def __repr__(self):
        n = self.n
        types = [g.rows for g in partitions(n) if g.rows in self._terms]
        labels = [f"[{display_cycle_type(t, suppress_units=True)}]_{n}" if t[0] > 1 else "" for t in types]
        return self._render(zip(labels, map(self._terms.__getitem__, types)))


def single_cycle_class_sum(n: int, p: int) -> ClassVector:
    """The class-sum of p-cycles in S_n (unit cycles filled in)."""
    _integer(p, "cycle length", 2, _integer(n, "n", 1))
    return ClassVector(n, {(p,) + (1,) * (n - p): 1})


@cache
def _structure_row(s: CycleType, t: CycleType) -> Mapping[CycleType, int]:
    """Integer constants N such that [s]_n [t]_n = sum_u N_u [u]_n, where n = sum(s).

    Fix x0, the first member of class s that `_class_members` lists,
    multiply it by every element y of class t, and count the cycle types
    of the products; then N_u = |C_s| * count_u / |C_u| is an exact
    integer.  The class algebra is commutative, so the smaller of the two
    classes is the one listed.  The row is cached, so it is returned as a
    read-only view.
    """
    if class_size(t) > class_size(s):
        return _structure_row(t, s)
    x0 = next(_class_members(s))
    counts = Counter(_cycle_type([x0[x - 1] for x in y]) for y in _class_members(t))  # x0 o y, unchecked
    size_s = class_size(s)
    row: dict[CycleType, int] = {}
    for u, m in counts.items():
        total = size_s * m
        size_u = class_size(u)
        if total % size_u:
            raise AssertionError(f"non-integer structure constant for {s} * {t} at {u}")
        row[u] = total // size_u
    return MappingProxyType(row)


def class_product(a: ClassVector, b: ClassVector) -> ClassVector:
    """Product in the group algebra, re-expressed in the class basis.

    The identity class is the unit, [s]·1 = [s], so its products take no
    structure row.
    """
    b = a._coerce(b)
    unit = (1,) * a.n
    pairs: list[tuple[CycleType, Scalar]] = []
    for s, cs in a._terms.items():
        for t, ct in b._terms.items():
            row = {t: 1} if s == unit else {s: 1} if t == unit else _structure_row(s, t)
            pairs.extend((u, cs * ct * constant) for u, constant in row.items())
    return a._like(a._collect(pairs))


@cache
def _transposition_powers(n: int) -> tuple[ClassVector, ...]:
    """[(2)]^k for k = 0, 1, ... up to the Lagrange degree.

    That degree is the number of distinct transposition eigenvalues
    minus one.
    """
    powers = [ClassVector.identity(n)]
    for _ in range(len(set(central_character_table(2, n).values())) - 1):
        powers.append(class_product(powers[-1], single_cycle_class_sum(n, 2)))
    return tuple(powers)


@cache
def _transposition_lagrange(n: int, value: int) -> tuple[ClassVector, int]:
    """The Lagrange polynomial in [(2)] that is 1 at `value`, as (numerator, denominator).

    Its `lagrange_numerator` weights sum the cached powers [(2)]^k.  It
    depends on the eigenvalue only, so diagrams that share one share it.
    """
    weights, denominator = lagrange_numerator(central_character_table(2, n).values(), value)
    powers = _transposition_powers(n)
    return sum((power * weight for weight, power in zip(weights, powers)), ClassVector.zero(n)), denominator


def build_projector(g: YoungDiagram) -> ClassVector:
    """Central idempotent projecting onto the irrep labeled by g, in the class algebra of S_{g.n}.

    Stage one is the Lagrange polynomial in the transposition class-sum
    that is 1 at g's eigenvalue and 0 at every other irrep's: the
    integer weights of `lagrange_numerator` on the cached powers
    [(2)]^k, over one common denominator, built once per eigenvalue.
    That annihilates every irrep whose transposition eigenvalue differs
    from g's.  Stage two annihilates the surviving partners one p-cycle
    class-sum at a time, p = 3, 4, 5: one factor [(p)] - v for each
    distinct p-cycle eigenvalue v of the partners left that differs from
    g's.  These eigenvalues are the content power sums s_1..s_4 in
    disguise, which separate the partitions of n through n = 41, so
    `NotSeparated` cannot occur up to there.
    """
    n = g.n
    lam2 = central_character_table(2, n)
    mine = lam2[g]
    numerator, denominator = _transposition_lagrange(n, mine)
    partners = [h for h in lam2 if h != g and lam2[h] == mine]
    for p in (3, 4, 5):
        if not partners:
            break
        lam = central_character_table(p, n)
        for v in sorted({lam[h] for h in partners} - {lam[g]}):
            numerator = class_product(numerator, single_cycle_class_sum(n, p) - v)
            denominator *= lam[g] - v
        partners = [h for h in partners if lam[h] == lam[g]]
    if partners:
        raise NotSeparated(f"{g} and {partners[0]} share their 2- to 5-cycle class-sum eigenvalues")
    return numerator / denominator


def characters_from_projector(p: ClassVector, g: YoungDiagram) -> dict[CycleType, int]:
    """Read the character row of g off its projector's coefficients.

    The coefficient of class C in the projector is dim(g)/n! times the
    character on C, so scaling by n!/dim(g) recovers the full row.  Every
    value must come out an integer, the row must give chi(1) = dim(g),
    and for p = 2..min(n, 5) the p-cycle class-sum eigenvalue
    |C_(p)| chi((p)) / dim(g) must be g's, from `central_character_table`;
    anything else means the projector was not built for g.
    """
    n = p.n
    if g.n != n:
        raise ValueError(f"diagram {g} has {g.n} boxes, expected n={n}")
    dim = dimension(g)
    scale = Fraction(factorial(n), dim)
    row: dict[CycleType, int] = {}
    for h in partitions(n):
        t = h.rows
        value = p.coefficient(t) * scale
        if value.denominator != 1:
            raise NonIntegerCharacter(f"coefficient of class {t} scales to non-integer {value}")
        row[t] = int(value)
    cycles = [(k,) + (1,) * (n - k) for k in range(2, min(n, 5) + 1)]
    if row[(1,) * n] != dim or any(
        class_size(t) * row[t] != dim * central_character_table(t[0], n)[g] for t in cycles
    ):
        raise ValueError(f"the projector's coefficients are not the character row of {g}")
    return row


@cache
def _mn_recursion(beta: frozenset[int], parts: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama border-strip recursion on a beta-set.

    Its state is the diagram's set of beta-numbers, beta_i = rows_i +
    r - 1 - i over its r rows.  Removing a border strip of length k
    lowers one beta-number b by k onto a free value; the sign is (-1) to
    the number of beta-numbers strictly between (the strip's leg length).
    """
    if not parts:
        return 1
    k, rest = parts[0], parts[1:]
    return sum(
        (-1) ** sum(1 for x in beta if b - k < x < b) * _mn_recursion((beta - {b}) | {b - k}, rest)
        for b in beta
        if b >= k and b - k not in beta
    )


def murnaghan_nakayama_character(g: YoungDiagram, c: CycleType) -> int:
    """Irreducible character of S_n: independent of the projector route."""
    parts = _class_type(g.n, c)
    r = len(g.rows)
    return _mn_recursion(frozenset(row + r - 1 - i for i, row in enumerate(g.rows)), parts)


def character_table(n: int, method: str = "mn") -> dict[YoungDiagram, dict[CycleType, int]]:
    """Full character table of S_n, rows over partitions in table order.

    ``method`` selects the projector expansion or the Murnaghan-Nakayama
    recursion; the two must agree and tests hold them to that.
    """
    if method == "mn":
        types = [h.rows for h in partitions(n)]
        return {g: {t: murnaghan_nakayama_character(g, t) for t in types} for g in partitions(n)}
    if method == "projector":
        return {g: characters_from_projector(build_projector(g), g) for g in partitions(n)}
    raise ValueError(f"unknown method {method!r} (expected 'mn' or 'projector')")


def character_table_json(n: int, method: str = "mn") -> dict:
    """JSON-ready table: rows keyed by diagram string, columns by cycle type."""
    table = character_table(n, method)
    labels = {g.rows: cycle_type_to_string(g.rows) for g in partitions(n)}
    sizes = {label: class_size(t) for t, label in labels.items()}
    rows = {str(g): {labels[t]: value for t, value in row.items()} for g, row in table.items()}
    return {"n": n, "classes": list(labels.values()), "class_sizes": sizes, "rows": rows}
