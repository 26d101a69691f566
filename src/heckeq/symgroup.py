"""The class algebra of the symmetric group.

Conjugacy classes and their structure constants are computed by brute
force (multiplying one fixed class representative against every element
of the second class and sorting the products by cycle type), which keeps
the machinery trivially auditable at the n <= 8 scale this package
targets.  On top of that sit central projectors built from at most two
class-sums, the character rows they expose, and an independent
Murnaghan-Nakayama recursion used to cross-check every character value.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import permutations as _iter_permutations
from math import factorial
from types import MappingProxyType

from .diagrams import YoungDiagram, dimension, partitions
from .invariant import central_character

__all__ = [
    "MAX_BRUTE_FORCE_N",
    "NotSeparated",
    "NonIntegerCharacter",
    "Permutation",
    "CycleType",
    "ClassVector",
    "identity_perm",
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

# n! growth: class enumeration lists every permutation, and S_9 (362880
# of them) is the last group it lists in seconds.
MAX_BRUTE_FORCE_N = 9


class NotSeparated(ValueError):
    """Transposition and 3-cycle eigenvalues fail to single out the irrep."""


class NonIntegerCharacter(ArithmeticError):
    """A projector coefficient did not scale to an integer character."""


# One-line notation: perm[i] is the image of i+1, values 1..n.
Permutation = tuple[int, ...]
# Cycle lengths sorted descending, unit cycles included.
CycleType = tuple[int, ...]


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def perm_mul(u: Permutation, v: Permutation) -> Permutation:
    """Composition (u o v)(i) = u(v(i))."""
    return tuple(u[x - 1] for x in v)


def cycle_type(perm: Permutation) -> CycleType:
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def cycle_type_to_string(t: CycleType) -> str:
    """Machine format: comma-separated parts, e.g. ``2,1``."""
    return ",".join(str(p) for p in t)


def cycle_type_from_string(text: str) -> CycleType:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse cycle type {text!r}") from exc
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"cycle lengths must be positive, got {text!r}")
    return tuple(sorted(parts, reverse=True))


def display_cycle_type(t: CycleType, suppress_units: bool = False) -> str:
    """Human format with grouped multiplicities, e.g. ``(1)(2)`` or ``(2)^2``."""
    parts = [p for p in t if p > 1] if suppress_units else list(t)
    if not parts:
        return "()" if suppress_units else "(1)^0"
    groups = []
    for p in sorted(set(parts)):
        m = parts.count(p)
        groups.append(f"({p})" if m == 1 else f"({p})^{m}")
    return "".join(groups)


def class_size(t: CycleType) -> int:
    """Size of the conjugacy class with this cycle type: n! / z_t."""
    n = sum(t)
    z = 1
    for p in set(t):
        m = t.count(p)
        z *= p**m * factorial(m)
    return factorial(n) // z


@cache
def _class_elements(n: int) -> dict[CycleType, tuple[Permutation, ...]]:
    """Every element of S_n grouped by cycle type (brute force)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_BRUTE_FORCE_N:
        raise ValueError(
            f"S_n class enumeration stops at n = {MAX_BRUTE_FORCE_N}; it lists all n! permutations"
        )
    grouped: dict[CycleType, list[Permutation]] = {}
    for perm in _iter_permutations(range(1, n + 1)):
        grouped.setdefault(cycle_type(perm), []).append(perm)
    return {t: tuple(elems) for t, elems in grouped.items()}


def conjugacy_classes(n: int) -> list[tuple[CycleType, int]]:
    """All cycle types of S_n with class sizes, in canonical table order."""
    elements = _class_elements(n)
    return [(g.rows, len(elements[g.rows])) for g in partitions(n)]


class ClassVector:
    """An element of the center of the group algebra of S_n.

    Stored as a finite map cycle type -> Fraction coefficient with
    respect to the class-sum basis.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[CycleType, Fraction] | None = None):
        self.n = n
        clean: dict[CycleType, Fraction] = {}
        if coeffs:
            for t, c in coeffs.items():
                if sum(t) != n:
                    raise ValueError(f"cycle type {t} does not partition n={n}")
                f = Fraction(c)
                if f:
                    clean[t] = f
        self.coeffs = clean

    @classmethod
    def zero(cls, n: int) -> "ClassVector":
        return cls(n)

    @classmethod
    def identity(cls, n: int) -> "ClassVector":
        return cls(n, {(1,) * n: Fraction(1)})

    @classmethod
    def class_sum(cls, n: int, t: CycleType) -> "ClassVector":
        return cls(n, {tuple(sorted(t, reverse=True)): Fraction(1)})

    def coefficient(self, t: CycleType) -> Fraction:
        return self.coeffs.get(t, Fraction(0))

    def _check_compatible(self, other: "ClassVector") -> None:
        if self.n != other.n:
            raise ValueError(f"mixing class vectors of S_{self.n} and S_{other.n}")

    def __add__(self, other):
        if isinstance(other, ClassVector):
            self._check_compatible(other)
            out = dict(self.coeffs)
            for t, c in other.coeffs.items():
                s = out.get(t, Fraction(0)) + c
                if s:
                    out[t] = s
                elif t in out:
                    del out[t]
            result = ClassVector(self.n)
            result.coeffs = out
            return result
        if isinstance(other, (int, Fraction)):
            return self + (ClassVector.identity(self.n) * other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, (ClassVector, int, Fraction)):
            return self + (-(other if isinstance(other, ClassVector) else ClassVector.identity(self.n) * other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (ClassVector.identity(self.n) * other) + (-self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, ClassVector):
            return class_product(self, other)
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            result = ClassVector(self.n)
            result.coeffs = {t: c * f for t, c in self.coeffs.items()} if f else {}
            return result
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, ClassVector):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for g in partitions(self.n):
            t = g.rows
            if t not in self.coeffs:
                continue
            c = self.coeffs[t]
            label = "" if all(p == 1 for p in t) else f"[{display_cycle_type(t, suppress_units=True)}]_{self.n}"
            if label:
                text = label if c == 1 else (f"-{label}" if c == -1 else f"{c}*{label}")
            else:
                text = str(c)
            parts.append(text if not parts or text.startswith("-") else "+" + text)
        return "".join(parts)


def single_cycle_class_sum(n: int, p: int) -> ClassVector:
    """The class-sum of p-cycles in S_n (unit cycles filled in)."""
    if not 2 <= p <= n:
        raise ValueError(f"cycle length {p} must lie in 2..{n}")
    return ClassVector.class_sum(n, (p,) + (1,) * (n - p))


@cache
def _structure_row(n: int, s: CycleType, t: CycleType) -> Mapping[CycleType, int]:
    """Integer constants N such that [s]_n [t]_n = sum_u N_u [u]_n.

    Brute force: fix one representative x of class s, multiply it by
    every element y of class t, and count the cycle types of the
    products; N_u = |C_s| * count_u / |C_u| is an exact integer.  The
    row is cached, so it is returned as a read-only view.
    """
    elements = _class_elements(n)
    x0 = elements[s][0]
    counts: dict[CycleType, int] = {}
    for y in elements[t]:
        u = cycle_type(perm_mul(x0, y))
        counts[u] = counts.get(u, 0) + 1
    size_s = len(elements[s])
    row: dict[CycleType, int] = {}
    for u, m in counts.items():
        total = size_s * m
        size_u = len(elements[u])
        if total % size_u:
            raise AssertionError(f"non-integer structure constant for {s} * {t} at {u}")
        row[u] = total // size_u
    return MappingProxyType(row)


def class_product(a: ClassVector, b: ClassVector) -> ClassVector:
    """Product in the group algebra, re-expressed in the class basis."""
    a._check_compatible(b)
    n = a.n
    out: dict[CycleType, Fraction] = {}
    for s, cs in a.coeffs.items():
        for t, ct in b.coeffs.items():
            scale = cs * ct
            for u, constant in _structure_row(n, s, t).items():
                value = out.get(u, Fraction(0)) + scale * constant
                if value:
                    out[u] = value
                elif u in out:
                    del out[u]
    result = ClassVector(n)
    result.coeffs = out
    return result


def build_projector(g: YoungDiagram, n: int) -> ClassVector:
    """Central idempotent projecting onto the irrep labeled by g.

    Stage one is a Lagrange product over the distinct transposition
    class-sum eigenvalues of the other irreps, which annihilates every
    irrep whose transposition eigenvalue differs from g's.  Any surviving
    degenerate partner is then annihilated by one factor linear in the
    3-cycle class-sum.  Through n = 14 those two eigenvalues always
    separate the irreps, so within the n <= 8 scale of the class algebra a
    `NotSeparated` failure cannot occur.
    """
    if g.n != n:
        raise ValueError(f"diagram {g} has {g.n} boxes, expected n={n}")
    parts = partitions(n)
    lam2 = {h: central_character(2, n, h) for h in parts}
    mine = lam2[g]

    result = ClassVector.identity(n)
    if n >= 2:
        transposition = single_cycle_class_sum(n, 2)
        for value in sorted(set(lam2[h] for h in parts if lam2[h] != mine)):
            result = class_product(result, transposition - value) / (mine - value)

    partners = [h for h in parts if h != g and lam2[h] == mine]
    if partners:
        three_cycle = single_cycle_class_sum(n, 3)
        lam3_mine = central_character(3, n, g)
        for h in partners:
            lam3_other = central_character(3, n, h)
            if lam3_other == lam3_mine:
                raise NotSeparated(f"{g} and {h} share transposition and 3-cycle eigenvalues")
            result = class_product(result, three_cycle - lam3_other) / (lam3_mine - lam3_other)
    return result


def characters_from_projector(p: ClassVector, g: YoungDiagram) -> dict[CycleType, int]:
    """Read the character row of g off its projector's coefficients.

    The coefficient of class C in the projector is dim(g)/n! times the
    character on C, so scaling by n!/dim(g) recovers the full row.  Every
    value must come out an integer; anything else means the projector was
    not built for g.
    """
    n = p.n
    if g.n != n:
        raise ValueError(f"diagram {g} has {g.n} boxes, expected n={n}")
    scale = Fraction(factorial(n), dimension(g))
    row: dict[CycleType, int] = {}
    for h in partitions(n):
        t = h.rows
        value = p.coefficient(t) * scale
        if value.denominator != 1:
            raise NonIntegerCharacter(f"coefficient of class {t} scales to non-integer {value}")
        row[t] = int(value)
    return row


@cache
def _mn_recursion(rows: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama border-strip recursion on beta-numbers.

    Removing a border strip of length k corresponds to lowering one
    beta-number by k onto an unoccupied value; the sign is (-1) to the
    number of occupied values jumped over (the strip's leg length).
    """
    if not parts:
        return 1
    k = parts[0]
    rest = parts[1:]
    r = len(rows)
    beta = tuple(rows[i] + (r - 1 - i) for i in range(r))
    occupied = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in occupied:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((occupied - {b}) | {nb}, reverse=True)
        new_rows = tuple(
            v - (r - 1 - i) for i, v in enumerate(new_beta) if v - (r - 1 - i) > 0
        )
        total += (-1) ** crossed * _mn_recursion(new_rows, rest)
    return total


def murnaghan_nakayama_character(g: YoungDiagram, c: CycleType) -> int:
    """Irreducible character of S_n: independent of the projector route."""
    if sum(c) != g.n:
        raise ValueError(f"cycle type {c} does not partition {g.n}")
    return _mn_recursion(g.rows, tuple(sorted(c, reverse=True)))


def character_table(n: int, method: str = "mn") -> dict[YoungDiagram, dict[CycleType, int]]:
    """Full character table of S_n, rows over partitions in table order.

    ``method`` selects the projector expansion or the Murnaghan-Nakayama
    recursion; the two must agree and tests hold them to that.
    """
    if method == "mn":
        return {
            g: {h.rows: murnaghan_nakayama_character(g, h.rows) for h in partitions(n)}
            for g in partitions(n)
        }
    if method == "projector":
        return {g: characters_from_projector(build_projector(g, n), g) for g in partitions(n)}
    raise ValueError(f"unknown method {method!r} (expected 'mn' or 'projector')")


def character_table_json(n: int, method: str = "mn") -> dict:
    """JSON-ready table: rows keyed by diagram string, columns by cycle type."""
    table = character_table(n, method)
    classes = [cycle_type_to_string(g.rows) for g in partitions(n)]
    sizes = {cycle_type_to_string(g.rows): class_size(g.rows) for g in partitions(n)}
    rows = {
        str(g): {cycle_type_to_string(t): value for t, value in row.items()}
        for g, row in table.items()
    }
    return {"n": n, "classes": classes, "class_sizes": sizes, "rows": rows}
