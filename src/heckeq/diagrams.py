"""Integer partitions as Young diagrams.

Boxes are indexed matrix-style with 1-based (row, column) pairs, so the
content of box (i, j) is j - i and sign conventions match throughout the
package.  Branching (adding or removing a corner box), standard-tableau
chains, and the hook-length formulas for irrep dimensions and generic
degrees all live here.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import factorial, prod

from .laurent import LaurentPoly, q_integer

__all__ = [
    "YoungDiagram",
    "TableauPath",
    "partitions",
    "paths",
    "dimension",
    "generic_degree",
]


class FrozenRecord:
    """A read-only record of the fields `__match_args__` names, given positionally or by name.

    `==` holds only within one class, field by field; the hash is that of
    the tuple of fields, `_values`, and the repr names each field.
    """

    __slots__ = ("_values",)

    def __init__(self, *fields, **named):
        if named:
            fields += tuple(named.pop(name) for name in self.__match_args__[len(fields) :] if name in named)
        if named or len(fields) != len(self.__match_args__):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self.__match_args__)}")
        object.__setattr__(self, "_values", fields)
        for name, value in zip(self.__match_args__, fields):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values


class YoungDiagram(FrozenRecord):
    """Weakly decreasing positive row lengths; labels an irrep."""

    __slots__ = __match_args__ = ("rows",)
    rows: tuple[int, ...]

    def __init__(self, rows: tuple[int, ...]):
        rows = tuple(rows)
        super().__init__(rows)
        if not rows:
            raise ValueError("a Young diagram needs at least one row")
        for r in rows:
            if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                raise ValueError(f"row lengths must be positive integers, got {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"row lengths must be weakly decreasing, got {rows}")

    @classmethod
    def from_string(cls, text: str) -> "YoungDiagram":
        """Parse comma-separated row lengths, e.g. ``4,1,1``."""
        try:
            rows = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse diagram {text!r}") from exc
        return cls(rows)

    @property
    def n(self) -> int:
        return sum(self.rows)

    def contents(self) -> list[int]:
        """Contents j - i of all boxes, row by row."""
        return [j - i for i, length in enumerate(self.rows, start=1) for j in range(1, length + 1)]

    def diagonal_counts(self) -> dict[int, int]:
        """Map content k -> number of boxes on the k-th diagonal.

        The row of index i (from 0) holds the contents -i .. length - i - 1,
        so one difference-array pass over the rows gives every count, in
        ascending order of k, in O(#rows + #diagonals).
        """
        rows = self.rows
        low = 1 - len(rows)
        diff = [0] * (rows[0] - low + 1)
        for i, length in enumerate(rows):
            diff[-i - low] += 1
            diff[length - i - low] -= 1
        return dict(zip(range(low, rows[0]), accumulate(diff)))

    def removals(self) -> list[tuple["YoungDiagram", int]]:
        """Each diagram obtained by removing one corner box, with that box's content.

        Ordered by the row the box is removed from.  The one-box diagram
        has nothing below it and yields the empty list.
        """
        out = []
        rows = self.rows
        for i, length in enumerate(rows):
            below = rows[i + 1] if i + 1 < len(rows) else 0
            if length > below:
                if length == 1:
                    shrunk = rows[:i]
                else:
                    shrunk = rows[:i] + (length - 1,) + rows[i + 1 :]
                if shrunk:
                    out.append((YoungDiagram(shrunk), length - 1 - i))
        return out

    def branch_down(self) -> list["YoungDiagram"]:
        """All diagrams obtained by removing one corner box, ordered by row."""
        return [below for below, _ in self.removals()]

    def branch_up(self) -> list["YoungDiagram"]:
        """All diagrams obtained by adding one box, ordered by row."""
        out = []
        rows = self.rows
        for i, length in enumerate(rows):
            above = rows[i - 1] if i > 0 else None
            if above is None or length < above:
                out.append(YoungDiagram(rows[:i] + (length + 1,) + rows[i + 1 :]))
        out.append(YoungDiagram(rows + (1,)))
        return out

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows)

    def __repr__(self) -> str:
        return f"YoungDiagram(({', '.join(str(r) for r in self.rows)}))"


# A standard-tableau chain [1] = G_1 < G_2 < ... < G_n = g, each step
# adding one box.
TableauPath = tuple[YoungDiagram, ...]


@cache
def _partition_tuples(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions(n: int) -> list[YoungDiagram]:
    """All partitions of n, in descending lexicographic order.

    This fixed order is the canonical row/column order for every table
    in the package.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    return [YoungDiagram(rows) for rows in _partition_tuples(n, n)]


def paths(g: YoungDiagram) -> list[TableauPath]:
    """All standard-tableau chains from the one-box diagram up to g.

    The number of chains is the dimension of the irrep labeled by g;
    this enumeration is exponential and intended for small n.
    """
    if g.n == 1:
        return [(g,)]
    return [chain + (g,) for parent in g.branch_down() for chain in paths(parent)]


def _hooks(g: YoungDiagram) -> list[int]:
    """Hook lengths of the boxes of g, row by row.

    The hook of box (i, j) is the box itself plus the boxes to its right
    in row i and below it in column j.
    """
    rows = g.rows
    columns = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    return [(length - j) + (columns[j] - i) - 1 for i, length in enumerate(rows) for j in range(length)]


@cache
def dimension(g: YoungDiagram) -> int:
    """Irrep dimension by the hook-length formula (Frame-Robinson-Thrall).

    dim(g) = n! / prod of the hook lengths of the boxes of g.  It equals
    the number of standard tableaux, which `paths` enumerates.
    """
    return factorial(g.n) // prod(_hooks(g))


def generic_degree(g: YoungDiagram) -> LaurentPoly:
    """The generic degree q^n(g) [n]_q! / prod of [hook]_q over the boxes of g.

    n(g) = sum over rows of (i - 1) * g_i, rows counted from 1.  The
    division is exact, so the result is a polynomial in q; at q = 1 it
    is dim(g).  It is the Poincare polynomial [n]_q! divided by the
    Schur element of g, so the symmetrizing trace of the central
    idempotent is dim(g) * generic_degree(g) / [n]_q!.
    """
    shift = LaurentPoly.monomial(sum(i * r for i, r in enumerate(g.rows)))
    factorial_q = prod((q_integer(k) for k in range(2, g.n + 1)), start=shift)
    return factorial_q.divide_exact(prod((q_integer(h) for h in _hooks(g)), start=LaurentPoly.one()))
