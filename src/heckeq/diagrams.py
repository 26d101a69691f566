"""Integer partitions as Young diagrams.

Boxes are indexed matrix-style with 1-based (row, column) pairs, so the
content of box (i, j) is j - i and sign conventions match throughout the
package.  A diagram's box contents are read from its diagonal histogram,
`YoungDiagram.diagonal_counts`, and its corner removals from
`row_removals`; the hook-length formulas for irrep dimensions and generic
degrees live here too.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import factorial, prod

from .laurent import FrozenRecord, LaurentPoly, _integer, _integers, q_integer

__all__ = [
    "YoungDiagram",
    "partitions",
    "dimension",
    "generic_degree",
]


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
            _integer(r, "row length", 1)
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"row lengths must be weakly decreasing, got {rows}")

    @classmethod
    def from_string(cls, text: str) -> "YoungDiagram":
        """Parse comma-separated row lengths, e.g. ``4,1,1``."""
        return cls(_integers(text, "diagram"))

    @property
    def n(self) -> int:
        return sum(self.rows)

    def diagonal_counts(self) -> dict[int, int]:
        """Map content k -> number of boxes on the k-th diagonal.

        The row of index i (from 0) holds the contents -i .. length - i - 1,
        so each content from 1 - #rows to 0 starts one row, and one
        difference-array pass over the row ends gives every count, in
        ascending order of k, in O(#rows + #diagonals).
        """
        rows = self.rows
        low = 1 - len(rows)
        diff = [1] * len(rows) + [0] * rows[0]
        for i, length in enumerate(rows):
            diff[length - i - low] -= 1
        return dict(zip(range(low, rows[0]), accumulate(diff)))

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows)

    def __repr__(self) -> str:
        return f"YoungDiagram({self.rows!r})"


def row_removals(rows: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The diagrams one corner box below the rows, each with the removed box's content.

    The only corner-removal builder: ordered by the row the box leaves, empty for
    the one-box diagram, on bare row tuples that are neither built nor validated.
    """
    out = []
    for i, length in enumerate(rows):
        below = rows[i + 1] if i + 1 < len(rows) else 0
        if length > below:
            if length == 1:
                shrunk = rows[:i]
            else:
                shrunk = rows[:i] + (length - 1,) + rows[i + 1 :]
            if shrunk:
                out.append((shrunk, length - 1 - i))
    return out


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
    _integer(n, "n", 1)
    return [YoungDiagram(rows) for rows in _partition_tuples(n, n)]


def _hooks(g: YoungDiagram) -> list[int]:
    """Hook lengths of the boxes of g, row by row.

    The hook of box (i, j) is the box itself plus the boxes to its right
    in row i and below it in column j.
    """
    rows = g.rows
    columns = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    return [(length - j) + (columns[j] - i) - 1 for i, length in enumerate(rows) for j in range(length)]


def dimension(g: YoungDiagram) -> int:
    """Irrep dimension by the hook-length formula (Frame-Robinson-Thrall).

    dim(g) = n! / prod of the hook lengths of the boxes of g, the number
    of standard tableaux of shape g.
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
