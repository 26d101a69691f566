"""Symbolic traces of the Hecke algebra from the branching lattice.

Every basis state of an irrep is a chain of Young diagrams, and each
Murphy operator acts diagonally on those chains with the q-content of
the box added at its step.  That single fact drives everything here:

* Murphy traces tr(L_i) satisfy a branching recursion in the diagram and
  are computed bottom-up with a memo over the lattice.
* The traces of the words g_1 g_2 ... g_{k-1} (one for each connected
  interval of generators) follow from the Murphy traces by a binomial
  inversion whose (q/(q-1))^(k-2) prefactor must divide exactly.
* Traces of products of non-consecutive Murphy operators are path sums
  over chains, and the two printed reductions for tr(g_1 g_3) and
  tr(g_1 g_3 g_4) are solved from them.

All tables are kept symbolic in q; specialization happens only in the
regular-representation oracle that cross-checks them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from math import comb
from types import MappingProxyType

from .diagrams import YoungDiagram, dimension, partitions
from .invariant import invariant_eigenvalue
from .laurent import LaurentPoly, q_content

__all__ = [
    "MurphyTraceTable",
    "murphy_traces",
    "simply_connected_trace",
    "invariant_trace_consistency",
    "murphy_product_trace",
    "doubly_connected_traces",
    "murphy_trace_table_json",
]

_Q = LaurentPoly.q()
_ONE = LaurentPoly.one()
_QM1 = _Q - 1


@dataclass(frozen=True)
class MurphyTraceTable:
    """Traces of the Murphy operators L_2..L_n in one irrep.

    The entries sum to dim(diagram) times the invariant eigenvalue,
    because the invariant is the sum of the Murphy operators.  They are
    a read-only view, because `murphy_traces` hands the same cached
    table to every caller.
    """

    diagram: YoungDiagram
    entries: Mapping[int, LaurentPoly]


def _removed_box_content(child: YoungDiagram, parent: YoungDiagram) -> int:
    """Content of the box removed from child to reach parent."""
    child_rows = child.rows
    parent_rows = parent.rows + (0,) * (len(child_rows) - len(parent.rows))
    for index, (a, b) in enumerate(zip(child_rows, parent_rows)):
        if a != b:
            return a - 1 - index
    raise ValueError(f"{parent} is not obtained from {child} by removing one box")


@cache
def murphy_traces(g: YoungDiagram) -> MurphyTraceTable:
    """All Murphy traces of the irrep labeled by g, by branching.

    For i < n the trace restricts along the branching rule,
    tr(L_i) = sum over covered diagrams of tr(L_i) there, while the top
    operator sums dim(parent) times the q-content of the removed box
    over the covered diagrams.  Memoized over the lattice, which the
    recursion revisits combinatorially many times.
    """
    n = g.n
    entries: dict[int, LaurentPoly] = {}
    if n >= 2:
        parents = g.branch_down()
        parent_tables = [murphy_traces(parent) for parent in parents]
        for i in range(2, n):
            total = LaurentPoly.zero()
            for table in parent_tables:
                total = total + table.entries[i]
            entries[i] = total
        top = LaurentPoly.zero()
        for parent in parents:
            top = top + q_content(_removed_box_content(g, parent)) * dimension(parent)
        entries[n] = top
    return MurphyTraceTable(g, MappingProxyType(entries))


def simply_connected_trace(g: YoungDiagram, k: int) -> LaurentPoly:
    """Trace of the word g_1 g_2 ... g_{k-1} in the irrep labeled by g.

    Binomial inversion of the Murphy traces:

        tau_k = (q/(q-1))^(k-2) * sum_{i=0}^{k-2} (-1)^i C(k-1, i) tr(L_{k-i})

    The prefactor must divide exactly; a `NotDivisible` failure would
    mean the recursion produced an inconsistent table.
    """
    n = g.n
    if not 2 <= k <= n:
        raise ValueError(f"word length index {k} must lie in 2..{n}")
    table = murphy_traces(g).entries
    acc = LaurentPoly.zero()
    for i in range(k - 1):
        term = table[k - i] * comb(k - 1, i)
        acc = acc + (term if i % 2 == 0 else -term)
    if k == 2:
        return acc
    numerator = acc * LaurentPoly.monomial(k - 2)
    return numerator.divide_exact(_QM1 ** (k - 2))


def invariant_trace_consistency(g: YoungDiagram) -> bool:
    """Check the two routes to the trace of the fundamental invariant.

    The invariant's trace is dim(g) times its eigenvalue, and expanding
    the invariant over connected words gives

        tr(C_n) = sum_{i=2}^{n} C(n, i) ((q-1)/q)^(i-2) tau_i.

    Returns whether the two agree symbolically (vacuous at n = 1).
    """
    n = g.n
    rhs = LaurentPoly.zero()
    for i in range(2, n + 1):
        factor = (_QM1 ** (i - 2)) * LaurentPoly.monomial(-(i - 2)) * comb(n, i)
        rhs = rhs + factor * simply_connected_trace(g, i)
    lhs = invariant_eigenvalue(g) * dimension(g)
    return lhs == rhs


def murphy_product_trace(g: YoungDiagram, alphas: tuple[int, ...] | list[int]) -> LaurentPoly:
    """Trace of a product of distinct Murphy operators L_{a1} ... L_{al}.

    A path sum: over every chain of diagrams climbing one box at a time
    from level a1 - 1 up to g, the starting diagram contributes its
    dimension and each marked level contributes the q-content of the box
    added there.  Indices must be strictly increasing within 2..n.
    """
    alphas = tuple(alphas)
    n = g.n
    if not alphas:
        raise ValueError("need at least one Murphy index")
    if any(not 2 <= a <= n for a in alphas):
        raise ValueError(f"Murphy indices {alphas} must lie in 2..{n}")
    if any(a >= b for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"Murphy indices {alphas} must be strictly increasing")
    base_level = alphas[0] - 1
    marked = frozenset(alphas)
    memo: dict[tuple[int, ...], LaurentPoly] = {}

    def climb(d: YoungDiagram) -> LaurentPoly:
        if d.n == base_level:
            return LaurentPoly.constant(dimension(d))
        got = memo.get(d.rows)
        if got is not None:
            return got
        total = LaurentPoly.zero()
        mark = d.n in marked
        for parent in d.branch_down():
            below = climb(parent)
            if mark:
                below = below * q_content(_removed_box_content(d, parent))
            total = total + below
        memo[d.rows] = total
        return total

    return climb(g)


def doubly_connected_traces(g: YoungDiagram) -> dict[str, LaurentPoly]:
    """Traces of g_1 g_3 and (for n >= 5) g_1 g_3 g_4.

    tr(L_2 L_4) expands over the word basis as

        tr(g1 g3) + (q-1)/q (q + 1/q) tr(g1 g2 g3)
                  + 2 (q - 1 + 1/q) tr(g1 g2) + (q-1) tr(g1)

    and tr(L_2 L_5) as

        2 tr(g1 g3) + (q-1)/q tr(g1 g3 g4)
        + ((q-1)/q)^2 (q + 1/q) tr(g1 g2 g3 g4)
        + (q-1)/q (3q - 2 + 3/q) tr(g1 g2 g3)
        + (3q - 4 + 3/q) tr(g1 g2) + (q-1) tr(g1)

    so with the connected traces already known, the two relations are
    solved for the doubly-connected ones.  Deeper reductions are not
    implemented; products of Murphy operators remain available through
    `murphy_product_trace`.
    """
    n = g.n
    if n < 4:
        raise ValueError("doubly-connected words need n >= 4")
    tau = {k: simply_connected_trace(g, k) for k in range(2, min(n, 5) + 1)}
    q_plus_inv = _Q + LaurentPoly.monomial(-1)
    ratio = _QM1 * LaurentPoly.monomial(-1)  # (q-1)/q, a Laurent polynomial

    t24 = murphy_product_trace(g, (2, 4))
    g13 = (
        t24
        - ratio * q_plus_inv * tau[4]
        - (_QM1 + LaurentPoly.monomial(-1)) * 2 * tau[3]
        - _QM1 * tau[2]
    )
    out = {"g1*g3": g13}
    if n >= 5:
        t25 = murphy_product_trace(g, (2, 5))
        three_q = _Q * 3 - 2 + LaurentPoly.monomial(-1, 3)
        remainder = (
            t25
            - g13 * 2
            - ratio * ratio * q_plus_inv * tau[5]
            - ratio * three_q * tau[4]
            - (_Q * 3 - 4 + LaurentPoly.monomial(-1, 3)) * tau[3]
            - _QM1 * tau[2]
        )
        out["g1*g3*g4"] = (remainder * _Q).divide_exact(_QM1)
    return out


def murphy_trace_table_json(n: int) -> dict:
    """JSON-ready Murphy trace tables: per diagram, per index, a string."""
    tables = {}
    for g in partitions(n):
        entries = murphy_traces(g).entries
        tables[str(g)] = {str(i): str(entries[i]) for i in sorted(entries)}
    return {"n": n, "tables": tables}
