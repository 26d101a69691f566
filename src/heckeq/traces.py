"""Symbolic traces of the Hecke algebra from the branching lattice.

Every basis state of an irrep is a chain of Young diagrams, and each
Murphy operator acts diagonally on those chains with the q-content of
the box added at its step.  That single fact drives everything here:

* Murphy traces tr(L_i), and traces of products of distinct Murphy
  operators, are path sums over the chains of diagrams.  One iterative
  walk climbs the branching lattice a level at a time and holds the
  values of one level only, so no depth of diagram exhausts the stack.
* The traces of the words g_1 g_2 ... g_{k-1} (one for each connected
  interval of generators) follow from the Murphy traces by a binomial
  inversion whose (q/(q-1))^(k-2) prefactor must divide exactly.
* The two printed reductions for tr(g_1 g_3) and tr(g_1 g_3 g_4) are
  solved from tr(L_2 L_4), tr(L_2 L_5) and the connected traces.

All tables are kept symbolic in q; specialization happens only in the
regular-representation oracle that cross-checks them.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from math import comb
from types import MappingProxyType

from .diagrams import FrozenRecord, YoungDiagram, dimension, partitions
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
_ZERO = LaurentPoly.zero()
_QM1 = _Q - 1


class MurphyTraceTable(FrozenRecord):
    """Traces of the Murphy operators L_2..L_n in one irrep.

    The entries sum to dim(diagram) times the invariant eigenvalue,
    because the invariant is the sum of the Murphy operators.  They are
    a read-only view, because `murphy_traces` hands the same cached
    table to every caller.
    """

    __slots__ = __match_args__ = ("diagram", "entries")
    diagram: YoungDiagram
    entries: Mapping[int, LaurentPoly]


_Level = list[tuple[YoungDiagram, list[tuple[int, int]]]]


def _lattice(tops: list[YoungDiagram], bottom: int) -> list[_Level]:
    """The branching lattice from level `bottom` up to the level of `tops`.

    One list per level, bottom first.  Each entry pairs a diagram with
    its steps down: the position in the previous level of each diagram
    one box below it, and the content of the removed box.  The bottom
    level's entries have no steps.
    """
    levels: list[_Level] = []
    level = tops
    for _ in range(tops[0].n - bottom):
        position: dict[YoungDiagram, int] = {}
        steps = [[(position.setdefault(below, len(position)), c) for below, c in d.removals()] for d in level]
        levels.append(list(zip(level, steps)))
        level = list(position)
    levels.append([(d, []) for d in level])
    return levels[::-1]


def _path_sums(levels: list[_Level], alphas: tuple[int, ...]) -> list[LaurentPoly]:
    """tr(L_a1 ... L_al) at each diagram of the top level, by one climb.

    `levels[0]` is level a1 - 1.  Summed over every chain from there up
    to the top, the chain's first diagram contributes its dimension and
    each marked level the q-content of the box added there.  Only one
    level of values is held at a time; an unmarked level's sum starts
    from its first step's value, so a single step passes it on uncopied.
    """
    marked = frozenset(alphas)
    values = [dimension(d) for d, _ in levels[0]]
    for level, entries in enumerate(levels[1:], start=alphas[0]):
        if level in marked:
            values = [sum((q_content(c) * values[j] for j, c in steps), _ZERO) for _, steps in entries]
        else:
            values = [sum((values[j] for j, _ in s[1:]), values[s[0][0]]) for _, s in entries]
    return values


@cache
def murphy_traces(g: YoungDiagram) -> MurphyTraceTable:
    """All Murphy traces of the irrep labeled by g.

    tr(L_i) is the path sum of the single marked level i over the
    branching lattice below g, which is built once for all i.
    """
    levels = _lattice([g], 1)
    entries = {i: _path_sums(levels[i - 2 :], (i,))[0] for i in range(2, g.n + 1)}
    return MurphyTraceTable(g, MappingProxyType(entries))


def simply_connected_trace(g: YoungDiagram, k: int) -> LaurentPoly:
    """Trace of the word g_1 g_2 ... g_{k-1} in the irrep labeled by g.

    Binomial inversion of the Murphy traces:

        tau_k = (q/(q-1))^(k-2) * sum_{i=0}^{k-2} (-1)^i C(k-1, i) tr(L_{k-i})

    The prefactor must divide exactly; a `NotDivisible` failure would
    mean the lattice walk produced an inconsistent table.
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

    A path sum over the branching lattice below g, from level a1 - 1 up
    to g, walked by `_path_sums`.  Indices must be strictly increasing
    within 2..n.
    """
    alphas = tuple(alphas)
    n = g.n
    if not alphas:
        raise ValueError("need at least one Murphy index")
    if any(not 2 <= a <= n for a in alphas):
        raise ValueError(f"Murphy indices {alphas} must lie in 2..{n}")
    if any(a >= b for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"Murphy indices {alphas} must be strictly increasing")
    return _path_sums(_lattice([g], alphas[0] - 1), alphas)[0]


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
    tops = partitions(n)
    levels = _lattice(tops, 1)
    columns = {i: _path_sums(levels[i - 2 :], (i,)) for i in range(2, n + 1)}
    tables = {str(g): {str(i): str(column[k]) for i, column in columns.items()} for k, g in enumerate(tops)}
    return {"n": n, "tables": tables}
