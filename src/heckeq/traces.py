"""Symbolic traces of the Hecke algebra from the branching lattice.

Every basis state of an irrep is a chain of Young diagrams, and each
Murphy operator acts diagonally on those chains with the q-content of
the box added at its step.  That single fact drives everything here:

* A Murphy trace tr(L_i) is integer data: the number of standard
  tableaux with i in a box of content c, for each c, weighted by that
  content's q-content.  One climb of the branching lattice carries these
  counts for every i, packed in one int per diagram, and only at the top
  do they become polynomials, one diagram at a time.  Traces of products
  of distinct Murphy operators are path sums of q-contents over the
  chains of diagrams.  Both walks go a level at a time and hold the
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

from collections.abc import Iterator, Mapping
from functools import cache
from math import comb
from types import MappingProxyType

from .diagrams import YoungDiagram, dimension, partitions, row_removals
from .invariant import invariant_eigenvalue
from .laurent import LaurentPoly, _integer, _q_content_sum, q_content

__all__ = [
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
# the coefficients of the two relations solved in `doubly_connected_traces`
_Q_PLUS_INV = LaurentPoly({1: 1, -1: 1})  # q + 1/q
_RATIO = LaurentPoly({0: 1, -1: -1})  # (q-1)/q
_Q_MINUS_1_PLUS_INV = LaurentPoly({1: 1, 0: -1, -1: 1})  # q - 1 + 1/q
_3Q_MINUS_2 = LaurentPoly({1: 3, 0: -2, -1: 3})  # 3q - 2 + 3/q
_3Q_MINUS_4 = LaurentPoly({1: 3, 0: -4, -1: 3})  # 3q - 4 + 3/q


_Level = list[list[tuple[int, int]]]


def _lattice(tops: list[YoungDiagram]) -> list[_Level]:
    """The branching lattice from level 1 up to the level of `tops`.

    One list per level, level 1 first, holding each diagram's steps down
    (the top level in the order of `tops`): the position in the previous
    level of each diagram one box below it, and the content of the
    removed box.  The one-box diagram has no steps.  Diagrams below the
    tops are only row tuples while the walk runs, and none is kept.
    """
    levels: list[_Level] = []
    level = [g.rows for g in tops]
    for _ in range(tops[0].n - 1):
        position: dict[tuple[int, ...], int] = {}
        steps = [[(position.setdefault(below, len(position)), c) for below, c in row_removals(rows)] for rows in level]
        levels.append(steps)
        level = list(position)
    levels.append([[]])
    return levels[::-1]


def _path_sums(levels: list[_Level], alphas: tuple[int, ...]) -> list[LaurentPoly]:
    """tr(L_a1 ... L_al) at each diagram of the top level, by one climb.

    The climb starts at level 1, the one-box diagram, with 1.  Summed
    over every chain from there up to the top, each marked level
    contributes the q-content of the box added there, so below a1 the
    sums count the chains: each diagram's dimension.  Only one level of
    values is held at a time; an unmarked level's sum starts from its
    first step's value, so a single step passes it on uncopied.
    """
    marked = frozenset(alphas)
    values = [1]
    for level, entries in enumerate(levels[1:], start=2):
        if level in marked:
            values = [sum((q_content(c) * values[j] for j, c in steps), _ZERO) for steps in entries]
        else:
            values = [sum((values[j] for j, _ in s[1:]), values[s[0][0]]) for s in entries]
    return values


def _murphy_columns(tops: list[YoungDiagram]) -> Iterator[tuple[YoungDiagram, dict[int, LaurentPoly]]]:
    """Each top diagram g with its Murphy traces {i: tr(L_i)}, one g at a time.

    tr(L_i) = sum over c of N_i(g, c) q_content(c), where N_i(g, c) counts
    the standard tableaux of shape g with i in a box of content c.  One
    climb of the lattice carries every N_i(d, c) of a diagram d packed in
    one int, a slot per (i, c) at a fixed offset: slot 0 holds
    N_1(d, 0) = dim(d), then column i = 2, 3, ... holds one slot for each
    content of a box added at level i anywhere in the lattice.  A step
    down from d adds d's packed value, plus dim(d) at the slot of d's
    level + 1 and the added box's content.  Every slot is as wide as dim
    of the largest top in whole bytes, and no slot ever carries into the
    next: every count and partial sum is nonnegative, and N_i(d, c) <=
    dim(d) <= dim(top) because each chain to d extends to one to a top.
    Only at the top do counts become polynomials, each top's columns read
    from their own windows of slots, narrowed to g's nonzero ones.
    """
    levels = _lattice(tops)
    width = -(-max(map(dimension, tops)).bit_length() // 8)
    bits = 8 * width
    mask = (1 << bits) - 1
    columns = []  # (i, lowest content, first byte, end byte) of each column
    end = 1  # slots so far
    values = [1]
    for i, entries in enumerate(levels[1:], start=2):
        contents = [c for steps in entries for _, c in steps]
        low = min(contents)
        span = max(contents) - low + 1
        zero = (end - low) * bits  # the bit offset of content 0 in column i
        values = [sum(values[j] + ((values[j] & mask) << (zero + c * bits)) for j, c in steps) for steps in entries]
        columns.append((i, low, end * width, (end + span) * width))
        end += span
    for g, packed in zip(tops, values):
        data = packed.to_bytes(end * width, "little")
        table = {}
        for i, low, first, stop in columns:
            window = data[first:stop].rstrip(b"\0")
            start = (len(window) - len(window.lstrip(b"\0"))) // width * width  # g's first content in the column
            slots = range(start, len(window), width)
            table[i] = _q_content_sum({low + k // width: int.from_bytes(window[k : k + width], "little") for k in slots})
        yield g, table


@cache
def murphy_traces(g: YoungDiagram) -> Mapping[int, LaurentPoly]:
    """All Murphy traces {i: tr(L_i)} of the irrep labeled by g.

    tr(L_i) is the sum over standard tableaux of the q-content of box i,
    so it is read off the integer counts of tableaux by the content of
    box i, for every i at once, from one climb of the lattice below g.
    The traces sum to dim(g) times the invariant eigenvalue, because the
    invariant is the sum of the Murphy operators.  The mapping is
    read-only, because every caller shares the cached one.
    """
    ((_, entries),) = _murphy_columns([g])
    return MappingProxyType(entries)


def simply_connected_trace(g: YoungDiagram, k: int) -> LaurentPoly:
    """Trace of the word g_1 g_2 ... g_{k-1} in the irrep labeled by g.

    Binomial inversion of the Murphy traces:

        tau_k = (q/(q-1))^(k-2) * sum_{i=0}^{k-2} (-1)^i C(k-1, i) tr(L_{k-i})

    The prefactor must divide exactly; a `NotDivisible` failure would
    mean the lattice walk produced an inconsistent table.
    """
    _integer(k, "word length index", 2, g.n)
    table = murphy_traces(g)
    acc = sum((table[k - i] * ((-1) ** i * comb(k - 1, i)) for i in range(k - 1)), _ZERO)
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

    A path sum over the branching lattice below g, from the one-box
    diagram up to g, walked by `_path_sums`.  Indices must be strictly
    increasing within 2..n.
    """
    alphas = tuple(alphas)
    n = g.n
    if not alphas:
        raise ValueError("need at least one Murphy index")
    for a in alphas:
        _integer(a, "Murphy index", 2, n)
    if any(a >= b for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"Murphy indices {alphas} must be strictly increasing")
    return _path_sums(_lattice([g]), alphas)[0]


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
    levels = _lattice([g])
    t24 = _path_sums(levels, (2, 4))[0]
    g13 = t24 - _RATIO * _Q_PLUS_INV * tau[4] - _Q_MINUS_1_PLUS_INV * 2 * tau[3] - _QM1 * tau[2]
    out = {"g1*g3": g13}
    if n >= 5:
        t25 = _path_sums(levels, (2, 5))[0]
        remainder = (
            t25
            - g13 * 2
            - _RATIO * _RATIO * _Q_PLUS_INV * tau[5]
            - _RATIO * _3Q_MINUS_2 * tau[4]
            - _3Q_MINUS_4 * tau[3]
            - _QM1 * tau[2]
        )
        out["g1*g3*g4"] = (remainder * _Q).divide_exact(_QM1)
    return out


def murphy_trace_table_json(n: int) -> dict:
    """JSON-ready Murphy trace tables: per diagram, per index, a string."""
    tables = {str(g): {str(i): str(p) for i, p in entries.items()} for g, entries in _murphy_columns(partitions(n))}
    return {"n": n, "tables": tables}
