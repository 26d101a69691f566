from fractions import Fraction
from functools import cache

import pytest

from heckeq import HeckeElement, LaurentPoly, YoungDiagram
from heckeq.diagrams import row_removals
from heckeq.hecke_oracle import _act, _kernel


@pytest.fixture
def q():
    return LaurentPoly.q()


def Y(*rows: int) -> YoungDiagram:
    return YoungDiagram(tuple(rows))


def P(text: str) -> LaurentPoly:
    return LaurentPoly.from_string(text)


def F(*args) -> Fraction:
    return Fraction(*args)


def box_contents(g: YoungDiagram) -> list[int]:
    """Contents j - i of all boxes of g, row by row: the reference for the content histogram."""
    return [j - i for i, length in enumerate(g.rows, start=1) for j in range(1, length + 1)]


def tableau_chains(g: YoungDiagram) -> list[tuple[YoungDiagram, ...]]:
    """Every standard-tableau chain [1] = G_1 < G_2 < ... < G_n = g, one box per step.

    An exponential reference enumeration: one chain per standard tableau
    of g, so there are dimension(g) of them.
    """
    if g.n == 1:
        return [(g,)]
    return [chain + (g,) for rows, _ in row_removals(g.rows) for chain in tableau_chains(YoungDiagram(rows))]


@cache
def first_descent_tree(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The spanning tree of the right weak order whose parent of w is w with its first descent removed.

    Returns (parent, walk) over the ranks of `_kernel(n)`: parent[r] is
    the rank of r's parent, and walk lists the non-root nodes in
    depth-first order as (rank, generator taking the parent to it,
    depth), the depth being the length.
    """
    kernel = _kernel(n)
    parent = [0] * len(kernel.perms)
    children: list[list[tuple[int, int]]] = [[] for _ in kernel.perms]
    for r, w in enumerate(kernel.perms[1:], 1):
        i = next(i for i in range(1, n) if w[i - 1] > w[i])
        parent[r] = kernel.right[i - 1][0][r]
        children[parent[r]].append((r, i))
    walk = []
    stack = [(r, i, 1) for r, i in reversed(children[0])]
    while stack:
        r, i, depth = stack.pop()
        walk.append((r, i, depth))
        stack.extend((c, j, depth + 1) for c, j in reversed(children[r]))
    return tuple(parent), tuple(walk)


def product(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """x * y, the reference product of two elements, by a walk of the first-descent tree.

    x T'_w costs one generator action on x T'_u for w's parent u, and
    only the vectors on the current root-to-node path are held.  The
    walk visits the ancestors of y's support and sums y's coefficients
    times the x T'_w it reaches.
    """
    x._check_compatible(y)
    parent, walk = first_descent_tree(x.n)
    right = _kernel(x.n).right
    weights = y._vec
    keep = bytearray(len(weights))
    for r, c in enumerate(weights):
        if c:
            while not keep[r]:
                keep[r] = 1
                r = parent[r]
    total = [weights[0] * c for c in x._vec]
    path = [x._vec]
    for r, i, depth in walk:
        if keep[r]:
            del path[depth:]
            path.append(_act(path[-1], right[i - 1], x.q0))
            c = weights[r]
            if c:
                total = [s + c * v for s, v in zip(total, path[-1])]
    return HeckeElement._make(x.n, x.q0, total, x._den * y._den)
