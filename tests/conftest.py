from fractions import Fraction

import pytest

from heckeq import LaurentPoly, YoungDiagram


@pytest.fixture
def q():
    return LaurentPoly.q()


def Y(*rows: int) -> YoungDiagram:
    return YoungDiagram(tuple(rows))


def P(text: str) -> LaurentPoly:
    return LaurentPoly.from_string(text)


def F(*args) -> Fraction:
    return Fraction(*args)


def tableau_chains(g: YoungDiagram) -> list[tuple[YoungDiagram, ...]]:
    """Every standard-tableau chain [1] = G_1 < G_2 < ... < G_n = g, one box per step.

    An exponential reference enumeration: one chain per standard tableau
    of g, so there are dimension(g) of them.
    """
    if g.n == 1:
        return [(g,)]
    return [chain + (g,) for below in g.branch_down() for chain in tableau_chains(below)]
