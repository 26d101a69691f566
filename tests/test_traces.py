import sys
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from heckeq import traces
from heckeq.diagrams import YoungDiagram, dimension, partitions, row_removals
from heckeq.hecke_oracle import irreducible_trace
from heckeq.invariant import invariant_eigenvalue
from heckeq.laurent import LaurentPoly, q_content
from heckeq.traces import (
    doubly_connected_traces,
    invariant_trace_consistency,
    murphy_product_trace,
    murphy_trace_table_json,
    murphy_traces,
    simply_connected_trace,
)

from conftest import P, Y, product, tableau_chains


class TestMurphyTraces:
    def test_h3_tables(self):
        assert murphy_traces(Y(3)) == {2: P("q"), 3: P("q+q^2")}
        assert murphy_traces(Y(2, 1)) == {2: P("q-1"), 3: P("q-1")}
        assert murphy_traces(Y(1, 1, 1)) == {2: P("-1"), 3: P("-1-q^-1")}

    def test_h4_three_one(self):
        table = murphy_traces(Y(3, 1))
        assert table == {2: P("2*q-1"), 3: P("q^2+2*q-1"), 4: P("2*q^2+2*q-1")}

    def test_restriction_along_branching(self):
        for n in range(3, 8):
            for g in partitions(n):
                table = murphy_traces(g)
                parents = [murphy_traces(YoungDiagram(rows)) for rows, _ in row_removals(g.rows)]
                for i in range(2, n):
                    total = LaurentPoly.zero()
                    for parent in parents:
                        total = total + parent[i]
                    assert table[i] == total

    def test_top_trace_two_forms_agree(self):
        # dim * eigenvalue - sum of the lower traces must equal the
        # box-content sum over covered diagrams
        for n in range(2, 8):
            for g in partitions(n):
                table = murphy_traces(g)
                residual = invariant_eigenvalue(g) * dimension(g)
                for i in range(2, n):
                    residual = residual - table[i]
                assert table[n] == residual

    def test_table_sums_to_invariant_trace(self):
        for n in range(2, 8):
            for g in partitions(n):
                total = LaurentPoly.zero()
                for poly in murphy_traces(g).values():
                    total = total + poly
                assert total == invariant_eigenvalue(g) * dimension(g)

    def test_single_box_table_is_empty(self):
        assert murphy_traces(Y(1)) == {}


def added_content(smaller: YoungDiagram, larger: YoungDiagram) -> int:
    """Content of the one box by which larger exceeds smaller."""
    padded = smaller.rows + (0,)
    i = next(i for i, r in enumerate(larger.rows) if r != padded[i])
    return larger.rows[i] - 1 - i


def tableau_trace(g: YoungDiagram, alphas: tuple[int, ...]) -> LaurentPoly:
    """tr(L_a1 ... L_al) summed over the standard tableaux of g one by one."""
    total = LaurentPoly.zero()
    for chain in tableau_chains(g):
        steps = (q_content(added_content(chain[a - 2], chain[a - 1])) for a in alphas)
        total = total + prod(steps, start=LaurentPoly.one())
    return total


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestTableauReference:
    def test_products_match_tableau_enumeration(self):
        for n in range(2, 8):
            for g in partitions(n):
                for size in range(1, n):
                    for alphas in combinations(range(2, n + 1), size):
                        assert murphy_product_trace(g, alphas) == tableau_trace(g, alphas), (g, alphas)

    def test_murphy_traces_match_tableau_enumeration(self):
        for n in range(2, 8):
            for g in partitions(n):
                expected = {i: tableau_trace(g, (i,)) for i in range(2, n + 1)}
                assert murphy_traces(g) == expected, g


class TestDeepDiagrams:
    def test_walk_needs_no_stack_per_box(self):
        # 300 boxes deep, under a recursion limit of only 60 frames above the caller
        row, column = YoungDiagram((300,)), YoungDiagram((1,) * 300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 60)
        try:
            table = murphy_traces(row)
            column_table = murphy_traces(column)
            product = murphy_product_trace(column, (2, 150, 300))
        finally:
            sys.setrecursionlimit(limit)
        # one standard tableau each: tr(L_i) is the q-content of box i
        assert table == {i: q_content(i - 1) for i in range(2, 301)}
        assert column_table == {i: q_content(1 - i) for i in range(2, 301)}
        assert product == q_content(-1) * q_content(-149) * q_content(-299)


class TestConnectedTraces:
    def test_h3_rows(self):
        assert [simply_connected_trace(Y(3), k) for k in (2, 3)] == [P("q"), P("q^2")]
        assert [simply_connected_trace(Y(2, 1), k) for k in (2, 3)] == [P("q-1"), P("-q")]
        assert [simply_connected_trace(Y(1, 1, 1), k) for k in (2, 3)] == [P("-1"), P("1")]

    def test_h4_three_one(self):
        values = [simply_connected_trace(Y(3, 1), k) for k in (2, 3, 4)]
        assert values == [P("2*q-1"), P("q^2-q"), P("-q^2")]

    def test_single_row_powers(self):
        for n in range(2, 7):
            for k in range(2, n + 1):
                assert simply_connected_trace(Y(n), k) == LaurentPoly.monomial(k - 1)

    def test_bounds(self):
        with pytest.raises(ValueError):
            simply_connected_trace(Y(2, 1), 4)
        with pytest.raises(ValueError):
            simply_connected_trace(Y(2, 1), 1)


class TestInvariantTraceConsistency:
    def test_h3_expansion_identity(self):
        # 3 tau_2 + ((q-1)/q) tau_3 at the single-row irrep is the eigenvalue
        g = Y(3)
        lhs = simply_connected_trace(g, 2) * 3 + (
            simply_connected_trace(g, 3) * P("q-1")
        ).divide_exact(P("q"))
        assert lhs == P("q^2+2*q")

    def test_exhaustive(self):
        for n in range(1, 8):
            for g in partitions(n):
                assert invariant_trace_consistency(g)


class TestMurphyProducts:
    def test_published_h4_value(self):
        assert murphy_product_trace(Y(3, 1), (2, 4)) == P("q^3-2*q")

    def test_single_row_single_path(self):
        # only one chain: eigenvalues multiply, q * (q + q^2 + q^3)
        expected = q_content(1) * q_content(3)
        assert murphy_product_trace(Y(4), (2, 4)) == expected
        assert expected == P("q^2+q^3+q^4")

    def test_single_factor_reduces_to_murphy_trace(self):
        for n in range(2, 7):
            for g in partitions(n):
                table = murphy_traces(g)
                for i in range(2, n + 1):
                    assert murphy_product_trace(g, (i,)) == table[i]
        # murphy_traces packs its counts in slots of dim(g)'s width in
        # whole bytes; these diagrams need 2, 3, 4, 5, 8 and 10 bytes
        diagrams = [
            Y(4, 4, 4, 4),
            Y(5, 4, 3, 2, 1),
            max(partitions(20), key=dimension),
            max(partitions(24), key=dimension),
            Y(7, 7, 7, 7, 7, 7),
            Y(8, 8, 8, 8, 8, 8),
        ]
        assert [dimension(g).bit_length() for g in diagrams] == [15, 19, 28, 37, 64, 76]
        for g in diagrams:
            table = murphy_traces(g)
            for i in (2, g.n // 2, g.n):
                assert murphy_product_trace(g, (i,)) == table[i], (g, i)

    def test_validation(self):
        with pytest.raises(ValueError):
            murphy_product_trace(Y(3, 1), (4, 2))
        with pytest.raises(ValueError):
            murphy_product_trace(Y(3, 1), (2, 2))
        with pytest.raises(ValueError):
            murphy_product_trace(Y(3, 1), (1, 2))
        with pytest.raises(ValueError):
            murphy_product_trace(Y(3, 1), ())

    def test_oracle_agreement_at_specialization(self):
        # tr(L_2 L_4) computed by path sum vs the oracle, through the reference product
        from heckeq.hecke_oracle import murphy_element, projector_element, regular_trace

        q0 = Fraction(2)
        for g in partitions(4):
            murphy = product(murphy_element(4, q0, 2), murphy_element(4, q0, 4))
            pe = projector_element(g, q0)
            oracle = regular_trace(product(pe, murphy)) / dimension(g)
            assert murphy_product_trace(g, (2, 4)).evaluate(q0) == oracle


class TestDoublyConnected:
    def test_published_h4_values(self):
        assert doubly_connected_traces(Y(4))["g1*g3"] == P("q^2")
        assert doubly_connected_traces(Y(3, 1))["g1*g3"] == P("q^2-2*q")

    def test_needs_four_strands(self):
        with pytest.raises(ValueError):
            doubly_connected_traces(Y(2, 1))

    def test_h4_has_no_second_label(self):
        assert set(doubly_connected_traces(Y(4))) == {"g1*g3"}
        assert set(doubly_connected_traces(Y(4, 1))) == {"g1*g3", "g1*g3*g4"}

    def test_oracle_agreement_all_partitions_of_five(self):
        q0 = Fraction(2)
        for g in partitions(5):
            solved = doubly_connected_traces(g)
            assert solved["g1*g3"].evaluate(q0) == irreducible_trace(g, (1, 3), q0)
            assert solved["g1*g3*g4"].evaluate(q0) == irreducible_trace(g, (1, 3, 4), q0)


class TestConnectivityClasses:
    def test_trace_depends_only_on_connectivity_at_four(self):
        q0 = Fraction(2)
        for g in partitions(4):
            singles = {irreducible_trace(g, (i,), q0) for i in range(1, 4)}
            assert len(singles) == 1
            adjacent = {irreducible_trace(g, (i, i + 1), q0) for i in range(1, 3)}
            assert len(adjacent) == 1

    def test_trace_depends_only_on_connectivity_at_five(self):
        # the oracle must give the same trace for any single generator, any
        # pair of adjacent generators, and any pair of separated generators
        q0 = Fraction(2)
        for g in partitions(5):
            singles = {irreducible_trace(g, (i,), q0) for i in range(1, 5)}
            assert len(singles) == 1
            adjacent = {irreducible_trace(g, (i, i + 1), q0) for i in range(1, 4)}
            assert len(adjacent) == 1
            separated = {irreducible_trace(g, (1, 3), q0), irreducible_trace(g, (1, 4), q0)}
            assert len(separated) == 1


class TestJson:
    def test_table_layout(self):
        doc = murphy_trace_table_json(4)
        assert doc["n"] == 4
        assert doc["tables"]["3,1"] == {"2": "2*q-1", "3": "q^2+2*q-1", "4": "2*q^2+2*q-1"}
        assert set(doc["tables"]) == {str(g) for g in partitions(4)}

    def test_one_and_two_boxes(self):
        assert murphy_traces(Y(2)) == {2: P("q")}
        assert murphy_traces(Y(1, 1)) == {2: P("-1")}
        assert murphy_trace_table_json(1) == {"n": 1, "tables": {"1": {}}}
        assert murphy_trace_table_json(2) == {"n": 2, "tables": {"2": {"2": "q"}, "1,1": {"2": "-1"}}}

    def test_tables_match_path_sums(self):
        # all diagrams of n share one climb, slot width and column windows
        n = 9
        doc = murphy_trace_table_json(n)
        for g in partitions(n):
            expected = {str(i): str(murphy_product_trace(g, (i,))) for i in range(2, n + 1)}
            assert doc["tables"][str(g)] == expected, g

    def test_lattice_builds_no_diagram_below_the_tops(self, monkeypatch):
        built = []
        init = YoungDiagram.__init__
        monkeypatch.setattr(YoungDiagram, "__init__", lambda self, rows: built.append(rows) or init(self, rows))
        murphy_trace_table_json(12)
        assert sorted(built) == sorted(g.rows for g in partitions(12))

    def test_path_sums_count_their_own_chains(self, monkeypatch):
        # below a1 the climb counts chains from the one-box diagram: no diagram is
        # built below the top and no dimension is taken
        g = Y(4, 3, 2)
        cases = [(2,), (5,), (9,), (3, 6, 9)]
        expected = [murphy_product_trace(g, alphas) for alphas in cases]
        built = []
        init = YoungDiagram.__init__
        monkeypatch.setattr(YoungDiagram, "__init__", lambda self, rows: built.append(rows) or init(self, rows))

        def refuse(d):
            raise AssertionError(f"dimension({d}) taken")

        monkeypatch.setattr(traces, "dimension", refuse)
        assert [murphy_product_trace(g, alphas) for alphas in cases] == expected
        assert built == []

    def test_cached_table_is_read_only(self):
        with pytest.raises(TypeError):
            murphy_traces(Y(3, 1))[4] = LaurentPoly.zero()
        assert murphy_trace_table_json(4)["tables"]["3,1"]["4"] == "2*q^2+2*q-1"
