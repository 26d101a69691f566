import pickle
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from heckeq.diagrams import (
    YoungDiagram,
    dimension,
    generic_degree,
    partitions,
    paths,
)
from heckeq.hecke_oracle import hecke_projector
from heckeq.laurent import LaurentPoly
from heckeq.suq import GZPattern, SuqIrrep
from heckeq.traces import MurphyTraceTable, murphy_traces

from conftest import P, Y


@lru_cache(maxsize=None)
def partition_count(n: int, max_part: int) -> int:
    """Independent counting oracle: number of partitions of n with parts <= max_part."""
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    total = 0
    for first in range(1, max_part + 1):
        if first > n:
            break
        total += partition_count(n - first, first)
    return total


class TestYoungDiagram:
    def test_validation(self):
        with pytest.raises(ValueError):
            YoungDiagram(())
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))
        with pytest.raises(ValueError):
            YoungDiagram((2, -1))

    def test_string_roundtrip(self):
        g = YoungDiagram.from_string("4,1,1")
        assert g == Y(4, 1, 1)
        assert str(g) == "4,1,1"
        with pytest.raises(ValueError):
            YoungDiagram.from_string("4,x")

    def test_n(self):
        assert Y(4, 1, 1).n == 6


# The package's read-only records, each with its positional fields and
# the repr it must keep.
RECORDS = {
    "YoungDiagram": (lambda: YoungDiagram((2, 1)), ((2, 1),), "YoungDiagram((2, 1))"),
    "SuqIrrep": (lambda: SuqIrrep(3, (2, 1, 0)), (3, (2, 1, 0)), "SuqIrrep(N=3, top=(2, 1, 0))"),
    "GZPattern": (lambda: GZPattern(((1,), (1, 0))), (((1,), (1, 0)),), "GZPattern(rows=((1,), (1, 0)))"),
    "ProjectorPoly": (
        lambda: hecke_projector(Y(2, 1), 3, 2),
        (Y(2, 1), 3, Fraction(2), (Fraction(40, 49), Fraction(11, 49), Fraction(-2, 49))),
        "ProjectorPoly(diagram=YoungDiagram((2, 1)), n=3, q0=Fraction(2, 1), "
        "coeffs=(Fraction(40, 49), Fraction(11, 49), Fraction(-2, 49)))",
    ),
    "MurphyTraceTable": (
        lambda: murphy_traces(Y(2, 1)),
        (Y(2, 1), murphy_traces(Y(2, 1)).entries),
        "MurphyTraceTable(diagram=YoungDiagram((2, 1)), entries=mappingproxy({2: LaurentPoly('q-1'), 3: LaurentPoly('q-1')}))",
    ),
}


@pytest.mark.parametrize("make,fields,text", RECORDS.values(), ids=RECORDS.keys())
class TestRecords:
    def test_fields_cannot_be_assigned_or_deleted(self, make, fields, text):
        record = make()
        for name, value in zip(type(record).__match_args__, fields):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_positional_construction_equality_and_repr(self, make, fields, text):
        record = make()
        again = type(record)(*fields)
        assert again == record and not again != record
        assert record != fields and fields != record
        assert repr(record) == repr(again) == text

    def test_keyword_construction(self, make, fields, text):
        record = make()
        cls, names = type(record), type(record).__match_args__
        assert cls(**dict(zip(names, fields))) == record
        assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == record
        with pytest.raises(TypeError):
            cls(*fields, **{names[0]: fields[0]})
        with pytest.raises(TypeError):
            cls(*fields, extra=1)

    def test_hash_is_the_hash_of_the_fields(self, make, fields, text):
        record = make()
        if isinstance(record, MurphyTraceTable):  # its entries are a mappingproxy
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(fields)
            assert pickle.loads(pickle.dumps(record)) == record


def test_records_equal_only_within_one_class():
    class Subclass(YoungDiagram):
        __slots__ = ()

    assert YoungDiagram((2, 1)) != (2, 1)
    assert Subclass((2, 1)) != YoungDiagram((2, 1)) and YoungDiagram((2, 1)) != Subclass((2, 1))
    assert len({YoungDiagram((2, 1)), Subclass((2, 1)), ((2, 1),)}) == 3


class TestPartitions:
    def test_n3_exhaustive(self):
        assert {g.rows for g in partitions(3)} == {(3,), (2, 1), (1, 1, 1)}

    def test_descending_lex_order(self):
        assert [g.rows for g in partitions(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_n6_includes_degenerate_pair(self):
        parts = partitions(6)
        assert len(parts) == 11
        rows = {g.rows for g in parts}
        assert (4, 1, 1) in rows and (3, 3) in rows

    def test_count_vs_oracle(self):
        # oracle first: the bounded-part recurrence gives p(14) = 135
        assert partition_count(14, 14) == 135
        assert len(partitions(14)) == 135
        for n in range(1, 13):
            assert len(partitions(n)) == partition_count(n, n)

    def test_no_duplicates(self):
        for n in range(1, 11):
            parts = partitions(n)
            assert len(parts) == len(set(parts))
            assert all(g.n == n for g in parts)


class TestContents:
    def test_single_column(self):
        assert sorted(Y(1, 1, 1).contents()) == [-2, -1, 0]

    def test_two_rows(self):
        assert Counter(Y(3, 3).contents()) == Counter({0: 2, 1: 2, -1: 1, 2: 1})

    def test_hook(self):
        assert sorted(Y(4, 1, 1).contents()) == [-2, -1, 0, 1, 2, 3]

    def test_diagonal_counts(self):
        assert Y(3, 3).diagonal_counts() == {-1: 1, 0: 2, 1: 2, 2: 1}
        assert Y(5).diagonal_counts() == {k: 1 for k in range(5)}

    def test_extreme_diagonals_single_box(self):
        for n in range(1, 8):
            for g in partitions(n):
                beta = g.diagonal_counts()
                assert beta[max(beta)] == 1
                assert beta[min(beta)] == 1
                assert sum(beta.values()) == n

    def test_diagonal_counts_rebuild_content_sum(self):
        for n in range(1, 8):
            for g in partitions(n):
                beta = g.diagonal_counts()
                assert sum(k * b for k, b in beta.items()) == sum(g.contents())


class TestBranching:
    def test_branch_down_examples(self):
        assert [h.rows for h in Y(3, 1).branch_down()] == [(2, 1), (3,)]
        assert [h.rows for h in Y(2, 1).branch_down()] == [(1, 1), (2,)]
        assert Y(1).branch_down() == []

    def test_removals_carry_the_removed_box_content(self):
        assert [(h.rows, c) for h, c in Y(3, 1).removals()] == [((2, 1), 2), ((3,), -1)]
        assert [(h.rows, c) for h, c in Y(2, 2).removals()] == [((2, 1), 0)]
        assert Y(1).removals() == []

    def test_branch_up_examples(self):
        assert [h.rows for h in Y(2).branch_up()] == [(3,), (2, 1)]
        assert [h.rows for h in Y(2, 1).branch_up()] == [(3, 1), (2, 2), (2, 1, 1)]

    def test_adjunction(self):
        for n in range(1, 7):
            for g in partitions(n):
                for h in g.branch_up():
                    assert g in h.branch_down()
                if n >= 2:
                    for h in g.branch_down():
                        assert g in h.branch_up()


class TestPathsAndDimension:
    def test_path_counts(self):
        assert len(paths(Y(2, 1))) == 2
        assert len(paths(Y(3, 1))) == 3
        for n in range(1, 7):
            assert len(paths(Y(n))) == 1

    def test_paths_shape(self):
        for chain in paths(Y(3, 1)):
            assert chain[0] == Y(1)
            assert chain[-1] == Y(3, 1)
            assert [g.n for g in chain] == [1, 2, 3, 4]
        chains = paths(Y(2, 2))
        assert len(set(chains)) == len(chains)

    def test_dimension_examples(self):
        assert dimension(Y(2, 1)) == 2
        assert dimension(Y(3)) == 1
        assert dimension(Y(3, 3)) == 5
        assert dimension(Y(4, 1, 1)) == 10

    def test_dimension_counts_paths(self):
        for n in range(1, 7):
            for g in partitions(n):
                assert dimension(g) == len(paths(g))

    def test_sum_of_squares_is_factorial(self):
        for n in range(1, 8):
            assert sum(dimension(g) ** 2 for g in partitions(n)) == factorial(n)

    def test_branching_recursion(self):
        # the recursion is the oracle for the hook-length formula
        for n in range(2, 13):
            for g in partitions(n):
                assert dimension(g) == sum(dimension(h) for h in g.branch_down())



def major_index_sum(g: YoungDiagram) -> LaurentPoly:
    """Independent oracle: the sum of q^maj(T) over the standard tableaux T of g.

    Along a chain of diagrams, box k lands in the row that grew at step
    k; k is a descent when box k + 1 lands in a lower row.
    """
    total = LaurentPoly.zero()
    for chain in paths(g):
        rows = [0] + [
            next(i for i, (a, b) in enumerate(zip(big.rows, small.rows + (0,))) if a != b)
            for small, big in zip(chain, chain[1:])
        ]
        total = total + LaurentPoly.monomial(sum(k for k in range(1, g.n) if rows[k] > rows[k - 1]))
    return total


class TestGenericDegree:
    def test_examples(self):
        assert generic_degree(Y(1)) == P("1")
        assert generic_degree(Y(2, 1)) == P("q^2+q")
        assert generic_degree(Y(2, 2)) == P("q^4+q^2")
        assert generic_degree(Y(1, 1, 1, 1)) == P("q^6")

    def test_is_the_major_index_generating_function(self):
        # Stanley, EC2 7.21.5: sum over SYT of q^maj = q^n(g) [n]_q! / prod [hook]_q
        for n in range(1, 8):
            for g in partitions(n):
                assert generic_degree(g) == major_index_sum(g)

    def test_at_one_is_the_dimension(self):
        for n in range(1, 11):
            for g in partitions(n):
                assert generic_degree(g).evaluate(1) == dimension(g)
