"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its elapsed time.  Every comparison is exact (integer
or symbolic equality); there are no numeric tolerances anywhere.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 5's n = 6
sweep carries the ``slow`` marker; everything else is quick.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from heckeq.diagrams import dimension, partitions
from heckeq.hecke_oracle import (
    HeckeElement,
    fundamental_invariant,
    irreducible_trace,
    projector_element,
    regular_trace,
    word_element,
)
from heckeq.invariant import (
    central_character,
    invariant_eigenvalue,
    reconstruct_diagram,
    separating_depth,
)
from heckeq.laurent import LaurentPoly
from heckeq.suq import SuqIrrep, casimir_eigenvalue, hecke_casimir_correspondence, irrep_from_casimir
from heckeq.symgroup import (
    ClassVector,
    build_projector,
    character_table,
    characters_from_projector,
    class_product,
    single_cycle_class_sum,
)
from heckeq.traces import (
    doubly_connected_traces,
    invariant_trace_consistency,
    murphy_traces,
    simply_connected_trace,
)

from conftest import F, P, Y, product


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} FAIL ({elapsed:.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_eigenvalue_table():
    with criterion(1, "published invariant eigenvalues, exact symbolic equality"):
        assert invariant_eigenvalue(Y(2)) == P("q")
        assert invariant_eigenvalue(Y(1, 1)) == P("-1")
        assert invariant_eigenvalue(Y(3)) == P("q^2+2*q")
        assert invariant_eigenvalue(Y(2, 1)) == P("q-1")
        assert invariant_eigenvalue(Y(1, 1, 1)) == P("-2-q^-1")
        assert invariant_eigenvalue(Y(4, 1, 1)) == P("q^3+2*q^2+3*q-2-q^-1")
        assert invariant_eigenvalue(Y(3, 3)) == P("q^2+3*q-1")


def test_criterion_2_cayley_equations():
    with criterion(2, "Cayley equations annihilate the invariant in the oracle at q0=2"):
        q0 = F(2)
        c2 = fundamental_invariant(2, q0)
        one2 = HeckeElement.identity(2, q0)
        assert product(c2, c2) - c2 * (q0 - 1) - one2 * q0 == HeckeElement.zero(2, q0)

        c3 = fundamental_invariant(3, q0)
        one3 = HeckeElement.identity(3, q0)
        a2 = (q0 - 1) * (q0 + 4 + 1 / q0)
        a1 = q0**3 - q0**2 - 9 * q0 - 1 + 1 / q0
        a0 = (q0 - 1) * (2 * q0**2 + 5 * q0 + 2)
        square = product(c3, c3)
        cubic = product(square, c3) - square * a2 + c3 * a1 + one3 * a0
        assert cubic == HeckeElement.zero(3, q0)


def test_criterion_3_character_extraction():
    with criterion(3, "projector characters equal Murnaghan-Nakayama for n=3..6"):
        for n in range(3, 7):
            assert character_table(n, "projector") == character_table(n, "mn")

        row = characters_from_projector(build_projector(Y(2, 1)), Y(2, 1))
        assert row == {(1, 1, 1): 2, (2, 1): 0, (3,): -1}

        # the two-stage S_6 construction: prefilter on the transposition
        # eigenvalue, then the verbatim factor ([3-cycles] + 8)/12
        n = 6
        lam2 = {g: central_character(2, g) for g in partitions(n)}
        prefilter = ClassVector.identity(n)
        transposition = single_cycle_class_sum(n, 2)
        for value in sorted({v for v in lam2.values() if v != 3}):
            prefilter = class_product(prefilter, transposition - value) / (3 - value)
        stage_two = (single_cycle_class_sum(n, 3) + 8) / 12
        assert build_projector(Y(4, 1, 1)) == class_product(stage_two, prefilter)


def test_criterion_4_trace_tables():
    with criterion(4, "published Murphy and connected trace values, symbolically"):
        assert [simply_connected_trace(Y(3), k) for k in (2, 3)] == [P("q"), P("q^2")]
        assert [simply_connected_trace(Y(2, 1), k) for k in (2, 3)] == [P("q-1"), P("-q")]
        assert [simply_connected_trace(Y(1, 1, 1), k) for k in (2, 3)] == [P("-1"), P("1")]
        assert [simply_connected_trace(Y(3, 1), k) for k in (2, 3, 4)] == [
            P("2*q-1"),
            P("q^2-q"),
            P("-q^2"),
        ]
        assert murphy_traces(Y(3, 1)) == {
            2: P("2*q-1"),
            3: P("q^2+2*q-1"),
            4: P("2*q^2+2*q-1"),
        }
        assert murphy_traces(Y(2, 1)) == {2: P("q-1"), 3: P("q-1")}
        from heckeq.traces import murphy_product_trace

        assert murphy_product_trace(Y(3, 1), (2, 4)) == P("q^3-2*q")
        assert doubly_connected_traces(Y(4))["g1*g3"] == P("q^2")
        assert doubly_connected_traces(Y(3, 1))["g1*g3"] == P("q^2-2*q")


def _oracle_equivalence_sweep(n: int) -> None:
    q0 = F(2)
    for g in partitions(n):
        for k in range(2, n + 1):
            symbolic = simply_connected_trace(g, k).evaluate(q0)
            assert symbolic == irreducible_trace(g, tuple(range(1, k)), q0)
        if n >= 4:
            solved = doubly_connected_traces(g)
            assert solved["g1*g3"].evaluate(q0) == irreducible_trace(g, (1, 3), q0)
            if n >= 5:
                assert solved["g1*g3*g4"].evaluate(q0) == irreducible_trace(g, (1, 3, 4), q0)


def test_criterion_5_oracle_equivalence_through_five():
    with criterion(5, "symbolic traces equal the oracle at q0=2 for n <= 5"):
        for n in range(2, 6):
            _oracle_equivalence_sweep(n)


@pytest.mark.slow
def test_criterion_5_oracle_equivalence_at_six():
    with criterion("5 (slow)", "symbolic traces equal the oracle at q0=2 for n = 6"):
        _oracle_equivalence_sweep(6)


def test_criterion_6_projector_algebra():
    with criterion(6, "oracle projector algebra at q0=2 for n <= 5, exact"):
        q0 = F(2)
        for n in range(2, 6):
            projectors = {g: projector_element(g, q0) for g in partitions(n)}
            total = HeckeElement.zero(n, q0)
            for g, p in projectors.items():
                assert product(p, p) == p
                assert regular_trace(p) == dimension(g) ** 2
                total = total + p
            assert total == HeckeElement.identity(n, q0)
            items = list(projectors.items())
            for i, (_, p) in enumerate(items):
                for _, p2 in items[i + 1 :]:
                    assert product(p, p2) == HeckeElement.zero(n, q0)


def test_criterion_7_reconstruction_roundtrips():
    with criterion(7, "diagram/eigenvalue and irrep/Casimir roundtrips are exact bijections"):
        for n in range(1, 10):
            for g in partitions(n):
                assert reconstruct_diagram(invariant_eigenvalue(g), n) == g
        for n in range(1, 7):
            for g in partitions(n):
                for N in range(len(g.rows) + 1, 7):
                    irrep = SuqIrrep.from_diagram(g, N)
                    assert irrep_from_casimir(casimir_eigenvalue(irrep), N) == irrep


def test_criterion_8_casimir_correspondence():
    with criterion(8, "Hecke/Casimir correspondence holds symbolically, n <= 6, N <= 6"):
        for n in range(1, 7):
            for g in partitions(n):
                for N in range(len(g.rows) + 1, 7):
                    assert hecke_casimir_correspondence(g, N)


def test_criterion_9_separation_depths():
    with criterion(9, "power-sum separation depth boundaries at n=5/6 and n=14/15"):
        # depth 1 suffices exactly up to n = 5, with the first failure at 6
        for n in range(1, 6):
            assert separating_depth(n) == 1
        assert separating_depth(6) == 2
        # depth 2 suffices for every n up to 14 (n = 7 happens to need only
        # 1 again), with the first failure at 15
        for n in range(7, 15):
            assert separating_depth(n) <= 2
        assert separating_depth(14) == 2
        assert separating_depth(15) == 3


def test_criterion_10_invariant_trace_consistency():
    with criterion(10, "invariant trace identity holds symbolically for all n <= 7"):
        for n in range(1, 8):
            for g in partitions(n):
                assert invariant_trace_consistency(g)
