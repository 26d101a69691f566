from fractions import Fraction

import pytest

from heckeq.diagrams import dimension, partitions
from heckeq.invariant import (
    InvalidSpectrum,
    NonIntegerPowerSum,
    UnsupportedCycle,
    central_character,
    central_character_table,
    content_power_sum,
    invariant_eigenvalue,
    lagrange_numerator,
    power_sums_from_eigenvalue,
    reconstruct_diagram,
    rescaled_invariant_eigenvalue,
    separating_depth,
)
from heckeq.laurent import LaurentPoly, exp_series, q_content
from heckeq.symgroup import class_size, murnaghan_nakayama_character

from conftest import F, P, Y


def q_content_sum(g) -> LaurentPoly:
    """The eigenvalue by its definition, one q-content per box."""
    total = LaurentPoly.zero()
    for c in g.contents():
        total = total + q_content(c)
    return total


class TestEigenvalue:
    @pytest.mark.parametrize(
        "rows,expected",
        [
            ((2,), "q"),
            ((1, 1), "-1"),
            ((3,), "q^2+2*q"),
            ((2, 1), "q-1"),
            ((1, 1, 1), "-2-q^-1"),
            ((4, 1, 1), "q^3+2*q^2+3*q-2-q^-1"),
            ((3, 3), "q^2+3*q-1"),
        ],
    )
    def test_published_values(self, rows, expected):
        assert invariant_eigenvalue(Y(*rows)) == P(expected)

    def test_diagonal_count_form(self):
        # the closed form must match the box-by-box sum and its regrouping by diagonals
        for n in range(1, 15):
            for g in partitions(n):
                regrouped = LaurentPoly.zero()
                for k, b in g.diagonal_counts().items():
                    regrouped = regrouped + q_content(k) * b
                assert invariant_eigenvalue(g) == q_content_sum(g) == regrouped

    def test_collapses_to_content_sum_at_one(self):
        for n in range(1, 9):
            for g in partitions(n):
                eig = invariant_eigenvalue(g)
                value = eig.evaluate(1) if not eig.is_zero else Fraction(0)
                assert value == content_power_sum(g, 1)

    def test_pairwise_distinct(self):
        for n in range(1, 9):
            values = [invariant_eigenvalue(g) for g in partitions(n)]
            assert len(set(values)) == len(values)

    def test_rescaled_examples(self):
        assert rescaled_invariant_eigenvalue(Y(2)) == P("q-1")
        assert rescaled_invariant_eigenvalue(Y(1, 1)) == P("q^-1-1")

    def test_rescaled_is_exact_rescaling(self, q):
        for n in range(1, 7):
            for g in partitions(n):
                assert rescaled_invariant_eigenvalue(g) * q == invariant_eigenvalue(g) * (q - 1)


class TestReconstruction:
    def test_published_pair(self):
        assert reconstruct_diagram(P("q^2+3*q-1"), 6) == Y(3, 3)
        assert reconstruct_diagram(P("q^3+2*q^2+3*q-2-q^-1"), 6) == Y(4, 1, 1)

    def test_trivial_cases(self):
        assert reconstruct_diagram(P("q"), 2) == Y(2)
        assert reconstruct_diagram(LaurentPoly.zero(), 1) == Y(1)

    def test_roundtrip_exhaustive(self):
        for n in range(1, 15):
            for g in partitions(n):
                assert reconstruct_diagram(invariant_eigenvalue(g), n) == g

    @pytest.mark.parametrize(
        "text,n",
        [
            ("2*q", 2),  # doubled top diagonal
            ("q^2+3*q-1", 5),  # wrong box count
            ("q^3+q", 4),  # gap in the positive exponents
            ("1/2*q", 2),  # fractional coefficient
            ("q+1", 2),  # positive constant term
        ],
    )
    def test_invalid_spectra(self, text, n):
        with pytest.raises(InvalidSpectrum):
            reconstruct_diagram(P(text), n)


class TestPowerSums:
    def test_degenerate_pair_values(self):
        assert content_power_sum(Y(4, 1, 1), 1) == 3
        assert content_power_sum(Y(3, 3), 1) == 3
        assert content_power_sum(Y(3, 3), 2) == 7
        assert content_power_sum(Y(4, 1, 1), 2) == 19

    def test_single_box(self):
        for k in range(1, 6):
            assert content_power_sum(Y(1), k) == 0

    def test_series_coefficients(self):
        assert exp_series(rescaled_invariant_eigenvalue(Y(3, 3)), 2) == (0, 3, F(7, 2))
        assert exp_series(rescaled_invariant_eigenvalue(Y(4, 1, 1)), 2) == (0, 3, F(19, 2))

    def test_recovery_from_eigenvalue(self):
        assert power_sums_from_eigenvalue(rescaled_invariant_eigenvalue(Y(3, 3)), 2) == [3, 7]
        assert power_sums_from_eigenvalue(rescaled_invariant_eigenvalue(Y(4, 1, 1)), 2) == [3, 19]

    def test_recovery_exhaustive(self):
        for n in range(2, 8):
            for g in partitions(n):
                sigmas = power_sums_from_eigenvalue(rescaled_invariant_eigenvalue(g), n - 1)
                assert sigmas == [content_power_sum(g, k) for k in range(1, n)]

    def test_rejects_unrescaled_input(self):
        with pytest.raises(NonIntegerPowerSum):
            power_sums_from_eigenvalue(invariant_eigenvalue(Y(3)), 2)


class TestCentralCharacters:
    def test_transposition_on_s3(self):
        assert central_character(2, 3, Y(3)) == 3
        assert central_character(2, 3, Y(2, 1)) == 0
        assert central_character(2, 3, Y(1, 1, 1)) == -3

    def test_three_cycle_on_degenerate_pair(self):
        assert central_character(3, 6, Y(4, 1, 1)) == 4
        assert central_character(3, 6, Y(3, 3)) == -8

    def test_against_character_oracle(self):
        # independent oracle: the central character is |class| * chi / dim,
        # with chi from the Murnaghan-Nakayama recursion
        for n in range(2, 7):
            for p in range(2, min(5, n) + 1):
                t = (p,) + (1,) * (n - p)
                for g in partitions(n):
                    expected = Fraction(
                        class_size(t) * murnaghan_nakayama_character(g, t), dimension(g)
                    )
                    assert central_character(p, n, g) == expected

    def test_empty_class_gives_zero(self):
        for n in range(1, 5):
            for p in range(n + 1, 6):
                for g in partitions(n):
                    assert central_character(p, n, g) == 0

    def test_unsupported_cycle(self):
        with pytest.raises(UnsupportedCycle):
            central_character(6, 7, Y(7))

    def test_wrong_box_count(self):
        with pytest.raises(ValueError):
            central_character(2, 4, Y(2, 1))

    def test_table(self):
        for p in (2, 3, 4, 5):
            table = central_character_table(p, 6)
            assert list(table) == partitions(6)
            for g, value in table.items():
                assert type(value) is int and value == central_character(p, 6, g)
        assert central_character_table(2, 4)[Y(4)] == 6
        with pytest.raises(TypeError):
            central_character_table(2, 4)[Y(4)] = 0
        with pytest.raises(UnsupportedCycle):
            central_character_table(6, 7)


class TestLagrangeNumerator:
    @staticmethod
    def evaluate(weights, denominator, x):
        return sum(w * x**k for k, w in enumerate(weights)) / Fraction(denominator)

    @pytest.mark.parametrize(
        "values",
        [[-3, 0, 1, 6], [F(-5, 2), F(1, 3), 2, F(7, 4)], [4]],
        ids=["int", "fraction", "single"],
    )
    def test_one_at_the_target_and_zero_elsewhere(self, values):
        for target in values:
            weights, denominator = lagrange_numerator(values, target)
            assert len(weights) == len(values)
            assert weights[-1] == 1
            for v in values:
                assert self.evaluate(weights, denominator, v) == (1 if v == target else 0)

    def test_integer_values_give_integer_weights(self):
        weights, denominator = lagrange_numerator([-3, 0, 1, 6], 1)
        assert all(type(w) is int for w in weights + [denominator])
        # (x + 3) x (x - 6) over (1 + 3)(1 - 0)(1 - 6)
        assert (weights, denominator) == ([0, -18, -3, 1], -20)

    def test_duplicate_values_count_once(self):
        assert lagrange_numerator([2, 5, 5, 2, -1, -1], 2) == lagrange_numerator([5, -1], 2)


class TestSeriesCorrespondence:
    def test_class_sum_combination_matches_series(self):
        # order-by-order, the rescaled eigenvalue's series must rebuild the
        # central characters: c1 = lam2, 2! c2 = lam3 + n(n-1)/2,
        # 3! c3 = lam4 + (2n-3) lam2
        for n in range(1, 7):
            for g in partitions(n):
                series = exp_series(rescaled_invariant_eigenvalue(g), 3)
                assert series[0] == 0
                assert series[1] == central_character(2, n, g)
                assert series[2] * 2 == central_character(3, n, g) + Fraction(n * (n - 1), 2)
                assert series[3] * 6 == central_character(4, n, g) + (2 * n - 3) * central_character(2, n, g)


class TestSeparatingDepth:
    def test_boundaries(self):
        assert separating_depth(1) == 1
        assert separating_depth(5) == 1
        assert separating_depth(6) == 2
        assert separating_depth(14) == 2
        assert separating_depth(15) == 3

    def test_range_guard(self):
        with pytest.raises(ValueError):
            separating_depth(0)
        with pytest.raises(ValueError):
            separating_depth(42)
