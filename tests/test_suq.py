from fractions import Fraction
from math import factorial

import pytest

from heckeq import suq
from heckeq.diagrams import partitions
from heckeq.invariant import InvalidSpectrum
from heckeq.laurent import LaurentPoly, exp_series
from heckeq.suq import (
    GZPattern,
    PatternViolation,
    SuqIrrep,
    casimir_eigenvalue,
    check_ef_commutator,
    chevalley_weight,
    gz_patterns,
    hecke_casimir_correspondence,
    irrep_from_casimir,
    lowering_squared,
)

from conftest import F, P, Y


def weyl_dimension(rows: tuple[int, ...], N: int) -> int:
    """Independent dimension oracle: product over boxes of (N + content) / hook."""
    if not rows:
        return 1
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    numerator = 1
    denominator = 1
    for i, row in enumerate(rows):
        for j in range(row):
            numerator *= N + j - i
            denominator *= (row - j) + (cols[j] - i) - 1
    assert numerator % denominator == 0
    return numerator // denominator


class TestIrrepLabels:
    def test_from_string(self):
        irrep = SuqIrrep.from_string("3:2,1")
        assert irrep.N == 3 and irrep.top == (2, 1, 0)
        assert SuqIrrep.from_string("4:2,1").top == (2, 1, 0, 0)
        assert str(irrep) == "3:2,1"
        assert SuqIrrep.from_string("3:2,1,0") == irrep

    def test_row_lengths(self):
        assert SuqIrrep.from_string("4:3,1").row_lengths == (3, 1, 0)
        assert SuqIrrep.from_string("3:2,1").boxes == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SuqIrrep(3, (1, 2, 0))
        with pytest.raises(ValueError):
            SuqIrrep(3, (2, 1, 1))
        with pytest.raises(ValueError):
            SuqIrrep(1, (0,))
        with pytest.raises(ValueError):
            SuqIrrep.from_rows(3, (2, 1, 1))

    @pytest.mark.parametrize("rows", [(2, 1, -1), (2, 1, 0, -3), (2, 1, 1), (0, 0, 5)])
    def test_rows_past_the_limit_are_refused_whatever_their_sign(self, rows):
        with pytest.raises(ValueError, match=r"exceed the 2-row limit for N=3"):
            SuqIrrep.from_rows(3, rows)
        with pytest.raises(ValueError, match=r"exceed the 2-row limit for N=3"):
            SuqIrrep.from_string("3:" + ",".join(map(str, rows)))
        assert SuqIrrep.from_rows(3, (2, 1, 0, 0)) == SuqIrrep.from_string("3:2,1")

    def test_from_diagram(self):
        assert SuqIrrep.from_diagram(Y(2, 1), 4).top == (2, 1, 0, 0)
        with pytest.raises(ValueError):
            SuqIrrep.from_diagram(Y(1, 1, 1), 3)

    def test_strict_shifted_ordering(self):
        # l_k - k strictly decreases: this is what makes the spectrum sortable
        for n in range(1, 6):
            for g in partitions(n):
                for N in range(len(g.rows) + 1, 7):
                    lengths = SuqIrrep.from_diagram(g, N).row_lengths
                    shifted = [l - k for k, l in enumerate(lengths, start=1)]
                    assert all(a > b for a, b in zip(shifted, shifted[1:]))


class TestPatternEnumeration:
    def test_su2_fundamental(self):
        assert len(gz_patterns(SuqIrrep.from_string("2:1"))) == 2

    def test_su3_adjoint(self):
        assert len(gz_patterns(SuqIrrep.from_string("3:2,1"))) == 8

    def test_trivial(self):
        assert len(gz_patterns(SuqIrrep(3, (0, 0, 0)))) == 1
        assert SuqIrrep(3, (0, 0, 0)).dimension == 1

    def test_counts_match_weyl_oracle(self):
        for n in range(1, 5):
            for g in partitions(n):
                for N in range(len(g.rows) + 1, 6):
                    irrep = SuqIrrep.from_diagram(g, N)
                    count = len(gz_patterns(irrep))
                    assert count == irrep.dimension == weyl_dimension(g.rows, N)
        # far too many patterns to list: a 53-digit dimension
        rows = (60, 55, 50, 40, 30, 20, 10, 5, 3, 2, 1)
        big = SuqIrrep.from_rows(12, rows).dimension
        assert big == weyl_dimension(rows, 12) and len(str(big)) == 53

    def test_pattern_validation(self):
        with pytest.raises(PatternViolation):
            GZPattern(((5,), (1, 0)))
        with pytest.raises(ValueError):
            GZPattern(((1, 0),))
        p = GZPattern(((1,), (1, 0)))
        assert p.entry(1, 1) == 1 and p.entry(2, 2) == 0

    def test_shifted(self):
        p = GZPattern(((1,), (1, 0)))
        assert p.shifted(1, 1, -1) == GZPattern(((0,), (1, 0)))
        assert p.shifted(1, 1, +1) is None

    @pytest.mark.parametrize("text", ["2:2", "3:2,1", "3:3,1", "4:1", "4:2,1", "4:2,1,1", "4:3,2,1"])
    def test_shifted_leaves_the_cone_exactly_when_interlacing_fails(self, text):
        # brute force over every entry of every pattern, checking every pair of neighbouring rows
        for p in gz_patterns(SuqIrrep.from_string(text)):
            for j in range(1, p.N + 1):
                for i in range(1, j + 1):
                    for delta in (-1, +1):
                        rows = [list(r) for r in p.rows]
                        rows[j - 1][i - 1] += delta
                        inside = all(
                            upper[m] >= lower[m] >= upper[m + 1]
                            for lower, upper in zip(rows, rows[1:])
                            for m in range(len(lower))
                        )
                        got = p.shifted(i, j, delta)
                        assert (got is not None) == inside, (p, i, j, delta)
                        assert got is None or got.rows == tuple(map(tuple, rows))


class TestCasimirSpectrum:
    def test_su2_fundamental_is_one(self):
        assert casimir_eigenvalue(SuqIrrep.from_string("2:1")) == LaurentPoly.one()

    def test_su3_fundamental(self):
        assert casimir_eigenvalue(SuqIrrep.from_string("3:1")) == P("1+q^-4")

    def test_powers_are_distinct(self):
        for n in range(1, 6):
            for g in partitions(n):
                for N in range(len(g.rows) + 1, 7):
                    spec = casimir_eigenvalue(SuqIrrep.from_diagram(g, N))
                    assert len(spec.terms) == N - 1
                    assert set(spec.terms.values()) == {1}

    def test_delta_series_gives_shifted_power_sums(self):
        # substituting q^2 = exp(delta), the p-th coefficient is the p-th
        # power sum of the shifted row lengths divided by p!
        for text in ("3:2,1", "4:3,1", "5:2,2,1"):
            irrep = SuqIrrep.from_string(text)
            halved = LaurentPoly({e // 2: c for e, c in casimir_eigenvalue(irrep).terms.items()})
            series = exp_series(halved, 3)
            shifted = [l - k for k, l in enumerate(irrep.row_lengths, start=1)]
            for p in range(4):
                expected = Fraction(sum(v**p for v in shifted), factorial(p))
                assert series[p] == expected


class TestCorrespondence:
    def test_single_box_all_ranks(self):
        for N in range(2, 7):
            assert hecke_casimir_correspondence(Y(1), N)

    def test_standard_three_box(self):
        assert hecke_casimir_correspondence(Y(2, 1), 3)

    def test_exhaustive_sweep(self):
        for n in range(1, 7):
            for g in partitions(n):
                for N in range(len(g.rows) + 1, 7):
                    assert hecke_casimir_correspondence(g, N)

    def test_too_many_rows(self):
        with pytest.raises(ValueError, match=r"rows \(1, 1, 1\) exceed the 2-row limit for N=3"):
            hecke_casimir_correspondence(Y(1, 1, 1), 3)


class TestReconstruction:
    def test_su3_fundamental(self):
        assert irrep_from_casimir(P("1+q^-4"), 3) == SuqIrrep.from_string("3:1")

    def test_roundtrip(self):
        for n in range(1, 7):
            for g in partitions(n):
                for N in range(len(g.rows) + 1, 7):
                    irrep = SuqIrrep.from_diagram(g, N)
                    assert irrep_from_casimir(casimir_eigenvalue(irrep), N) == irrep

    @pytest.mark.parametrize(
        "text,N",
        [
            ("q+q^-4", 3),  # odd power
            ("2+q^-4", 3),  # coefficient 2
            ("1+q^-4", 4),  # wrong term count
        ],
    )
    def test_invalid_spectra(self, text, N):
        with pytest.raises(InvalidSpectrum):
            irrep_from_casimir(P(text), N)

    def test_negative_shifts_still_sort(self):
        # L = (1, -1) sorts to row lengths (2, 1)
        assert irrep_from_casimir(P("q^2+q^-2"), 3) == SuqIrrep(3, (2, 1, 0))

    def test_negative_row_rejected(self):
        # L = (0, -3) -> l = (1, -1), not a valid top row
        with pytest.raises(InvalidSpectrum):
            irrep_from_casimir(P("1+q^-6"), 3)


class TestChevalleyData:
    def test_su2_lowering_amplitude(self):
        top = GZPattern(((1,), (1, 0)))
        assert lowering_squared(top, 1, 1, 2) == 1
        assert lowering_squared(top, 1, 1, F(3, 2)) == 1

    def test_blocked_shift_is_zero(self):
        bottom = GZPattern(((0,), (1, 0)))
        assert lowering_squared(bottom, 1, 1, 2) == 0

    def test_q0_range(self):
        top = GZPattern(((1,), (1, 0)))
        with pytest.raises(ValueError):
            lowering_squared(top, 1, 1, 1)
        with pytest.raises(ValueError):
            lowering_squared(top, 1, 1, F(1, 2))

    def test_weight_formula(self):
        p = GZPattern(((1,), (1, 0)))
        assert chevalley_weight(p, 1) == 2 * 1 - (1 + 0)
        q = GZPattern(((0,), (1, 0)))
        assert chevalley_weight(q, 1) == -1

    def test_su2_commutator_by_hand(self):
        assert check_ef_commutator(SuqIrrep.from_string("2:1"), 1, 2)

    def test_commutator_failure_is_reported(self, monkeypatch):
        monkeypatch.setattr(suq, "chevalley_weight", lambda p, k: chevalley_weight(p, k) + 1)
        assert check_ef_commutator(SuqIrrep.from_string("2:1"), 1, 2) is False

    @pytest.mark.parametrize("text", ["3:1", "3:1,1", "3:2,1", "3:2,2", "2:3", "4:2,1"])
    def test_commutator_across_irreps(self, text):
        irrep = SuqIrrep.from_string(text)
        for k in range(1, irrep.N):
            for q0 in (F(2), F(5, 2)):
                assert check_ef_commutator(irrep, k, q0)
