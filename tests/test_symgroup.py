import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial

import pytest

from heckeq import symgroup
from heckeq.diagrams import dimension, partitions
from heckeq.invariant import central_character
from heckeq.symgroup import (
    ClassVector,
    NonIntegerCharacter,
    NotSeparated,
    _class_members,
    _structure_row,
    build_projector,
    character_table,
    character_table_json,
    characters_from_projector,
    class_product,
    class_size,
    conjugacy_classes,
    cycle_type,
    cycle_type_from_string,
    cycle_type_to_string,
    display_cycle_type,
    murnaghan_nakayama_character,
    perm_mul,
    single_cycle_class_sum,
)

from conftest import Y


@cache
def ref_class_elements(n: int) -> dict:
    """Every element of S_n grouped by cycle type (brute force, oracle side)."""
    grouped: dict[tuple, list] = {}
    for perm in permutations(range(1, n + 1)):
        grouped.setdefault(cycle_type(perm), []).append(perm)
    return grouped


def ref_structure_row(n: int, s: tuple, t: tuple) -> dict:
    """[s][t] in the class basis: one element x0 of class s times every
    element of class t, counted by cycle type (brute force, oracle side)."""
    elements = ref_class_elements(n)
    counts: dict[tuple, int] = {}
    for y in elements[t]:
        u = cycle_type(perm_mul(elements[s][0], y))
        counts[u] = counts.get(u, 0) + 1
    return {u: len(elements[s]) * m // len(elements[u]) for u, m in counts.items()}


def group_algebra_expand(v: ClassVector) -> dict:
    """Expand a class vector into the full group algebra (oracle side)."""
    out: dict[tuple, Fraction] = {}
    elements = ref_class_elements(v.n)
    for t, c in v.coeffs.items():
        for perm in elements[t]:
            out[perm] = out.get(perm, Fraction(0)) + c
    return {p: c for p, c in out.items() if c}


def group_algebra_product(a: dict, b: dict) -> dict:
    """Naive product of group-algebra elements (oracle side)."""
    out: dict[tuple, Fraction] = {}
    for x, cx in a.items():
        for y, cy in b.items():
            z = perm_mul(x, y)
            out[z] = out.get(z, Fraction(0)) + cx * cy
    return {p: c for p, c in out.items() if c}


class TestPermutations:
    def test_cycle_type(self):
        assert cycle_type((1, 2, 3)) == (1, 1, 1)
        assert cycle_type((2, 1, 3)) == (2, 1)
        assert cycle_type((2, 3, 1)) == (3,)

    def test_strings(self):
        for t in ((2, 1), (1, 2), iter((1, 2))):
            assert cycle_type_to_string(t) == "2,1"
        assert cycle_type_from_string("1,2") == (2, 1)
        assert display_cycle_type((1, 1, 1)) == "(1)^3"
        assert display_cycle_type((2, 1)) == "(1)(2)"
        assert display_cycle_type((2, 2, 1), suppress_units=True) == "(2)^2"
        assert display_cycle_type((1, 1), suppress_units=True) == "()"


class TestClasses:
    def test_s3_sizes(self):
        assert dict(conjugacy_classes(3)) == {(3,): 2, (2, 1): 3, (1, 1, 1): 1}

    def test_s6_class_count(self):
        classes = conjugacy_classes(6)
        assert len(classes) == 11
        assert sum(size for _, size in classes) == 720

    def test_size_formula_matches_brute_force(self):
        for n in range(1, 7):
            elements = ref_class_elements(n)
            assert [t for t, _ in conjugacy_classes(n)] == sorted(elements, reverse=True)
            for t, size in conjugacy_classes(n):
                assert class_size(t) == size == len(elements[t])

    def test_classes_past_the_old_enumeration_cap(self):
        classes = conjugacy_classes(10)
        assert len(classes) == 42
        assert sum(size for _, size in classes) == factorial(10)

    def test_class_size_rejects_non_positive_parts(self):
        assert class_size((1, 2)) == class_size((2, 1)) == class_size(iter((1, 2))) == 3
        for t in ((2, 0, 1), (0, 3), (3, -1)):
            with pytest.raises(ValueError):
                class_size(t)

    def test_members_match_brute_force(self):
        for n in range(1, 7):
            for t, elements in ref_class_elements(n).items():
                assert sorted(_class_members(t)) == elements
                assert cycle_type(next(_class_members(t))) == t


class TestClassVectorKeys:
    def test_unsorted_keys_are_sorted(self):
        assert ClassVector(3, {(1, 2): 1}) == ClassVector(3, {(2, 1): 1})
        assert ClassVector(3, {(1, 2): 1, (2, 1): 1}) == ClassVector(3, {(2, 1): 2})
        assert ClassVector(3, {(1, 2): 1, (2, 1): -1}) == ClassVector.zero(3)
        assert repr(ClassVector(3, {(1, 2): 1})) == "[(2)]_3"
        assert ClassVector(3, {(1, 2): 1}).coefficient((1, 2)) == 1

    def test_product_of_unsorted_keys(self):
        t = ClassVector(3, {(1, 2): 1})
        assert class_product(t, t) == ClassVector(3, {(1, 1, 1): 3, (3,): 3})

    def test_non_positive_parts_are_refused(self):
        for t in ((0, 3), (3, 0), (4, -1)):
            with pytest.raises(ValueError):
                ClassVector(3, {t: 1})


class TestClassVectorCoefficients:
    def test_integer_vectors_multiply_in_integers(self):
        t = single_cycle_class_sum(5, 2)
        product = class_product(t + 2, single_cycle_class_sum(5, 3) - 1)
        assert product.coeffs and all(type(c) is int for c in product.coeffs.values())

    def test_division_undone_gives_integers_again(self):
        x = single_cycle_class_sum(4, 2) + 2
        third = x / 3
        assert set(third.coeffs.values()) == {Fraction(1, 3), Fraction(2, 3)}
        assert third * 3 == x
        assert all(type(c) is int for c in (third * 3).coeffs.values())

    def test_coefficients_are_read_only(self):
        x = single_cycle_class_sum(3, 2)
        with pytest.raises(TypeError):
            x.coeffs[(3,)] = 1
        with pytest.raises(AttributeError):
            x.coeffs = {}
        with pytest.raises(AttributeError):
            x.n = 4
        assert x == ClassVector(3, {(2, 1): 1})

    @pytest.mark.parametrize("bad", [0.1, "1/3"])
    def test_non_rational_coefficients_are_refused(self, bad):
        with pytest.raises(TypeError):
            ClassVector(3, {(3,): bad})


class TestClassProduct:
    def test_transposition_square_in_s3(self):
        t = single_cycle_class_sum(3, 2)
        assert t * t == class_product(t, t) == ClassVector(
            3, {(1, 1, 1): Fraction(3), (3,): Fraction(3)}
        )

    def test_non_integer_structure_constant_is_refused(self, monkeypatch):
        # every product counted as a 3-cycle: 3 * 3 / |C_(3)| = 9/2
        monkeypatch.setattr(symgroup, "_cycle_type", lambda perm: (3,))
        with pytest.raises(AssertionError, match=r"non-integer structure constant for \(2, 1\) \* \(2, 1\) at \(3,\)"):
            _structure_row.__wrapped__((2, 1), (2, 1))

    def test_structure_rows_match_brute_force(self):
        for n in range(1, 7):
            types = [g.rows for g in partitions(n)]
            for s in types:
                for t in types:
                    assert dict(_structure_row(s, t)) == ref_structure_row(n, s, t), (s, t)

    def test_cached_structure_row_is_read_only(self):
        with pytest.raises(TypeError):
            _structure_row((2, 1), (2, 1))[(3,)] = 0
        t = single_cycle_class_sum(3, 2)
        assert class_product(t, t) == ClassVector(3, {(1, 1, 1): Fraction(3), (3,): Fraction(3)})

    def test_identity_is_neutral(self):
        e = ClassVector.identity(4)
        x = single_cycle_class_sum(4, 3) * Fraction(2, 7) + single_cycle_class_sum(4, 2) + 1
        _structure_row.cache_clear()
        assert class_product(e, x) == x
        assert class_product(x, e) == x
        # [s]·1 = [s] takes no structure row: nothing is listed or cached
        assert _structure_row.cache_info().currsize == 0

    def test_against_group_algebra_oracle(self):
        # expand both factors to permutation level, multiply naively there,
        # and compare with the structure-constant product
        rng = random.Random(7)
        for n in (3, 4, 5):
            types = [g.rows for g in partitions(n)]
            for _ in range(3):
                a = ClassVector(n, {rng.choice(types): Fraction(rng.randint(-3, 3), rng.randint(1, 3))})
                b = ClassVector(n, {rng.choice(types): Fraction(rng.randint(-3, 3) or 1)})
                expected = group_algebra_product(group_algebra_expand(a), group_algebra_expand(b))
                assert group_algebra_expand(class_product(a, b)) == expected

    def test_associativity_random_triples(self):
        rng = random.Random(13)
        types = [g.rows for g in partitions(5)]
        vectors = [
            ClassVector(5, {rng.choice(types): Fraction(rng.randint(1, 4)), rng.choice(types): Fraction(-1)})
            for _ in range(3)
        ]
        a, b, c = vectors
        assert class_product(class_product(a, b), c) == class_product(a, class_product(b, c))


class TestProjectors:
    def test_s3_standard_projector(self):
        p = build_projector(Y(2, 1))
        expected = (ClassVector.identity(3) * 2 - single_cycle_class_sum(3, 3)) * Fraction(1, 3)
        assert p == expected

    def test_degenerate_stage_two_factor(self):
        # rebuild the two-stage form by hand: the prefilter annihilates all
        # irreps whose transposition eigenvalue differs from 3, then one
        # 3-cycle factor ([3-cycles] + 8)/12 picks out the hook diagram
        n = 6
        target = Y(4, 1, 1)
        lam2 = {g: central_character(2, g) for g in partitions(n)}
        prefilter = ClassVector.identity(n)
        transposition = single_cycle_class_sum(n, 2)
        for value in sorted({v for g, v in lam2.items() if v != 3}):
            prefilter = class_product(prefilter, transposition - value) / (3 - value)
        stage_two = (single_cycle_class_sum(n, 3) + 8) / 12
        assert build_projector(target) == class_product(stage_two, prefilter)
        companion = (single_cycle_class_sum(n, 3) - 4) / -12
        assert build_projector(Y(3, 3)) == class_product(companion, prefilter)

    def test_partners_left_after_five_cycles_are_refused(self, monkeypatch):
        # pretend the 3-, 4- and 5-cycle class-sums cannot tell the S_6 pair
        # (4,1,1), (3,3) apart, as may happen past n = 41
        eigenvalues = symgroup.central_character_table

        def blind(p, n):
            return eigenvalues(p, n) if p == 2 else dict.fromkeys(partitions(n), 0)

        monkeypatch.setattr(symgroup, "central_character_table", blind)
        with pytest.raises(NotSeparated):
            build_projector(Y(4, 1, 1))
        # a diagram without partners needs no p-cycle eigenvalue
        assert build_projector(Y(6)) == ClassVector(6, dict.fromkeys(ref_class_elements(6), Fraction(1, 720)))

    def test_resolution_of_identity(self):
        for n in (3, 4, 5):
            total = ClassVector.zero(n)
            for g in partitions(n):
                total = total + build_projector(g)
            assert total == ClassVector.identity(n)

    def test_idempotent_and_orthogonal(self):
        for n in (3, 4, 6):
            projectors = {g: build_projector(g) for g in partitions(n)}
            for g, p in projectors.items():
                assert class_product(p, p) == p
            items = list(projectors.items())
            for i, (g, p) in enumerate(items):
                for h, p2 in items[i + 1 :]:
                    assert class_product(p, p2) == ClassVector.zero(n)

    def test_class_sums_act_by_central_characters(self):
        for n in range(2, 7):
            for g in partitions(n):
                p = build_projector(g)
                for cycle in range(2, min(5, n) + 1):
                    cs = single_cycle_class_sum(n, cycle)
                    assert class_product(cs, p) == p * central_character(cycle, g)

    def test_identity_coefficient_is_dim_squared_over_factorial(self):
        for n in range(2, 7):
            for g in partitions(n):
                p = build_projector(g)
                assert p.coefficient((1,) * n) == Fraction(dimension(g) ** 2, factorial(n))

    def test_projector_past_the_old_enumeration_cap(self):
        p = build_projector(Y(10))
        assert p.coefficient((1,) * 10) == Fraction(1, factorial(10))
        row = characters_from_projector(p, Y(10))
        assert row == {h.rows: murnaghan_nakayama_character(Y(10), h.rows) for h in partitions(10)}


class TestCharacters:
    def test_s3_row(self):
        row = characters_from_projector(build_projector(Y(2, 1)), Y(2, 1))
        assert row == {(1, 1, 1): 2, (2, 1): 0, (3,): -1}

    def test_trivial_irrep_is_all_ones(self):
        for n in (3, 4, 5):
            row = characters_from_projector(build_projector(Y(n)), Y(n))
            assert set(row.values()) == {1}

    def test_projector_route_matches_mn(self):
        for n in range(2, 6):
            assert character_table(n, "projector") == character_table(n, "mn")

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_projector_route_matches_mn_past_the_old_cap(self, n):
        # s_1 and s_2 separate the partitions of n here: stage two stops at p = 3
        assert character_table(n, "projector") == character_table(n, "mn")

    @pytest.mark.slow
    def test_projector_route_needs_four_cycles_at_fifteen(self):
        # n = 15 is the first size where s_1, s_2 fail to separate: [(4)] enters
        lam = {p: {g: central_character(p, g) for g in partitions(15)} for p in (2, 3)}
        assert len({(lam[2][g], lam[3][g]) for g in partitions(15)}) < len(partitions(15))
        assert character_table(15, "projector") == character_table(15, "mn")

    def test_non_integer_character_detected(self):
        corrupted = ClassVector(3, {(1, 1, 1): Fraction(1, 7)})
        with pytest.raises(NonIntegerCharacter):
            characters_from_projector(corrupted, Y(2, 1))

    @pytest.mark.parametrize(
        "built,read",
        [
            ((2, 1), (3,)),  # scales to {3: -2, 2,1: 0, 1,1,1: 4}
            ((3,), (1, 1, 1)),  # scales to the all-ones row, whose chi(1) is right
            ((4, 1, 1), (3, 3)),  # the degenerate pair: s_1 agrees, s_2 does not
        ],
    )
    def test_another_irreps_integer_row_is_refused(self, built, read):
        with pytest.raises(ValueError, match="not the character row"):
            characters_from_projector(build_projector(Y(*built)), Y(*read))


class TestMurnaghanNakayama:
    def test_three_cycle_value(self):
        assert murnaghan_nakayama_character(Y(2, 1), (3,)) == murnaghan_nakayama_character(Y(2, 1), iter((3,))) == -1

    def test_sign_representation(self):
        for n in range(2, 7):
            sign_diagram = Y(*([1] * n))
            for g in partitions(n):
                t = g.rows
                sign = (-1) ** (n - len(t))
                assert murnaghan_nakayama_character(sign_diagram, t) == sign

    def test_identity_column_is_dimension(self):
        for n in range(1, 8):
            for g in partitions(n):
                assert murnaghan_nakayama_character(g, (1,) * n) == dimension(g)

    def test_row_orthogonality(self):
        for n in range(2, 8):
            for g in partitions(n):
                total = sum(
                    class_size(h.rows) * murnaghan_nakayama_character(g, h.rows) ** 2
                    for h in partitions(n)
                )
                assert total == factorial(n)

    def test_column_orthogonality(self):
        for n in range(1, 10):
            table = character_table(n, "mn")
            for s, size in conjugacy_classes(n):
                for t, _ in conjugacy_classes(n):
                    total = sum(row[s] * row[t] for row in table.values())
                    assert total == (factorial(n) // size if s == t else 0)

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError, match=r"^cycle type \(2, 2\) does not partition n=3$"):
            murnaghan_nakayama_character(Y(2, 1), (2, 2))

    @pytest.mark.parametrize("c", [(1, 1, 1, 0), (0, 3), (4, -1), (1.5, 1.5)])
    def test_parts_that_are_not_positive_integers_are_refused(self, c):
        # each sums to 3, so only this check stands between it and a wrong value (0, 0, 0, -1)
        kind, message = (TypeError, "expected an integer cycle length") if 1.5 in c else (
            ValueError, "cycle length must be at least 1")
        with pytest.raises(kind, match=message):
            murnaghan_nakayama_character(Y(2, 1), c)


class TestJsonAndPersistence:
    def test_character_table_json_shape(self):
        doc = character_table_json(3, "mn")
        assert doc["classes"] == ["3", "2,1", "1,1,1"]
        assert doc["rows"]["2,1"] == {"1,1,1": 2, "2,1": 0, "3": -1}
        assert doc["class_sizes"] == {"3": 2, "2,1": 3, "1,1,1": 1}
