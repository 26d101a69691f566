import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

import heckeq
import heckeq.verify
from heckeq.diagrams import dimension, generic_degree, partitions
from heckeq.hecke_oracle import (
    DegenerateSpecialization,
    HeckeElement,
    apply_projector,
    fundamental_invariant,
    hecke_projector,
    irreducible_trace,
    murphy_element,
    projector_element,
    regular_trace,
    reduced_word,
    symmetrizing_trace,
    word_element,
)
from heckeq.invariant import invariant_eigenvalue
from heckeq.laurent import q_integer
from heckeq.traces import doubly_connected_traces, simply_connected_trace
from heckeq.verify import oracle_checks

from conftest import F, Y


# -- reference oracle: sparse Fraction dicts over the g basis ---------------


def ref_times_generator(coeffs, q0, i, side="right"):
    """coeffs * g_i (or g_i * coeffs) by the word-basis rewriting rule."""
    out = {}
    for w, c in coeffs.items():
        if side == "right":
            w2 = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            ascent = w[i - 1] < w[i]
        else:
            w2 = tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)
            ascent = w.index(i) < w.index(i + 1)
        if ascent:
            out[w2] = out.get(w2, 0) + c
        else:
            out[w] = out.get(w, 0) + c * (q0 - 1)
            out[w2] = out.get(w2, 0) + c * q0
    return {w: c for w, c in out.items() if c}


def ref_mul(x, y, q0):
    """x * y, applying y's basis words to x one generator at a time."""
    out = {}
    for w, c in y.items():
        partial = x
        for i in reduced_word(w):
            partial = ref_times_generator(partial, q0, i)
        for v, cv in partial.items():
            out[v] = out.get(v, 0) + c * cv
    return {w: c for w, c in out.items() if c}


def ref_trace(x, n, q0):
    """Trace of left multiplication by x: the coefficient of g_w in x * g_w, summed."""
    return sum(ref_mul(x, {w: Fraction(1)}, q0).get(w, 0) for w in permutations(range(1, n + 1)))


def ref_irreducible_trace(g, word, n, q0):
    """The regular-representation route: tr_reg(e_g * word) / dim(g)."""
    p = projector_element(hecke_projector(g, n, q0))
    return regular_trace(p * word_element(n, q0, word)) / dimension(g)


def random_coeffs(n, rng):
    perms = list(permutations(range(1, n + 1)))
    chosen = rng.sample(perms, rng.randint(1, len(perms)))
    return {w: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for w in chosen}


def random_element(n, q0, rng, size=3):
    """A small random element built from random generator words."""
    total = HeckeElement.zero(n, q0)
    for _ in range(size):
        word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 4)))
        total = total + word_element(n, q0, word) * Fraction(rng.randint(-3, 3))
    return total


class TestGeneratorRelations:
    def test_quadratic(self):
        for q0 in (2, F(3, 2), -3):
            g1 = word_element(3, q0, (1,))
            identity = HeckeElement.identity(3, q0)
            assert g1 * g1 == g1 * (q0 - 1) + identity * Fraction(q0)

    def test_braid(self):
        assert word_element(3, 2, (1, 2, 1)) == word_element(3, 2, (2, 1, 2))
        assert word_element(4, F(5, 3), (2, 3, 2)) == word_element(4, F(5, 3), (3, 2, 3))

    def test_commuting_generators(self):
        assert word_element(4, 2, (1, 3)) == word_element(4, 2, (3, 1))

    def test_left_right_mirror(self):
        # associativity across sides: g_i (x g_j) == (g_i x) g_j
        rng = random.Random(3)
        for _ in range(5):
            x = random_element(4, 2, rng)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    left_first = x.times_generator(i, "left").times_generator(j, "right")
                    right_first = x.times_generator(j, "right").times_generator(i, "left")
                    assert left_first == right_first

    def test_empty_word_is_identity(self):
        assert word_element(3, 2, ()) == HeckeElement.identity(3, 2)

    def test_reduced_words(self):
        assert reduced_word((1, 2, 3)) == ()
        assert reduced_word((2, 1, 3)) == (1,)
        for perm in [(3, 2, 1), (2, 3, 1), (4, 3, 2, 1), (2, 4, 1, 3)]:
            word = reduced_word(perm)
            inversions = sum(
                1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
            )
            assert len(word) == inversions
            rebuilt = word_element(len(perm), 2, word)
            assert rebuilt.coeffs == {perm: Fraction(1)}

    def test_rejects_zero_q0(self):
        with pytest.raises(ValueError):
            HeckeElement.identity(3, 0)

    def test_constructor_validates_permutations(self):
        assert HeckeElement(3, 2, {(2, 1, 3): Fraction(1)}).support_size == 1
        assert HeckeElement(3, 2, {(2, 1, 3): Fraction(0)}).support_size == 0
        with pytest.raises(ValueError):
            HeckeElement(3, 2, {(1, 1, 3): Fraction(1)})
        with pytest.raises(ValueError):
            HeckeElement(3, 2, {(1, 2): Fraction(1)})
        with pytest.raises(ValueError):
            HeckeElement(8, 2)  # beyond the oracle's n cap

    def test_mixed_algebras_rejected(self):
        a = HeckeElement.identity(3, 2)
        b = HeckeElement.identity(3, 3)
        c = HeckeElement.identity(4, 2)
        for other in (b, c):
            with pytest.raises(ValueError):
                a + other
            with pytest.raises(ValueError):
                a * other


class TestAgainstReference:
    @pytest.mark.parametrize("q0", [F(2), F(3, 2), F(2, 3), F(-3), F(-7, 5)])
    def test_kernel_matches_reference(self, q0):
        rng = random.Random(str(q0))
        for n in (2, 3, 4):
            for _ in range(3):
                xc, yc = random_coeffs(n, rng), random_coeffs(n, rng)
                x, y = HeckeElement(n, q0, xc), HeckeElement(n, q0, yc)
                assert x.coeffs == {w: c for w, c in xc.items() if c}
                for i in range(1, n):
                    for side in ("right", "left"):
                        assert x.times_generator(i, side).coeffs == ref_times_generator(xc, q0, i, side)
                assert (x * y).coeffs == ref_mul(xc, yc, q0)
                assert regular_trace(x) == ref_trace(xc, n, q0)
                identity = tuple(range(1, n + 1))
                assert symmetrizing_trace(x, y) == ref_mul(xc, yc, q0).get(identity, 0)
                assert symmetrizing_trace(x, y) == symmetrizing_trace(y, x)


class TestCachesAndTables:
    def test_cached_elements_cannot_be_mutated(self):
        p = hecke_projector(Y(2, 1), 3, 2)
        projector_element(p).coeffs.clear()
        assert irreducible_trace(Y(2, 1), (1,), 3, 2) == 1

    def test_cached_projector_cannot_be_mutated(self):
        p = hecke_projector(Y(2, 1), 3, 2)
        assert hecke_projector(Y(2, 1), 3, F(2)) is p
        coeffs = p.coeffs
        with pytest.raises(AttributeError):
            p.coeffs = ()
        with pytest.raises(TypeError):
            p.coeffs[0] = 0
        assert p.coeffs is coeffs and p.coeffs == (F(40, 49), F(11, 49), F(-2, 49))
        assert irreducible_trace(Y(2, 1), (1,), 3, 2) == 1

    def test_import_builds_no_tables(self):
        # the per-n tables are built on first use, not when the CLI loads
        code = (
            "import heckeq.cli\n"
            "from heckeq.hecke_oracle import _kernel\n"
            "print(_kernel.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(heckeq.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "0"


class TestFundamentalInvariant:
    def test_h3_explicit_form(self):
        q0 = F(7, 2)
        expected = (
            word_element(3, q0, (1,))
            + word_element(3, q0, (2,))
            + word_element(3, q0, (1, 2, 1)) * F(1, q0)
        )
        assert fundamental_invariant(3, q0) == expected

    def test_centrality(self):
        for n in (2, 3, 4, 5):
            invariant = fundamental_invariant(n, 2)
            for i in range(1, n):
                gi = word_element(n, 2, (i,))
                assert gi * invariant == invariant * gi

    def test_quadratic_cayley_annihilates(self):
        q0 = F(2)
        c2 = fundamental_invariant(2, q0)
        identity = HeckeElement.identity(2, q0)
        assert c2 * c2 - c2 * (q0 - 1) - identity * q0 == HeckeElement.zero(2, q0)

    def test_cubic_cayley_annihilates(self):
        # the n = 3 Cayley polynomial, with exact rational coefficients at q0
        q0 = F(2)
        c3 = fundamental_invariant(3, q0)
        identity = HeckeElement.identity(3, q0)
        a2 = (q0 - 1) * (q0 + 4 + 1 / q0)
        a1 = q0**3 - q0**2 - 9 * q0 - 1 + 1 / q0
        a0 = (q0 - 1) * (2 * q0**2 + 5 * q0 + 2)
        combo = c3 * c3 * c3 - c3 * c3 * a2 + c3 * a1 + identity * a0
        assert combo == HeckeElement.zero(3, q0)

    def test_cubic_roots_match_eigenvalues(self):
        # the same polynomial must vanish on each published eigenvalue
        q0 = F(2)
        for rows in ((3,), (2, 1), (1, 1, 1)):
            lam = invariant_eigenvalue(Y(*rows)).evaluate(q0)
            value = (
                lam**3
                - (q0 - 1) * (q0 + 4 + 1 / q0) * lam**2
                + (q0**3 - q0**2 - 9 * q0 - 1 + 1 / q0) * lam
                + (q0 - 1) * (2 * q0**2 + 5 * q0 + 2)
            )
            assert value == 0

    def test_d3_elimination_identity(self):
        q0 = F(3)
        c3 = fundamental_invariant(3, q0)
        identity = HeckeElement.identity(3, q0)
        d3 = (
            word_element(3, q0, (1, 2))
            + word_element(3, q0, (2, 1))
            + word_element(3, q0, (1, 2, 1)) * ((q0 - 1) / q0)
        )
        lhs = c3 * c3
        rhs = identity * (3 * q0) + c3 * (2 * (q0 - 1)) + d3 * (q0 + 1 + 1 / q0)
        assert lhs == rhs


class TestMurphyElements:
    def test_l2_is_first_generator(self):
        assert murphy_element(4, 2, 2) == word_element(4, 2, (1,))

    def test_l2_l4_expansion(self):
        q0 = F(2)
        lhs = murphy_element(4, q0, 2) * murphy_element(4, q0, 4)
        g1 = word_element(4, q0, (1,))
        inner = (
            word_element(4, q0, (3,))
            + word_element(4, q0, (2, 3, 2)) * F(1, q0)
            + word_element(4, q0, (1, 2, 3, 2, 1)) * F(1, q0**2)
        )
        assert lhs == g1 * inner

    def test_murphy_elements_commute(self):
        elements = {i: murphy_element(4, 2, i) for i in (2, 3, 4)}
        for i in elements:
            for j in elements:
                assert elements[i] * elements[j] == elements[j] * elements[i]

    def test_sum_is_invariant(self):
        total = HeckeElement.zero(5, 2)
        for i in range(2, 6):
            total = total + murphy_element(5, 2, i)
        assert total == fundamental_invariant(5, 2)


class TestRegularTrace:
    def test_identity_trace_is_group_order(self):
        for n in (1, 2, 3, 4):
            assert regular_trace(HeckeElement.identity(n, 2)) == factorial(n)

    def test_trace_is_symmetric(self):
        rng = random.Random(11)
        for _ in range(4):
            a = random_element(4, 2, rng)
            b = random_element(4, 2, rng)
            assert regular_trace(a * b) == regular_trace(b * a)

    def test_generator_trace_matches_irrep_sum(self):
        # dim-weighted sum of the three irreducible traces of g_1 at q0 = 2:
        # 1*q0 + 2*(q0-1) + 1*(-1) = 3
        assert regular_trace(word_element(3, 2, (1,))) == 3

    def test_linearity(self):
        rng = random.Random(5)
        a = random_element(4, 2, rng)
        b = random_element(4, 2, rng)
        assert regular_trace(a + b) == regular_trace(a) + regular_trace(b)


class TestSymmetrizingTrace:
    def test_word_pairs(self):
        # tau(g_u g_v) = q0^len(u) when v = u^-1, else 0
        q0 = F(5, 3)
        u = word_element(4, q0, (1, 2, 3))
        assert symmetrizing_trace(u, word_element(4, q0, (3, 2, 1))) == q0**3
        assert symmetrizing_trace(u, word_element(4, q0, (1, 2, 3))) == 0

    def test_mixed_algebras_rejected(self):
        with pytest.raises(ValueError):
            symmetrizing_trace(HeckeElement.identity(3, 2), HeckeElement.identity(3, 3))


class TestTauRouteAgainstRegularTrace:
    @pytest.mark.parametrize("q0", [F(2), F(5, 3), F(-3, 2), F(2, 3)])
    def test_every_diagram_up_to_five(self, q0):
        for n in (2, 3, 4, 5):
            words = [(), (1,), (1, 1), tuple(range(1, n))]
            if n >= 3:
                words.append((2, 1, 2, 1))
            if n >= 4:
                words.append((1, 3))
            for g in partitions(n):
                for word in words:
                    assert irreducible_trace(g, word, n, q0) == ref_irreducible_trace(g, word, n, q0)

    def test_every_symbolic_trace_at_seven(self):
        q0 = F(2)
        words = {"g1*g3": (1, 3), "g1*g3*g4": (1, 3, 4)}
        for g in partitions(7):
            for k in range(2, 8):
                word = tuple(range(1, k))
                assert simply_connected_trace(g, k).evaluate(q0) == irreducible_trace(g, word, 7, q0)
            solved = doubly_connected_traces(g)
            for label, word in words.items():
                assert solved[label].evaluate(q0) == irreducible_trace(g, word, 7, q0)


class TestGenericDegreeAgainstOracle:
    @pytest.mark.parametrize("q0", [F(2), F(-3, 2)])
    def test_trace_of_central_idempotent(self, q0):
        for n in range(2, 7):
            one = HeckeElement.identity(n, q0)
            factorial_q = 1
            for k in range(2, n + 1):
                factorial_q *= q_integer(k).evaluate(q0)
            for g in partitions(n):
                tau = symmetrizing_trace(projector_element(hecke_projector(g, n, q0)), one)
                hooks = 1
                for i, length in enumerate(g.rows):
                    for j in range(length):
                        hooks *= q_integer(length - j + sum(1 for r in g.rows[i + 1 :] if r > j)).evaluate(q0)
                n_g = sum(i * r for i, r in enumerate(g.rows))
                assert tau == dimension(g) * q0**n_g / hooks
                assert tau == dimension(g) * generic_degree(g).evaluate(q0) / factorial_q


class TestVerifyMutations:
    def test_ceiling_is_checked_before_partitions_are_listed(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"partitions({n}) listed before the ceiling check")

        monkeypatch.setattr(heckeq.verify, "partitions", refuse)
        with pytest.raises(ValueError, match=r"capped at n <= 7"):
            oracle_checks(8, F(2))

    def test_non_central_perturbation_fails_idempotence(self, monkeypatch):
        real = heckeq.verify.projector_element
        monkeypatch.setattr(
            heckeq.verify, "projector_element", lambda p: real(p) + word_element(p.n, p.q0, (1,))
        )
        report = oracle_checks(4, F(2))
        assert report.checks["projector_idempotent"] is False
        # g_1 commutes with itself, so the first failing generator is g_2
        assert (report.witness["check"], report.witness["diagram"], report.witness["word"]) == (
            "projector_idempotent", "4", "2"
        )

    def test_zero_projector_fails_idempotence(self, monkeypatch):
        monkeypatch.setattr(heckeq.verify, "projector_element", lambda p: HeckeElement.zero(p.n, p.q0))
        report = oracle_checks(3, F(2))
        assert report.checks["projector_idempotent"] is False
        assert report.witness == {
            "check": "projector_idempotent", "diagram": "3", "word": "", "basis_word": "",
            "symbolic": "nonzero", "oracle": "0",
        }

    def test_projector_off_its_eigenspace_fails_orthogonality(self, monkeypatch):
        # a sum of two central idempotents is central and idempotent, but
        # not an eigenvector of the invariant
        real = heckeq.verify.projector_element
        parts = partitions(4)

        def shifted(p):
            other = parts[(parts.index(p.diagram) + 1) % len(parts)]
            return real(p) + real(hecke_projector(other, p.n, p.q0))

        monkeypatch.setattr(heckeq.verify, "projector_element", shifted)
        report = oracle_checks(4, F(5, 3))
        assert report.checks["projector_pairwise_orthogonal"] is False
        assert report.checks["fundamental_invariant_central"] is True


class TestProjectors:
    def test_powers_match_horner(self):
        for q0 in (F(2), F(5, 3), F(-3, 2)):
            for n in (2, 3, 4, 5):
                for g in partitions(n):
                    p = hecke_projector(g, n, q0)
                    assert projector_element(p) == apply_projector(p, HeckeElement.identity(n, q0))

    def test_two_point_lagrange(self):
        p = hecke_projector(Y(2), 2, 2)
        assert p.coeffs == (F(1, 3), F(1, 3))
        p11 = hecke_projector(Y(1, 1), 2, 2)
        assert p11.coeffs == (F(2, 3), F(-1, 3))

    def test_projector_algebra_small(self):
        for n in (2, 3, 4):
            projectors = {g: projector_element(hecke_projector(g, n, 2)) for g in partitions(n)}
            total = HeckeElement.zero(n, 2)
            for g, p in projectors.items():
                assert p * p == p
                assert regular_trace(p) == dimension(g) ** 2
                total = total + p
            assert total == HeckeElement.identity(n, 2)
            items = list(projectors.items())
            for i, (g, p) in enumerate(items):
                for h, p2 in items[i + 1 :]:
                    assert p * p2 == HeckeElement.zero(n, 2)

    def test_eigenvector_property(self):
        for n in (2, 3, 4):
            invariant = fundamental_invariant(n, 2)
            for g in partitions(n):
                p = projector_element(hecke_projector(g, n, 2))
                lam = invariant_eigenvalue(g).evaluate(2)
                assert invariant * p == p * lam

    def test_degenerate_specializations_refused(self):
        for q0 in (1, -1):
            with pytest.raises(DegenerateSpecialization):
                hecke_projector(Y(2), 2, q0)

    def test_apply_projector_via_horner(self):
        p = hecke_projector(Y(2, 1), 3, 2)
        x = word_element(3, 2, (1, 2))
        assert apply_projector(p, x) == projector_element(p) * x


class TestIrreducibleTraces:
    @pytest.mark.parametrize(
        "rows,word,expected_fn",
        [
            ((3,), (1, 2), lambda q0: q0**2),
            ((2, 1), (1, 2), lambda q0: -q0),
            ((3,), (1,), lambda q0: q0),
            ((2, 1), (1,), lambda q0: q0 - 1),
            ((1, 1, 1), (1,), lambda q0: Fraction(-1)),
            ((1, 1, 1), (1, 2), lambda q0: Fraction(1)),
        ],
    )
    def test_h3_published_traces(self, rows, word, expected_fn):
        for q0 in (F(2), F(3)):
            assert irreducible_trace(Y(*rows), word, 3, q0) == expected_fn(q0)

    def test_h4_nonconsecutive_word(self):
        for q0 in (F(2), F(3)):
            assert irreducible_trace(Y(3, 1), (1, 3), 4, q0) == q0**2 - 2 * q0
            assert irreducible_trace(Y(4), (1, 3), 4, q0) == q0**2

    def test_identity_word_gives_dimension(self):
        for g in partitions(4):
            assert irreducible_trace(g, (), 4, 2) == dimension(g)


@pytest.mark.slow
class TestDegeneratePairAtSix:
    def test_hook_projector_annihilates_two_row_image(self):
        q0 = F(2)
        p_hook = hecke_projector(Y(4, 1, 1), 6, q0)
        p_rows = hecke_projector(Y(3, 3), 6, q0)
        image = apply_projector(p_rows, word_element(6, q0, (1, 2, 3)))
        assert image.coeffs  # a nonzero vector in the [3,3] component
        assert apply_projector(p_hook, image) == HeckeElement.zero(6, q0)

    def test_projector_algebra_at_six(self):
        q0 = F(2)
        projectors = {g: projector_element(hecke_projector(g, 6, q0)) for g in partitions(6)}
        total = HeckeElement.zero(6, q0)
        for g, p in projectors.items():
            assert apply_projector(hecke_projector(g, 6, q0), p) == p
            assert regular_trace(p) == dimension(g) ** 2
            total = total + p
        assert total == HeckeElement.identity(6, q0)
        items = list(projectors.items())
        for i, (g, p) in enumerate(items):
            for h, _ in items[i + 1 :]:
                assert apply_projector(hecke_projector(h, 6, q0), p) == HeckeElement.zero(6, q0)
