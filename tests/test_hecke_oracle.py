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
    MAX_Q0_BITS,
    _act,
    _conjugate,
    _dual_basis_sum,
    _invariant,
    _kernel,
    _projectors,
    _spectrum,
    _times_invariant,
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

from conftest import F, Y, first_descent_tree, product


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


def ref_kernel(n):
    """`_kernel`'s tables built directly, each left table by swapping the values i and i + 1.

    The reference for `_kernel`, which reads its left tables off the right
    ones through `inverse` instead.
    """
    perms = tuple(permutations(range(1, n + 1)))
    rank = {w: r for r, w in enumerate(perms)}
    right, left = [], []
    for i in range(1, n):
        rows = []
        for w in perms:
            pi, pj = w.index(i), w.index(i + 1)
            v = list(w)
            v[pi], v[pj] = i + 1, i
            swapped = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            rows.append((rank[swapped], w[i - 1] < w[i], rank[tuple(v)], pi < pj))
        rswap, rup, lswap, lup = zip(*rows)
        right.append((rswap, rup))
        left.append((lswap, lup))
    # a node's depth in the first-descent tree is its length
    lengths = [0] * len(perms)
    for r, _, depth in first_descent_tree(n)[1]:
        lengths[r] = depth
    inverse = [rank[tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1]))] for w in perms]
    return {
        "perms": perms,
        "rank": rank,
        "lengths": tuple(lengths),
        "right": tuple(right),
        "left": tuple(left),
        "inverse": tuple(inverse),
    }


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


def ref_regular_trace(x):
    """Trace of left multiplication by x by the n!-column walk, O(n!^2).

    The diagonal entry at basis word w is the coefficient of w in
    x * g_w.  The walk over the first-descent spanning tree reaches
    every x * T'_w with one generator action; the diagonal change of
    basis from g to T' leaves the trace alone.
    """
    right = _kernel(x.n).right
    path = [x._vec]
    total = x._vec[0]
    for r, i, depth in first_descent_tree(x.n)[1]:
        del path[depth:]
        path.append(_act(path[-1], right[i - 1], x.q0))
        total += path[-1][r]
    return Fraction(total, x._den)


def ref_irreducible_trace(g, word, q0):
    """The regular-representation route: tr_reg(e_g * word) / dim(g)."""
    p = projector_element(g, q0)
    return ref_regular_trace(product(p, word_element(g.n, q0, word))) / dimension(g)


def horner_projector(coeffs, x):
    """The polynomial in the invariant with these coefficients (ascending) applied to x by Horner's scheme.

    Repeated multiplication by the invariant, no powers of it stored:
    the reference for `projector_element`'s sum over powers.
    """
    invariant = fundamental_invariant(x.n, x.q0)
    result = x * coeffs[-1]
    for a in reversed(coeffs[:-1]):
        result = product(result, invariant) + x * a
    return result


def ref_murphy_element(n, q0, i):
    """L_i as the sum of its sandwich words, sum_j q0^(j-i+1) g_j ... g_{i-1} ... g_j."""
    total = HeckeElement.zero(n, q0)
    for j in range(1, i):
        word = tuple(range(j, i)) + tuple(range(i - 2, j - 1, -1))
        total = total + word_element(n, q0, word) * F(q0) ** (j - i + 1)
    return total


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
            assert product(g1, g1) == g1 * (q0 - 1) + identity * Fraction(q0)

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

    def test_q0_size_is_capped(self):
        largest = 2**MAX_Q0_BITS - 1
        for q0 in (F(largest), F(-largest, largest - 2), F(1, largest)):
            assert HeckeElement.identity(3, q0).q0 == q0
        for q0 in (F(largest + 1), F(-1, largest + 1), F(largest + 2, largest)):
            with pytest.raises(ValueError, match=f"capped at {MAX_Q0_BITS} bits"):
                HeckeElement.identity(3, q0)
            with pytest.raises(ValueError, match=f"capped at {MAX_Q0_BITS} bits"):
                hecke_projector(Y(2, 1), q0)

    def test_constructor_validates_permutations(self):
        assert HeckeElement(3, 2, {(2, 1, 3): Fraction(1)}).support_size == 1
        assert HeckeElement(3, 2, {(2, 1, 3): Fraction(0)}).support_size == 0
        with pytest.raises(ValueError):
            HeckeElement(3, 2, {(1, 1, 3): Fraction(1)})
        with pytest.raises(ValueError):
            HeckeElement(3, 2, {(1, 2): Fraction(1)})
        with pytest.raises(ValueError):
            HeckeElement(8, 2)  # beyond the oracle's n cap

    def test_coefficient_validates_permutations(self):
        x = word_element(3, 2, (1,))
        assert x.coefficient((2, 1, 3)) == 1 and x.coefficient([1, 2, 3]) == 0
        for perm in ((1, 1, 2), (2, 1)):
            with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3$"):
                x.coefficient(perm)

    def test_elements_multiply_only_by_scalars(self):
        x = word_element(3, F(5, 3), (1, 2))
        with pytest.raises(TypeError):
            x * x
        assert (x * 3).coeffs == (3 * x).coeffs == {(2, 3, 1): F(3)}
        assert (x * F(1, 2)).coefficient((2, 3, 1)) == F(1, 2)
        with pytest.raises(TypeError):
            x * True

    def test_equality_and_repr(self):
        x = word_element(3, F(5, 3), (1, 2))
        assert x == HeckeElement(3, F(5, 3), {(2, 3, 1): 1})
        assert x != (2, 3, 1) and x.__eq__((2, 3, 1)) is NotImplemented
        assert repr(x) == "HeckeElement(n=3, q0=5/3, 1 basis terms)"
        assert repr(HeckeElement.zero(2, 2)) == "HeckeElement(n=2, q0=2, 0 basis terms)"

    def test_zero_and_identity_are_built_by_the_constructor(self):
        assert HeckeElement.zero(3, F(5, 3)) == HeckeElement(3, F(5, 3), {})
        assert HeckeElement.identity(3, F(5, 3)) == HeckeElement(3, F(5, 3), {(1, 2, 3): 1})
        assert HeckeElement.identity(1, 2).coeffs == {(1,): 1}
        for make in (HeckeElement.zero, HeckeElement.identity):
            with pytest.raises(ValueError, match=r"capped at n <= 7"):
                make(10**12, 2)
            with pytest.raises(TypeError, match=r"expected an integer n"):
                make(3.0, 2)

    def test_mixed_algebras_rejected(self):
        a = HeckeElement.identity(3, 2)
        b = HeckeElement.identity(3, 3)
        c = HeckeElement.identity(4, 2)
        for other in (b, c):
            with pytest.raises(ValueError):
                a + other
            with pytest.raises(ValueError):
                product(a, other)


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
                assert product(x, y).coeffs == ref_mul(xc, yc, q0)
                assert regular_trace(x) == ref_trace(xc, n, q0)
                identity = tuple(range(1, n + 1))
                assert symmetrizing_trace(x, y) == ref_mul(xc, yc, q0).get(identity, 0)
                assert symmetrizing_trace(x, y) == symmetrizing_trace(y, x)


class TestCachesAndTables:
    def test_cached_elements_cannot_be_mutated(self):
        projector_element(Y(2, 1), 2).coeffs.clear()
        assert irreducible_trace(Y(2, 1), (1,), 2) == 1
        for x in (projector_element(Y(2, 1), 2), fundamental_invariant(4, F(2)), word_element(3, 2, (1,))):
            for field, value in (("n", 5), ("q0", F(3)), ("_vec", ()), ("_den", 2)):
                with pytest.raises(AttributeError):
                    setattr(x, field, value)
                with pytest.raises(AttributeError):
                    delattr(x, field)
        assert all(oracle_checks(4, 2).checks.values())
        assert irreducible_trace(Y(2, 1), (1,), 2) == 1

    def test_cached_projector_cannot_be_mutated(self):
        p = projector_element(Y(2, 1), 2)
        assert projector_element(Y(2, 1), F(2)) is p
        projectors = _projectors(3, F(2))
        with pytest.raises(TypeError):
            projectors[Y(2, 1)] = HeckeElement.zero(3, 2)
        assert projectors[Y(2, 1)] is p
        assert hecke_projector(Y(2, 1), 2) == (F(40, 49), F(11, 49), F(-2, 49))
        assert irreducible_trace(Y(2, 1), (1,), 2) == 1

    def test_q0_keyed_memos_are_bounded(self):
        for q0 in range(2, 102):
            for g in partitions(4):
                projector_element(g, q0)
        assert _projectors.cache_info().currsize <= 8
        assert _spectrum.cache_info().currsize <= 8

    def test_refused_projector_is_not_stored(self):
        before = _projectors.cache_info().currsize
        for q0 in (1, -1, 2**MAX_Q0_BITS):
            for refused in (hecke_projector, projector_element):
                with pytest.raises(ValueError):
                    refused(Y(2, 1), q0)
        assert _projectors.cache_info().currsize == before

    def test_refused_q0_leaves_no_memo(self):
        _invariant.cache_clear()
        with pytest.raises(TypeError):
            heckeq.verify.oracle_checks(3, 2.5)
        assert _invariant.cache_info().currsize == 0

    def test_kernel_matches_value_swap_reference(self):
        for n in range(1, 8):
            kernel, reference = _kernel(n), ref_kernel(n)
            assert set(kernel._fields) == set(reference)
            for field in kernel._fields:
                assert getattr(kernel, field) == reference[field], (n, field)

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
                assert product(gi, invariant) == product(invariant, gi)

    def test_quadratic_cayley_annihilates(self):
        q0 = F(2)
        c2 = fundamental_invariant(2, q0)
        identity = HeckeElement.identity(2, q0)
        assert product(c2, c2) - c2 * (q0 - 1) - identity * q0 == HeckeElement.zero(2, q0)

    def test_cubic_cayley_annihilates(self):
        # the n = 3 Cayley polynomial, with exact rational coefficients at q0
        q0 = F(2)
        c3 = fundamental_invariant(3, q0)
        identity = HeckeElement.identity(3, q0)
        a2 = (q0 - 1) * (q0 + 4 + 1 / q0)
        a1 = q0**3 - q0**2 - 9 * q0 - 1 + 1 / q0
        a0 = (q0 - 1) * (2 * q0**2 + 5 * q0 + 2)
        square = product(c3, c3)
        combo = product(square, c3) - square * a2 + c3 * a1 + identity * a0
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
        lhs = product(c3, c3)
        rhs = identity * (3 * q0) + c3 * (2 * (q0 - 1)) + d3 * (q0 + 1 + 1 / q0)
        assert lhs == rhs


class TestTimesInvariant:
    """The Murphy recursion's x C against the reference product, for central x."""

    @pytest.mark.parametrize("q0", [F(2), F(5, 3), F(-3, 2)])
    def test_every_power_projector_and_dual_basis_sum(self, q0):
        for n in range(1, 7):
            invariant = fundamental_invariant(n, q0)
            power = HeckeElement.identity(n, q0)
            for _ in partitions(n):  # 1, C, ..., C^(p(n)-1), each the reference product of the last
                next_power = product(power, invariant)
                assert _times_invariant(power) == next_power
                power = next_power
            for x in [_dual_basis_sum(n, q0)] + [projector_element(g, q0) for g in partitions(n)]:
                assert _times_invariant(x) == product(x, invariant)

    def test_projectors_build_each_power_once(self, monkeypatch):
        # 1 and the cached C are given, so C^2 .. C^(p(n)-1) are the only products
        calls = []
        monkeypatch.setattr(heckeq.hecke_oracle, "_times_invariant", lambda x: calls.append(x) or _times_invariant(x))
        q0 = F(11, 7)  # a q0 no other test caches
        for n in range(2, 6):
            fundamental_invariant(n, q0)
            del calls[:]
            for g in partitions(n):
                projector_element(g, q0)
            assert len(calls) == len(partitions(n)) - 2
            projector_element(Y(n), q0)
            assert len(calls) == len(partitions(n)) - 2

    @pytest.mark.parametrize("q0", [F(5, 3), F(-3, 2)])
    def test_conjugation_of_a_non_central_element(self, q0):
        # one reduction, the sign of q0 in the vector: the same pair as the three-pass route
        x = word_element(4, q0, (1, 2)) + word_element(4, q0, (3,)) * F(2, 7)
        for j in range(1, 4):
            conjugate = _conjugate(x, j)
            assert conjugate == x.times_generator(j, "left").times_generator(j) * (1 / q0)
            assert conjugate._den > 0


class TestMurphyElements:
    def test_l2_is_first_generator(self):
        assert murphy_element(4, 2, 2) == word_element(4, 2, (1,))

    def test_l2_l4_expansion(self):
        q0 = F(2)
        lhs = product(murphy_element(4, q0, 2), murphy_element(4, q0, 4))
        g1 = word_element(4, q0, (1,))
        inner = (
            word_element(4, q0, (3,))
            + word_element(4, q0, (2, 3, 2)) * F(1, q0)
            + word_element(4, q0, (1, 2, 3, 2, 1)) * F(1, q0**2)
        )
        assert lhs == product(g1, inner)

    def test_murphy_elements_commute(self):
        elements = {i: murphy_element(4, 2, i) for i in (2, 3, 4)}
        for i in elements:
            for j in elements:
                assert product(elements[i], elements[j]) == product(elements[j], elements[i])

    def test_sum_is_invariant(self):
        total = HeckeElement.zero(5, 2)
        for i in range(2, 6):
            total = total + murphy_element(5, 2, i)
        assert total == fundamental_invariant(5, 2)

    @pytest.mark.parametrize("q0", [F(2), F(5, 3), F(-3, 2)])
    def test_recursion_matches_sandwich_words(self, q0):
        for n in range(2, 7):
            for i in range(2, n + 1):
                assert murphy_element(n, q0, i) == ref_murphy_element(n, q0, i)


class TestRegularTrace:
    def test_identity_trace_is_group_order(self):
        for n in (1, 2, 3, 4):
            assert regular_trace(HeckeElement.identity(n, 2)) == factorial(n)

    def test_trace_is_symmetric(self):
        rng = random.Random(11)
        for _ in range(4):
            a = random_element(4, 2, rng)
            b = random_element(4, 2, rng)
            assert regular_trace(product(a, b)) == regular_trace(product(b, a))

    def test_generator_trace_matches_irrep_sum(self):
        # dim-weighted sum of the three irreducible traces of g_1 at q0 = 2:
        # 1*q0 + 2*(q0-1) + 1*(-1) = 3
        assert regular_trace(word_element(3, 2, (1,))) == 3

    def test_linearity(self):
        rng = random.Random(5)
        a = random_element(4, 2, rng)
        b = random_element(4, 2, rng)
        assert regular_trace(a + b) == regular_trace(a) + regular_trace(b)


class TestRegularTraceThroughTau:
    """tr_reg(x) = tau(x z) against the n!-column walk, and z itself."""

    @pytest.mark.parametrize("q0", [F(2), F(5, 3), F(-3, 2)])
    def test_random_elements_match_walk(self, q0):
        rng = random.Random(str(q0))
        for n in range(1, 7):
            for _ in range(2):
                x = HeckeElement(n, q0, random_coeffs(n, rng))
                assert regular_trace(x) == ref_regular_trace(x)

    @pytest.mark.parametrize("q0", [F(2), F(5, 3), F(-3, 2)])
    def test_every_projector_matches_walk(self, q0):
        for n in range(1, 7):
            for g in partitions(n):
                p = projector_element(g, q0)
                assert regular_trace(p) == ref_regular_trace(p) == dimension(g) ** 2

    @pytest.mark.parametrize("q0", [F(2), F(5, 3), F(-3, 2)])
    def test_dual_basis_sum_is_central(self, q0):
        for n in range(1, 7):
            z = _dual_basis_sum(n, q0)
            for i in range(1, n):
                assert z.times_generator(i, "left") == z.times_generator(i)


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
                    assert irreducible_trace(g, word, q0) == ref_irreducible_trace(g, word, q0)

    def test_every_symbolic_trace_at_seven(self):
        q0 = F(2)
        words = {"g1*g3": (1, 3), "g1*g3*g4": (1, 3, 4)}
        for g in partitions(7):
            for k in range(2, 8):
                word = tuple(range(1, k))
                assert simply_connected_trace(g, k).evaluate(q0) == irreducible_trace(g, word, q0)
            solved = doubly_connected_traces(g)
            for label, word in words.items():
                assert solved[label].evaluate(q0) == irreducible_trace(g, word, q0)


class TestGenericDegreeAgainstOracle:
    @pytest.mark.parametrize("q0", [F(2), F(-3, 2)])
    def test_trace_of_central_idempotent(self, q0):
        for n in range(2, 7):
            one = HeckeElement.identity(n, q0)
            factorial_q = 1
            for k in range(2, n + 1):
                factorial_q *= q_integer(k).evaluate(q0)
            for g in partitions(n):
                tau = symmetrizing_trace(projector_element(g, q0), one)
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
            heckeq.verify, "projector_element", lambda g, q0: real(g, q0) + word_element(g.n, q0, (1,))
        )
        report = oracle_checks(4, F(2))
        assert report.checks["projector_idempotent"] is False
        # g_1 commutes with itself, so the first failing generator is g_2
        assert (report.witness["check"], report.witness["diagram"], report.witness["word"]) == (
            "projector_idempotent", "4", "2"
        )

    def test_zero_projector_fails_idempotence(self, monkeypatch):
        monkeypatch.setattr(heckeq.verify, "projector_element", lambda g, q0: HeckeElement.zero(g.n, q0))
        report = oracle_checks(3, F(2))
        assert report.checks["projector_idempotent"] is False
        assert report.witness == {
            "check": "projector_idempotent", "diagram": "3", "word": "", "basis_word": "",
            "symbolic": "nonzero", "oracle": "0",
        }

    def test_one_eigenvector_pass_serves_both_projector_checks(self, monkeypatch):
        # the zero projector passes both relations and fails only tau(p) != 0
        calls = []
        monkeypatch.setattr(heckeq.verify, "_times_invariant", lambda x: calls.append(x) or _times_invariant(x))
        monkeypatch.setattr(heckeq.verify, "projector_element", lambda g, q0: HeckeElement.zero(g.n, q0))
        report = oracle_checks(3, F(2))
        assert report.checks["projector_idempotent"] is False
        assert report.checks["projector_pairwise_orthogonal"] is True
        assert len(calls) == len(partitions(3))

    def test_projector_off_its_eigenspace_fails_orthogonality(self, monkeypatch):
        # a sum of two central idempotents is central and idempotent, but
        # not an eigenvector of the invariant
        real = heckeq.verify.projector_element
        parts = partitions(4)

        def shifted(g, q0):
            other = parts[(parts.index(g) + 1) % len(parts)]
            return real(g, q0) + real(other, q0)

        monkeypatch.setattr(heckeq.verify, "projector_element", shifted)
        report = oracle_checks(4, F(5, 3))
        assert report.checks["projector_pairwise_orthogonal"] is False
        assert report.checks["fundamental_invariant_central"] is True


    def test_non_central_projector_on_its_eigenspace_fails_orthogonality(self, monkeypatch):
        # p + g_1 p is still an eigenvector of C on the right, but not
        # central, so x C from the Murphy recursion cannot be compared
        real = heckeq.verify.projector_element

        def tilted(g, q0):
            x = real(g, q0)
            return x + x.times_generator(1, "left") if g == Y(3, 1) else x

        monkeypatch.setattr(heckeq.verify, "projector_element", tilted)
        report = oracle_checks(4, F(2))
        assert report.checks["projector_idempotent"] is False
        assert report.checks["projector_pairwise_orthogonal"] is False
        assert report.witness == {
            "check": "projector_idempotent", "diagram": "3,1", "word": "2", "basis_word": "2,3",
            "symbolic": "2/45", "oracle": "4/45",
        }


class TestProjectors:
    def test_powers_match_horner(self):
        for q0 in (F(2), F(5, 3), F(-3, 2)):
            for n in (2, 3, 4, 5):
                for g in partitions(n):
                    coeffs = hecke_projector(g, q0)
                    assert projector_element(g, q0) == horner_projector(coeffs, HeckeElement.identity(n, q0))

    def test_two_point_lagrange(self):
        assert hecke_projector(Y(2), 2) == (F(1, 3), F(1, 3))
        assert hecke_projector(Y(1, 1), 2) == (F(2, 3), F(-1, 3))

    def test_projector_algebra_small(self):
        for n in (2, 3, 4):
            projectors = {g: projector_element(g, 2) for g in partitions(n)}
            total = HeckeElement.zero(n, 2)
            for g, p in projectors.items():
                assert product(p, p) == p
                assert regular_trace(p) == dimension(g) ** 2
                total = total + p
            assert total == HeckeElement.identity(n, 2)
            items = list(projectors.items())
            for i, (g, p) in enumerate(items):
                for h, p2 in items[i + 1 :]:
                    assert product(p, p2) == HeckeElement.zero(n, 2)

    def test_eigenvector_property(self):
        for n in (2, 3, 4):
            invariant = fundamental_invariant(n, 2)
            for g in partitions(n):
                p = projector_element(g, 2)
                lam = invariant_eigenvalue(g).evaluate(2)
                assert product(invariant, p) == p * lam

    def test_degenerate_specializations_refused(self):
        for q0 in (1, -1):
            for refused in (hecke_projector, projector_element):
                with pytest.raises(DegenerateSpecialization, match=f"^q0 = {q0} is a root of unity$"):
                    refused(Y(2), q0)

    def test_apply_projector_via_horner(self):
        x = word_element(3, 2, (1, 2))
        assert horner_projector(hecke_projector(Y(2, 1), 2), x) == product(projector_element(Y(2, 1), 2), x)


def test_refused_specialization_is_not_stored():
    _spectrum.cache_clear()
    _projectors.cache_clear()
    with pytest.raises(DegenerateSpecialization, match=r"^q0 = -1 is a root of unity$"):
        projector_element(Y(2, 2), -1)
    assert _spectrum.cache_info().currsize == _projectors.cache_info().currsize == 0


def test_spectrum_is_read_only():
    spectrum = _spectrum(4, F(2))
    with pytest.raises(TypeError):
        spectrum[Y(4)] = F(0)
    assert spectrum[Y(4)] == invariant_eigenvalue(Y(4)).evaluate(2)


def test_word_element_is_built_once_per_word():
    assert word_element(4, 2, [1, 2, 1]) is word_element(4, F(2), (1, 2, 1))


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
            assert irreducible_trace(Y(*rows), word, q0) == expected_fn(q0)

    def test_h4_nonconsecutive_word(self):
        for q0 in (F(2), F(3)):
            assert irreducible_trace(Y(3, 1), (1, 3), q0) == q0**2 - 2 * q0
            assert irreducible_trace(Y(4), (1, 3), q0) == q0**2

    def test_identity_word_gives_dimension(self):
        for g in partitions(4):
            assert irreducible_trace(g, (), 2) == dimension(g)


@pytest.mark.slow
class TestDegeneratePairAtSix:
    def test_hook_projector_annihilates_two_row_image(self):
        q0 = F(2)
        p_hook = hecke_projector(Y(4, 1, 1), q0)
        p_rows = hecke_projector(Y(3, 3), q0)
        image = horner_projector(p_rows, word_element(6, q0, (1, 2, 3)))
        assert image.coeffs  # a nonzero vector in the [3,3] component
        assert horner_projector(p_hook, image) == HeckeElement.zero(6, q0)

    def test_projector_algebra_at_six(self):
        q0 = F(2)
        projectors = {g: projector_element(g, q0) for g in partitions(6)}
        total = HeckeElement.zero(6, q0)
        for g, p in projectors.items():
            assert horner_projector(hecke_projector(g, q0), p) == p
            assert regular_trace(p) == dimension(g) ** 2
            total = total + p
        assert total == HeckeElement.identity(6, q0)
        items = list(projectors.items())
        for i, (g, p) in enumerate(items):
            for h, _ in items[i + 1 :]:
                assert horner_projector(hecke_projector(h, q0), p) == HeckeElement.zero(6, q0)
