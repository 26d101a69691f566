import operator
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeq.hecke_oracle import HeckeElement
from heckeq.laurent import (
    LaurentPoly,
    NotDivisible,
    PolynomialParseError,
    ZeroSpecialization,
    exp_series,
    q_content,
    q_integer,
    symmetric_bracket,
)
from heckeq.symgroup import ClassVector

from conftest import F, P


def stored_canonically(p: LaurentPoly) -> bool:
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for _, c in p)


def naive_product(a: dict, b: dict) -> dict:
    """Independent term-by-term convolution used as the multiplication oracle."""
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dense_divmod(a: dict, b: dict) -> tuple[dict, dict]:
    """Independent long division oracle on exponent-shifted dense lists."""
    va, vb = min(a), min(b)
    da, db = max(a) - va, max(b) - vb
    rem = [Fraction(0)] * (da + 1)
    for e, c in a.items():
        rem[e - va] = c
    bs = [Fraction(0)] * (db + 1)
    for e, c in b.items():
        bs[e - vb] = c
    quot = [Fraction(0)] * max(da - db + 1, 0)
    for d in range(da - db, -1, -1):
        c = rem[d + db] / bs[db]
        quot[d] = c
        for j in range(db + 1):
            rem[d + j] -= c * bs[j]
    return (
        {d + va - vb: c for d, c in enumerate(quot) if c},
        {e + va: c for e, c in enumerate(rem) if c},
    )


class TestArithmetic:
    def test_additive_inverse(self, q):
        assert q + (-1) * q == LaurentPoly.zero()

    def test_difference_of_squares(self, q):
        assert (q - 1) * (q + 1) == P("q^2-1")

    def test_inverse_monomial_product(self, q):
        # oracle first: expand (1/q) * (q^2 + 2q) term by term
        a = {-1: Fraction(1)}
        b = {2: Fraction(1), 1: Fraction(2)}
        assert naive_product(a, b) == {1: Fraction(1), 0: Fraction(2)}
        assert LaurentPoly(a) * LaurentPoly(b) == P("q+2")

    def test_scalar_operations(self, q):
        assert 3 * q == P("3*q")
        assert q * Fraction(1, 2) == P("1/2*q")
        assert q - 1 == P("q-1")
        assert 1 - q == P("-q+1")

    @pytest.mark.parametrize("scalar", [0, 3, -2, Fraction(5, 7)])
    def test_constant_hashes_like_its_scalar(self, scalar):
        p = LaurentPoly.constant(scalar)
        assert p == scalar
        assert hash(p) == hash(scalar)
        assert len({p, scalar}) == 1

    def test_powers(self, q):
        assert (q - 1) ** 0 == LaurentPoly.one()
        assert (q - 1) ** 3 == P("q^3-3*q^2+3*q-1")
        with pytest.raises(ValueError):
            (q + 1) ** -1


# The linear arithmetic and coefficient normal form are shared, so both
# sparse types answer to one contract.  Each kind is a constructor from a
# key -> coefficient map and three keys, the first of which is the unit
# that a scalar stands for.
KINDS = {
    "LaurentPoly": (LaurentPoly, (0, 1, -2)),
    "ClassVector": (lambda terms: ClassVector(3, terms), ((1, 1, 1), (2, 1), (3,))),
}


def stored(v) -> dict:
    return v.terms if isinstance(v, LaurentPoly) else dict(v.coeffs)


@pytest.mark.parametrize("make,keys", KINDS.values(), ids=KINDS.keys())
class TestSharedArithmetic:
    def test_zero_terms_are_dropped(self, make, keys):
        unit, a, b = keys
        x = make({a: 2, b: 0})
        assert stored(x) == {a: 2}
        assert stored(x - x) == stored(x + (-x)) == stored(x * 0) == {}

    def test_integral_results_are_ints(self, make, keys):
        unit, a, b = keys
        half = make({a: F(1, 2), b: F(2, 4)})
        assert stored(half) == {a: F(1, 2), b: F(1, 2)}
        results = [
            half * 2,
            half + half,
            half - make({a: F(-1, 2), b: F(1, 2)}),
            make({a: F(4, 2)}),
            make({unit: F(1, 2)}) + F(1, 2),
            half * F(4, 3) * F(3, 2),
        ]
        for v in results:
            assert stored(v) and all(type(c) is int for c in stored(v).values())

    @pytest.mark.parametrize("bad", [0.5, "1/3"])
    def test_non_rational_coefficients_raise(self, make, keys, bad):
        with pytest.raises(TypeError):
            make({keys[1]: bad})
        x = make({keys[1]: 1})
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            x + bad

    def test_scalars_on_both_sides(self, make, keys):
        unit, a, _ = keys
        x = make({a: 3, unit: 1})
        assert x + 2 == 2 + x == make({a: 3, unit: 3})
        assert x - 2 == make({a: 3, unit: -1})
        assert 2 - x == make({a: -3, unit: 1})
        assert x * F(1, 3) == F(1, 3) * x == make({a: 1, unit: F(1, 3)})
        assert make({unit: 5}) == 5 and make({}) == 0


# A bool is an int to Python but never a scalar of the arithmetic.
@pytest.mark.parametrize(
    "make",
    [LaurentPoly.q, lambda: ClassVector.identity(3), lambda: HeckeElement.identity(3, 2)],
    ids=["LaurentPoly", "ClassVector", "HeckeElement"],
)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["+", "-", "*"])
@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
def test_bool_scalars_are_refused(make, op, left):
    x = make()
    with pytest.raises(TypeError):
        op(True, x) if left else op(x, True)


def test_bool_divisor_is_refused():
    with pytest.raises(TypeError):
        ClassVector.identity(3) / True


class TestMixing:
    def test_laurent_polys_and_class_vectors_do_not_mix(self):
        p, v = LaurentPoly.q(), ClassVector.identity(3)
        for x, y in ((p, v), (v, p)):
            with pytest.raises(TypeError):
                x + y
            with pytest.raises(TypeError):
                x - y
            with pytest.raises(TypeError):
                x * y
            assert x != y

    def test_class_vectors_of_different_n_do_not_add(self):
        with pytest.raises(ValueError, match="S_3 and S_4"):
            ClassVector.identity(3) + ClassVector.identity(4)
        with pytest.raises(ValueError):
            ClassVector.zero(3) - ClassVector.zero(4)

    def test_class_vectors_of_different_n_compare_unequal(self):
        assert (ClassVector.zero(3) == ClassVector.zero(4)) is False
        assert ClassVector.zero(3) != ClassVector.zero(4)

    def test_class_vectors_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(ClassVector.identity(3))


class TestDivision:
    def test_perfect_square(self, q):
        assert P("q^2-2*q+1").divide_exact(q - 1) == q - 1

    def test_not_divisible(self, q):
        # oracle: long division leaves a nonzero remainder
        _, rem = dense_divmod({3: Fraction(1), 1: Fraction(-2)}, {1: Fraction(1), 0: Fraction(-1)})
        assert rem
        with pytest.raises(NotDivisible):
            P("q^3-2*q").divide_exact(q - 1)

    def test_zero_dividend(self, q):
        assert LaurentPoly.zero().divide_exact(q - 1) == LaurentPoly.zero()

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            LaurentPoly.one().divide_exact(LaurentPoly.zero())

    def test_laurent_shift_division(self, q):
        assert P("q+2").divide_exact(P("q^2+2*q")) == P("q^-1")


class TestEvaluation:
    def test_direct_substitution(self):
        assert P("q^2+2*q").evaluate(2) == 8
        assert P("-2-q^-1").evaluate(2) == F(-5, 2)

    def test_at_one_sums_coefficients(self):
        p = P("5*q^3-2*q+7-3*q^-2")
        assert p.evaluate(1) == 5 - 2 + 7 - 3

    def test_zero_specialization(self):
        with pytest.raises(ZeroSpecialization):
            P("q+1").evaluate(0)

    def test_negative_power_at_integer_is_exact(self):
        value = P("q^-1").evaluate(2)
        assert value == Fraction(1, 2)
        assert type(value) is Fraction


class TestQFamilies:
    def test_q_integer_positive(self):
        assert q_integer(3) == P("q^2+q+1")

    def test_q_integer_zero(self):
        assert q_integer(0) == LaurentPoly.zero()

    def test_q_integer_negative(self, q):
        # oracle: [k]_q (q - 1) = q^k - 1 must hold for negative k too
        assert (P("q^-1-1")).divide_exact(q - 1) == q_integer(-1)
        assert q_integer(-1) == P("-q^-1")
        for k in range(-6, 7):
            assert q_integer(k) * (q - 1) == LaurentPoly.monomial(k) - 1

    def test_q_content(self, q):
        assert q_content(2) == P("q+q^2")
        assert q_content(-2) == P("-1-q^-1")
        assert q_content(0) == LaurentPoly.zero()
        for c in range(-6, 7):
            assert q_content(c) == q * q_integer(c)
            assert q_content(c).evaluate(1) == c

    def test_families_store_ints(self):
        for p in (LaurentPoly.one(), LaurentPoly.q(), q_integer(3), q_integer(-3),
                  q_content(4), q_content(-4), symmetric_bracket(3), symmetric_bracket(-3)):
            assert all(type(c) is int for _, c in p)

    def test_symmetric_bracket(self, q):
        assert symmetric_bracket(1) == LaurentPoly.one()
        assert symmetric_bracket(0) == LaurentPoly.zero()
        # oracle: expand (q^2 - q^-2)/(q - q^-1) by exact division
        assert (P("q^2-q^-2")).divide_exact(P("q-q^-1")) == symmetric_bracket(2)
        assert symmetric_bracket(2) == P("q+q^-1")
        for x in range(-5, 6):
            qinv = LaurentPoly.monomial(-1)
            assert symmetric_bracket(x) * (q - qinv) == LaurentPoly.monomial(x) - LaurentPoly.monomial(-x)
            assert symmetric_bracket(-x) == -symmetric_bracket(x)


class TestExpSeries:
    def test_single_q(self, q):
        assert exp_series(q, 3) == (1, 1, F(1, 2), F(1, 6))

    def test_constant(self):
        s = exp_series(P("5"), 2)
        assert tuple(s) == (5, 0, 0)

    def test_high_order_is_exact(self, q):
        assert exp_series(q, 70)[70] == F(1, factorial(70))
        with pytest.raises(ValueError):
            exp_series(q, -1)


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,terms",
        [
            ("q^2+3*q-1-2*q^-1", {2: 1, 1: 3, 0: -1, -1: -2}),
            ("-q", {1: -1}),
            ("7/2", {0: F(7, 2)}),
            ("3/2*q^-4", {-4: F(3, 2)}),
            ("q", {1: 1}),
            ("0", {}),
            ("1+q", {0: 1, 1: 1}),
        ],
    )
    def test_parse(self, text, terms):
        assert LaurentPoly.from_string(text) == LaurentPoly(terms)

    def test_canonical_printing(self):
        assert str(P("-1+q^2+3*q-2*q^-1")) == "q^2+3*q-1-2*q^-1"
        assert str(LaurentPoly.zero()) == "0"
        assert str(P("1/2*q - 1/2")) == "1/2*q-1/2"

    @pytest.mark.parametrize("bad", ["", "q^", "3q", "q+", "2**q", "q^1.5", "+", "x+1", "0/0", "3/00*q"])
    def test_parse_errors(self, bad):
        with pytest.raises(PolynomialParseError):
            LaurentPoly.from_string(bad)

    def test_substitute_power(self):
        assert P("q^2+q^-1").substitute_power(2) == P("q^4+q^-2")
        with pytest.raises(ValueError):
            P("q").substitute_power(0)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys = st.builds(
    lambda pairs: LaurentPoly(pairs),
    st.lists(st.tuples(st.integers(-5, 5), small_fractions), max_size=5),
)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestRingProperties:
    @given(polys, polys, polys)
    @settings(max_examples=100, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)

    @given(polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_exact_division_roundtrip(self, a, b):
        assert (a * b).divide_exact(b) == a

    @given(polys, polys, st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_evaluation_is_ring_homomorphism(self, a, b, q0):
        assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
        assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)

    @given(polys)
    @settings(max_examples=100, deadline=None)
    def test_text_roundtrip(self, a):
        assert LaurentPoly.from_string(str(a)) == a

    @given(polys, polys, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_coefficients_are_int_or_proper_fraction(self, a, b, k):
        results = [a, a + b, a - b, a * b, a**k, a * 2, a * F(3, 2) * F(2, 3)]
        results.append(LaurentPoly.from_string(str(a)))
        if not b.is_zero:
            results.append((a * b).divide_exact(b))
        assert all(stored_canonically(p) for p in results)
