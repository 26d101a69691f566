"""Every library refusal that no other in-process test reaches.

One row per refused call: the call, the exact exception type, and the
start of its message.  A refusal that must come before any work has a
test of its own.
"""

from functools import partial

import pytest

import heckeq.hecke_oracle
from heckeq.hecke_oracle import (
    DegenerateSpecialization,
    HeckeElement,
    fundamental_invariant,
    hecke_projector,
    irreducible_trace,
    murphy_element,
    projector_element,
    word_element,
)
from heckeq.invariant import (
    NonIntegerPowerSum,
    UnsupportedCycle,
    central_character,
    central_character_table,
    content_power_sum,
    power_sums_from_eigenvalue,
)
from heckeq.laurent import LaurentPoly, NotDivisible
from heckeq.suq import (
    GZPattern,
    SuqIrrep,
    check_ef_commutator,
    chevalley_weight,
    gz_patterns,
    irrep_from_casimir,
    lowering_squared,
)
from heckeq.symgroup import (
    ClassVector,
    build_projector,
    character_table,
    characters_from_projector,
    class_size,
    cycle_type,
    cycle_type_to_string,
    display_cycle_type,
    murnaghan_nakayama_character,
    perm_mul,
    single_cycle_class_sum,
)
from heckeq.traces import murphy_product_trace, simply_connected_trace

from conftest import F, Y


def _pattern():
    return gz_patterns(SuqIrrep.from_rows(3, (2, 1)))[0]


def _warm(first, then):
    """`then()` once `first()` has filled the cache the two calls share."""
    first()
    return then()


REFUSALS = {
    "times_generator index 0": (
        lambda: HeckeElement.identity(3, 2).times_generator(0), ValueError, "generator index must lie in 1..2, got 0"),
    "times_generator index n": (
        lambda: HeckeElement.identity(3, 2).times_generator(3), ValueError, "generator index must lie in 1..2, got 3"),
    "times_generator side": (
        lambda: HeckeElement.identity(3, 2).times_generator(1, "up"), ValueError, "side must be 'right' or 'left'"),
    "murphy_element index 1": (lambda: murphy_element(3, 2, 1), ValueError, "Murphy index must lie in 2..3, got 1"),
    "murphy_element index n + 1": (lambda: murphy_element(3, 2, 4), ValueError, "Murphy index must lie in 2..3, got 4"),
    "content_power_sum k": (
        lambda: content_power_sum(Y(2, 1), 0), ValueError, "power sum index must be at least 1, got 0"),
    "power_sums_from_eigenvalue kmax": (
        lambda: power_sums_from_eigenvalue(LaurentPoly.q(), 0), ValueError, "kmax must be at least 1, got 0"),
    "power_sums_from_eigenvalue non-integer power sum": (
        lambda: power_sums_from_eigenvalue(LaurentPoly({1: F(1, 2), 0: F(-1, 2)}), 2),
        NonIntegerPowerSum, "power sum s_1 = 1/2 is not an integer"),
    "divide_exact divisor type": (
        lambda: LaurentPoly.q().divide_exact("q"), TypeError, "divisor must be a LaurentPoly or scalar"),
    "divide_exact divisor degree": (
        lambda: LaurentPoly.q().divide_exact(LaurentPoly({2: 1, 0: 1})), NotDivisible,
        "(q) is not divisible by (q^2+1)"),
    "single_cycle_class_sum p 1": (
        lambda: single_cycle_class_sum(3, 1), ValueError, "cycle length must lie in 2..3, got 1"),
    "single_cycle_class_sum p n + 1": (
        lambda: single_cycle_class_sum(3, 4), ValueError, "cycle length must lie in 2..3, got 4"),
    "ClassVector key of wrong n": (
        lambda: ClassVector(3, {(2, 2): 1}), ValueError, "cycle type (2, 2) does not partition n=3"),
    "characters_from_projector n": (
        lambda: characters_from_projector(build_projector(Y(2, 1)), Y(2, 2)), ValueError,
        "diagram 2,2 has 4 boxes, expected n=3"),
    "character_table method": (
        lambda: character_table(3, "brute"), ValueError, "unknown method 'brute' (expected 'mn' or 'projector')"),
    "SuqIrrep top row length": (
        lambda: SuqIrrep(3, (2, 0)), ValueError, "top row must have 3 entries, got (2, 0)"),
    "irrep_from_casimir N": (
        lambda: irrep_from_casimir(LaurentPoly.q(), 1), ValueError, "N must be at least 2, got 1"),
    "lowering_squared j above k": (
        lambda: lowering_squared(_pattern(), 2, 1, 2), ValueError, "j must lie in 1..1, got 2"),
    "lowering_squared k above N - 1": (
        lambda: lowering_squared(_pattern(), 1, 3, 2), ValueError, "k must lie in 1..2, got 3"),
    "chevalley_weight k 0": (lambda: chevalley_weight(_pattern(), 0), ValueError, "k must lie in 1..2, got 0"),
    "chevalley_weight k N": (lambda: chevalley_weight(_pattern(), 3), ValueError, "k must lie in 1..2, got 3"),
    "GZPattern float entry": (
        lambda: GZPattern(((0.5,), (1, 0))), TypeError, "expected an integer pattern entry, got float"),
    "GZPattern bool entry": (
        lambda: GZPattern(((True,), (1, 0))), TypeError, "expected an integer pattern entry, got bool"),
    "GZPattern.entry j 0": (lambda: _pattern().entry(1, 0), ValueError, "j must lie in 1..3, got 0"),
    "GZPattern.entry i 0": (lambda: _pattern().entry(0, 2), ValueError, "i must lie in 1..2, got 0"),
    "GZPattern.entry i above j": (lambda: _pattern().entry(3, 2), ValueError, "i must lie in 1..2, got 3"),
    "GZPattern.shifted j above N": (lambda: _pattern().shifted(1, 4, 1), ValueError, "j must lie in 1..3, got 4"),
    "GZPattern.shifted delta float": (
        lambda: _pattern().shifted(1, 2, 0.5), TypeError, "expected an integer delta, got float"),
    "central_character p 6": (
        lambda: central_character(6, Y(2, 1)), UnsupportedCycle, "no closed form for cycle length 6"),
    "cycle_type repeated entry": (lambda: cycle_type((1, 1)), ValueError, "(1, 1) is not a permutation of 1..2"),
    "cycle_type entry 0": (lambda: cycle_type((0, 1)), ValueError, "(0, 1) is not a permutation of 1..2"),
    "cycle_type entry above n": (
        lambda: cycle_type((5, 1, 2)), ValueError, "(5, 1, 2) is not a permutation of 1..3"),
    "perm_mul non-permutation": (
        lambda: perm_mul((2, 1), (1, 1)), ValueError, "(1, 1) is not a permutation of 1..2"),
    "perm_mul lengths": (
        lambda: perm_mul((2, 1), (1, 2, 3)), ValueError, "(1, 2, 3) is not a permutation of 1..2"),
    "HeckeElement.coefficient str entry": (
        lambda: HeckeElement.identity(3, 2).coefficient(("1", 2, 3)), TypeError,
        "expected an integer permutation entry, got str"),
    "murnaghan_nakayama_character str parts": (
        lambda: murnaghan_nakayama_character(Y(2, 1), ("2", "1")), TypeError,
        "expected an integer cycle length, got str"),
    "class_size no parts": (lambda: class_size(()), ValueError, "a cycle type needs at least one part"),
    "SuqIrrep.from_rows N 1": (lambda: SuqIrrep.from_rows(1, ()), ValueError, "N must be at least 2, got 1"),
    "check_ef_commutator k 0": (
        lambda: check_ef_commutator(SuqIrrep(3, (1, 0, 0)), 0, 2), ValueError, "k must lie in 1..2, got 0"),
    "check_ef_commutator k N": (
        lambda: check_ef_commutator(SuqIrrep(3, (1, 0, 0)), 3, 2), ValueError, "k must lie in 1..2, got 3"),
    "projector_element q0 1": (
        lambda: projector_element(Y(2, 1), 1), DegenerateSpecialization, "q0 = 1 is a root of unity"),
    "hecke_projector q0 bool": (
        lambda: hecke_projector(Y(2, 1), True), TypeError, "expected int or Fraction, got bool"),
}

# A cached function refuses on a warm cache what it refuses on a cold one: each row
# fills the cache with an accepted call, then makes the refused call that equals it.
WARM_CACHE = {
    "fundamental_invariant q0 float": (
        lambda: fundamental_invariant(4, F(2)), lambda: fundamental_invariant(4, 2.0),
        "expected int or Fraction, got float"),
    "fundamental_invariant n float": (
        lambda: fundamental_invariant(4, F(2)), lambda: fundamental_invariant(4.0, F(2)),
        "expected an integer n, got float"),
    "fundamental_invariant q0 bool": (
        lambda: fundamental_invariant(3, 1), lambda: fundamental_invariant(3, True),
        "expected int or Fraction, got bool"),
    "hecke_projector q0 float": (
        lambda: hecke_projector(Y(2, 1), 2), lambda: hecke_projector(Y(2, 1), 2.0),
        "expected int or Fraction, got float"),
    "projector_element q0 float": (
        lambda: projector_element(Y(3), 2), lambda: projector_element(Y(3), 2.0),
        "expected int or Fraction, got float"),
    "projector_element q0 bool": (
        lambda: projector_element(Y(3), 2), lambda: projector_element(Y(3), True),
        "expected int or Fraction, got bool"),
    "word_element n float": (
        lambda: word_element(3, 2, (1,)), lambda: word_element(3.0, 2, (1,)), "expected an integer n, got float"),
    "word_element generator float": (
        lambda: word_element(3, 2, (1,)), lambda: word_element(3, 2, (1.0,)),
        "expected an integer generator index, got float"),
    "irreducible_trace q0 float": (
        lambda: irreducible_trace(Y(2, 1), (1,), 2), lambda: irreducible_trace(Y(2, 1), (1,), 2.0),
        "expected int or Fraction, got float"),
    "central_character_table p float": (
        lambda: central_character_table(2, 3), lambda: central_character_table(2.0, 3),
        "expected an integer p, got float"),
    "central_character_table n bool": (
        lambda: central_character_table(2, 1), lambda: central_character_table(2, True),
        "expected an integer n, got bool"),
}
REFUSALS |= {
    f"warm {label}": (partial(_warm, first, then), TypeError, start)
    for label, (first, then, start) in WARM_CACHE.items()
}

# Each integer argument that had no check of its own, and the name its refusal gives,
# called with a float and with a bool.
INTEGER_ARGUMENTS = {
    "murphy_element index": (lambda i: murphy_element(3, 2, i), "Murphy index"),
    "murphy_product_trace index": (lambda a: murphy_product_trace(Y(2, 1), (a,)), "Murphy index"),
    "single_cycle_class_sum p": (lambda p: single_cycle_class_sum(3, p), "cycle length"),
    "single_cycle_class_sum n": (lambda n: single_cycle_class_sum(n, 2), "n"),
    "ClassVector n": (lambda n: ClassVector(n, {(2, 1): 1}), "n"),
    "ClassVector.identity n": (ClassVector.identity, "n"),
    "simply_connected_trace k": (lambda k: simply_connected_trace(Y(2, 1), k), "word length index"),
    "lowering_squared j": (lambda j: lowering_squared(_pattern(), j, 1, 2), "j"),
    "lowering_squared k": (lambda k: lowering_squared(_pattern(), 1, k, 2), "k"),
    "chevalley_weight k": (lambda k: chevalley_weight(_pattern(), k), "k"),
    "GZPattern.entry i": (lambda i: _pattern().entry(i, 2), "i"),
    "GZPattern.entry j": (lambda j: _pattern().entry(1, j), "j"),
    "GZPattern.shifted delta": (lambda delta: _pattern().shifted(1, 2, delta), "delta"),
    "central_character p": (lambda p: central_character(p, Y(2, 1)), "p"),
    "central_character_table p": (lambda p: central_character_table(p, 3), "p"),
    "cycle_type entry": (lambda x: cycle_type((x, 1)), "permutation entry"),
    "perm_mul entry": (lambda x: perm_mul((1, 2), (x, 1)), "permutation entry"),
    "HeckeElement.coefficient entry": (
        lambda x: HeckeElement.identity(3, 2).coefficient((x, 2, 3)), "permutation entry"),
    "HeckeElement key entry": (lambda x: HeckeElement(3, 2, {(x, 2, 3): 1}), "permutation entry"),
    "murnaghan_nakayama_character part": (lambda x: murnaghan_nakayama_character(Y(2, 1), (x, 1)), "cycle length"),
    "display_cycle_type part": (lambda x: display_cycle_type((x, 1)), "cycle length"),
    "cycle_type_to_string part": (lambda x: cycle_type_to_string((x, 1)), "cycle length"),
    "SuqIrrep.from_rows N": (lambda N: SuqIrrep.from_rows(N, (1,)), "N"),
    "check_ef_commutator k": (lambda k: check_ef_commutator(SuqIrrep(3, (1, 0, 0)), k, 2), "k"),
}
REFUSALS |= {
    f"{label} {type(value).__name__}": (
        partial(call, value), TypeError, f"expected an integer {name}, got {type(value).__name__}")
    for label, (call, name) in INTEGER_ARGUMENTS.items()
    for value in (2.0, True)
}


@pytest.mark.parametrize("call, kind, start", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, kind, start):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value).startswith(start)



def test_projector_ceiling_is_checked_before_partitions_are_listed(monkeypatch):
    def refuse(n):
        raise AssertionError(f"partitions({n}) listed before the ceiling check")

    monkeypatch.setattr(heckeq.hecke_oracle, "partitions", refuse)
    with pytest.raises(ValueError, match=r"capped at n <= 7"):
        projector_element(Y(4, 4), 2)
