"""Every library refusal that no other in-process test reaches.

One row per refused call: the call, the exact exception type, and the
start of its message.
"""

from functools import partial

import pytest

from heckeq.hecke_oracle import HeckeElement, murphy_element
from heckeq.invariant import NonIntegerPowerSum, content_power_sum, power_sums_from_eigenvalue
from heckeq.laurent import LaurentPoly, NotDivisible
from heckeq.suq import SuqIrrep, chevalley_weight, gz_patterns, irrep_from_casimir, lowering_squared
from heckeq.symgroup import (
    ClassVector,
    build_projector,
    character_table,
    characters_from_projector,
    single_cycle_class_sum,
)
from heckeq.traces import murphy_product_trace, simply_connected_trace

from conftest import F, Y


def _pattern():
    return gz_patterns(SuqIrrep.from_rows(3, (2, 1)))[0]


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

