"""Every value type of the package is a read-only `FrozenRecord`.

One row per type: no field can be assigned or deleted, and `copy`,
`deepcopy` and a `pickle` round trip each give an equal value.
"""

import copy
import pickle

import pytest

from heckeq.hecke_oracle import fundamental_invariant, hecke_projector, projector_element
from heckeq.suq import SuqIrrep, gz_patterns
from heckeq.symgroup import _transposition_lagrange, character_table, single_cycle_class_sum
from heckeq.traces import murphy_traces, simply_connected_trace

from conftest import F, P, Y

VALUES = {
    "YoungDiagram": lambda: Y(3, 1),
    "SuqIrrep": lambda: SuqIrrep(3, (2, 1, 0)),
    "GZPattern": lambda: gz_patterns(SuqIrrep.from_rows(3, (2, 1)))[0],
    "ProjectorPoly": lambda: hecke_projector(Y(2, 1), 2),
    "HeckeElement": lambda: fundamental_invariant(3, F(2)),
    "HeckeElement with a denominator": lambda: projector_element(hecke_projector(Y(2, 1), F(5, 3))),
    "LaurentPoly": lambda: P("3*q^2-q^-1+1/2"),
    "ClassVector": lambda: single_cycle_class_sum(4, 2) + F(1, 3),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
class TestValues:
    def test_fields_cannot_be_assigned_or_deleted(self, make):
        value = make()
        for name in type(value).__match_args__:
            field = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is field
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == make()

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal(self, make, duplicate):
        value = make()
        again = duplicate(value)
        assert type(again) is type(value) and again == value and repr(again) == repr(value)
        if type(value).__hash__ is not None:
            assert hash(again) == hash(value)


def test_cached_murphy_trace_keeps_its_terms():
    g = Y(3, 1)
    expected = simply_connected_trace(g, 4)
    trace = murphy_traces(g)[4]
    with pytest.raises(AttributeError):
        trace._terms = {}
    assert murphy_traces(g)[4] is trace
    assert simply_connected_trace(g, 4) == expected


def test_cached_lagrange_numerator_keeps_its_n():
    numerator, _ = _transposition_lagrange(4, 2)
    with pytest.raises(AttributeError):
        numerator._space = 5
    assert numerator.n == 4
    assert character_table(4, "projector") == character_table(4, "mn")
