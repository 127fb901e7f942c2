"""The value contract of the six frozen value types.

Each is compared, hashed and printed field by field, refuses assignment and
deletion, and can be built by keyword with the same defaults.  Equal values
built from new objects are interchangeable as lru_cache keys.
"""

from fractions import Fraction

import pytest

from thetatrace import modular
from thetatrace.cli import RunConfig
from thetatrace.lattice import EvenLattice
from thetatrace.modular import UnimodularMatrix, decompose_ST
from thetatrace.qseries import BiSeries, TruncatedSeries
from thetatrace.trace import TracePoint


def _a2():
    return EvenLattice(((2, -1), (-1, 2)), "a2")


# (builder of a fresh value, its fields in order, keyword arguments that build an equal value)
CASES = {
    "EvenLattice": (
        _a2,
        (((2, -1), (-1, 2)), "a2"),
        {"gram": [[2, -1], [-1, 2]], "name": "a2"},
    ),
    "TracePoint": (
        lambda: TracePoint((1, 2j), (0.5, -1), 1j),
        ((1 + 0j, 2j), (0.5 + 0j, -1 + 0j), 1j),
        {"a": [1, 2j], "b": [0.5, -1], "tau": 1j},
    ),
    "UnimodularMatrix": (
        lambda: UnimodularMatrix(2, 1, 1, 1),
        (2, 1, 1, 1),
        {"a": 2, "b": 1, "f": 1, "d": 1},
    ),
    "RunConfig": (
        lambda: RunConfig(_a2(), "lattices/a2.json", 7),
        (_a2(), "lattices/a2.json", 7),
        {"lattice": _a2(), "lattice_label": "lattices/a2.json", "seed": 7},
    ),
    "TruncatedSeries": (
        lambda: TruncatedSeries(2, {-1: 1, 0: 0, 3: 2.5, 9: 4}, 4),
        (2, {-1: 1 + 0j, 3: 2.5 + 0j}, 4),
        {"denom": 2, "coeffs": {3: 2.5, -1: 1}, "guaranteed_order": 4},
    ),
    "BiSeries": (
        lambda: BiSeries(-1, 1, 3, {(0, 1): 2, (2, 0): 1, (1, 5): 1}, 2),
        (-1, 1, 3, {(0, 1): 2 + 0j}, 2),
        {"x_min": -1, "x_max": 1, "q_order": 3, "coeffs": {(0, 1): 2}, "q_denom": 2},
    ),
}
HASHABLE = ("EvenLattice", "TracePoint", "UnimodularMatrix", "RunConfig")
FIELDS = {
    "EvenLattice": ("gram", "name"),
    "TracePoint": ("a", "b", "tau"),
    "UnimodularMatrix": ("a", "b", "f", "d"),
    "RunConfig": ("lattice", "lattice_label", "seed"),
    "TruncatedSeries": ("denom", "coeffs", "guaranteed_order"),
    "BiSeries": ("x_min", "x_max", "q_order", "coeffs", "q_denom"),
}


@pytest.mark.parametrize("name", CASES)
def test_values_compare_field_by_field(name):
    build, fields, kwargs = CASES[name]
    x = build()
    assert tuple(getattr(x, f) for f in FIELDS[name]) == fields
    assert x == build() and not x != build()
    assert x == type(x)(**kwargs)
    # a tuple of the same values is another class, so never equal
    assert x != fields and not x == fields
    assert x.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("name", HASHABLE)
def test_values_hash_as_the_tuple_of_their_fields(name):
    build, fields, _ = CASES[name]
    assert hash(build()) == hash(fields)
    assert len({build(), build()}) == 1


@pytest.mark.parametrize("name", ["TruncatedSeries", "BiSeries"])
def test_series_are_unhashable_as_their_coefficient_dicts(name):
    with pytest.raises(TypeError):
        hash(CASES[name][0]())


@pytest.mark.parametrize("name", CASES)
def test_values_refuse_assignment_and_deletion(name):
    x = CASES[name][0]()
    for f in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == CASES[name][0]()


def test_values_take_their_defaults():
    assert EvenLattice(((2,),)).name == ""
    assert RunConfig(EvenLattice(((4,),)), "builtin").seed == 0
    a, b = BiSeries(0, 1, 3), BiSeries(0, 1, 3)
    assert a.coeffs == {} and a.q_denom == 1
    assert a.coeffs is not b.coeffs


def test_values_print_their_fields():
    assert repr(_a2()) == "EvenLattice(gram=((2, -1), (-1, 2)), name='a2')"
    assert repr(TracePoint((1,), (2j,), 1j)) == "TracePoint(a=((1+0j),), b=(2j,), tau=1j)"
    assert repr(UnimodularMatrix(1, 1, 0, 1)) == "UnimodularMatrix(a=1, b=1, f=0, d=1)"
    assert repr(RunConfig(EvenLattice(((4,),)), "builtin-norm4")) == (
        "RunConfig(lattice=EvenLattice(gram=((4,),), name=''), "
        "lattice_label='builtin-norm4', seed=0)"
    )
    # the two series print a summary, not their coefficients
    assert repr(CASES["TruncatedSeries"][0]()) == (
        "TruncatedSeries(denom=2, 2 terms, guaranteed_order=4)"
    )
    assert repr(CASES["BiSeries"][0]()) == "BiSeries(x in [-1,1], q_order=3/2, 1 terms)"


def test_fit_alpha_hits_its_cache_for_equal_values_built_anew():
    first = modular.fit_alpha(EvenLattice(((4,),)), UnimodularMatrix(1, 1, 0, 1), 5)
    hits = modular.fit_alpha.cache_info().hits
    again = modular.fit_alpha(EvenLattice([[4]]), UnimodularMatrix(1, 1, 0, 1), 5)
    assert modular.fit_alpha.cache_info().hits == hits + 1
    assert again is first


@pytest.mark.parametrize("entries", [(1.0, 3.0, 0, 1.0), (Fraction(1), 3, Fraction(0), 1)])
def test_unimodular_matrix_stores_integral_entries_as_ints(entries):
    m = UnimodularMatrix(*entries)
    assert all(type(x) is int for x in (m.a, m.b, m.f, m.d))
    assert m == UnimodularMatrix(1, 3, 0, 1)
    assert decompose_ST(m) == decompose_ST(UnimodularMatrix(1, 3, 0, 1))


def test_unimodular_matrix_refuses_a_fractional_entry():
    with pytest.raises(ValueError, match="entries must be integers"):
        UnimodularMatrix(1, 0.5, 0, 1)
