"""Value semantics of the label, parameter and result classes: equality within
a class only, the hash of the field tuple, the exact repr, immutability, and
pickle and deepcopy round trips."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import singlet
from singlet.characters import QSeries
from singlet.checks import SuiteResult
from singlet.modules import CoordLabel, FockAtypical, FockTypical, GenVerma, MSimple, PairLabel, Proj
from singlet.orbifold import OrbifoldParams, RProj, VTypical, WSimple
from singlet.weights import Params, UnitPhase, Value

PAIR_LABELS = (MSimple, Proj, FockAtypical, GenVerma, WSimple, RProj)

# (value, its fields in constructor order, its exact repr)
VALUES = [
    *[(cls(1, 2), {"r": 1, "s": 2}, f"{cls.__name__}(r=1, s=2)") for cls in PAIR_LABELS],
    (MSimple(-3, 1), {"r": -3, "s": 1}, "MSimple(r=-3, s=1)"),
    (FockTypical(Fraction(1, 2)), {"q": Fraction(1, 2)}, "FockTypical(q=Fraction(1, 2))"),
    (VTypical(Fraction(-5, 6)), {"q": Fraction(-5, 6)}, "VTypical(q=Fraction(-5, 6))"),
    (Params(3), {"p": 3}, "Params(p=3)"),
    (UnitPhase(Fraction(5, 4)), {"exponent": Fraction(1, 4)}, "UnitPhase(1/4)"),
    (OrbifoldParams(2, 3), {"p": 2, "m": 3}, "OrbifoldParams(p=2, m=3)"),
    (QSeries(Fraction(1, 3), (1, 0, 2)), {"h0": Fraction(1, 3), "coeffs": (1, 0, 2)},
     "QSeries(h0=Fraction(1, 3), coeffs=(1, 0, 2))"),
]


@pytest.mark.parametrize("value, fields, text", VALUES, ids=[v[2] for v in VALUES])
def test_value_semantics(value, fields, text):
    cls, args = type(value), tuple(fields.values())
    assert tuple(getattr(value, name) for name in fields) == args
    twin = cls(*args)
    assert twin == value and not twin != value
    assert hash(value) == hash(twin) == hash(args)
    assert repr(value) == text
    # Equal only within the class: not to its field tuple, nor to a value of
    # another class with equal fields.
    assert value != args
    for other, other_fields, _ in VALUES:
        if type(other) is not cls and tuple(other_fields.values()) == args:
            assert value != other
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == args
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is cls
        assert clone == value and hash(clone) == hash(value)


def test_pair_labels_are_equal_only_within_a_class():
    for a in PAIR_LABELS:
        for b in PAIR_LABELS:
            assert (a(1, 2) == b(1, 2)) is (a is b)
    assert MSimple(1, 2) != Proj(1, 2)
    assert FockTypical(Fraction(1, 2)) != VTypical(Fraction(1, 2))


def test_orbifold_params_equality_ignores_singlet_and_images():
    a, b = OrbifoldParams(2, 3), OrbifoldParams(2, 3)
    b.images[MSimple(1, 1)] = WSimple(1, 1)
    assert a == b and hash(a) == hash(b) == hash((2, 3))
    assert a.singlet == b.singlet == Params(2)
    assert a != OrbifoldParams(2, 4)
    clone = pickle.loads(pickle.dumps(b))
    assert clone == b and clone.singlet == Params(2)


def test_suite_results_own_their_failures():
    a, b = SuiteResult("s"), SuiteResult("s")
    assert a == b and a.failures is not b.failures
    a.check(False, "case {}", MSimple(1, 1))
    assert (a.cases, a.failures, b.failures) == (1, ["case M(1,1)"], [])
    assert a != b
    assert repr(a) == "SuiteResult(name='s', cases=1, failures=['case M(1,1)'])"
    with pytest.raises(TypeError):
        hash(a)
    for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert clone == a and clone.failures is not a.failures


def _value_classes():
    """Every subclass of Value defined in the package, after importing each
    of its modules."""
    for info in pkgutil.iter_modules(singlet.__path__, "singlet."):
        importlib.import_module(info.name)
    found, todo = [], [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("singlet."):
                found.append(sub)
                todo.append(sub)
    return found


def test_every_value_class_has_a_semantics_case():
    # A class with subclasses of its own (PairLabel) is a base, not a value.
    concrete = {cls for cls in _value_classes() if not cls.__subclasses__()}
    assert concrete == {type(value) for value, _, _ in VALUES}


def test_value_rule_is_stated_once():
    """Only the two label shapes, hashed on every product, restate equality
    and hash, and only UnitPhase has a repr of its own."""
    defining = lambda name: {cls for cls in _value_classes() if name in vars(cls)}
    assert defining("__eq__") == defining("__hash__") == {PairLabel, CoordLabel}
    assert defining("__repr__") == {UnitPhase}
    assert not defining("__reduce__")
