"""A catalogue of planted faults: the failing cases of every check suite at
p = 3 under each, so that a change in what the suites catch together shows
in the diff.

Each rule fault respects the simple current J = M(2,1): its condition
tests s, the species or q mod p, never r.  ``fuse`` computes one row per
J-orbit of label pairs and moves it to the others, so a fault planted at
one pair would be either never run or copied along its orbit.  Rows are
reset with ``_fuse_atoms.cache_clear()`` alone, before the fault is planted
and after it is undone: the id tables hold no row.

Each rule fault is one ``setitem`` on ``fusion._CLOSED_FORMS``.  ``fuse``
and the recursion oracle both take a pair in canonical species order, and
the oracle reaches the one rule it does not derive, F x F, only through
that table, so the fault reaches both derivations, as a real bug in the
rule would: an ``oracle`` failure is a true catch.

The ``_layers`` fault (P's middle layer loses a label) is pinned across
every suite by ``test_checks.py``, where it makes ``kring`` raise."""

import pytest

from singlet import modules
from singlet.checks import SUITE_NAMES, run_suites
from singlet.fusion import _fuse_atoms
from singlet.modules import FockAtypical, MSimple, Proj
from singlet.weights import Params

from helpers import wrong_ff_drop_s2, wrong_ff_flank, wrong_m12_m12, wrong_p02_f13


def dual_identity(monkeypatch):
    """Plant a fault: ``dual_atom`` is the identity on M, P and Fa."""
    dual_atom = modules.dual_atom

    def wrong(params, atom):
        if isinstance(atom, (MSimple, Proj, FockAtypical)):
            return atom
        return dual_atom(params, atom)

    monkeypatch.setattr(modules, "dual_atom", wrong)


def _failures(**caught):
    """Failing cases of every result of ``check --suite all`` at p = 3."""
    names = [n for n in SUITE_NAMES if n != "orbifold"] + ["orbifold(m=1)", "orbifold(m=2)"]
    return {name: caught.get(name.partition("(")[0], 0) for name in names}


# Fault -> its plant and the failing cases of each suite at p = 3.  No fault
# fails ``grading``.  ``orbifold`` misses every rule fault: induction
# identifies labels J^(2m) apart, so its functoriality cases cannot see a
# fault that commutes with J.  Only ``duality`` sees the dual fault; a
# suite of Hom adjunctions (rigidity) would be a second.
FAULTS = {
    "M(r,2) x M(r2,2) drops M(R,3)": (
        wrong_m12_m12,
        _failures(associativity=1368, kring=160, oracle=36),
    ),
    "F(q) x P(r,2), q = 1/3 mod 3, drops its largest label": (
        wrong_p02_f13,
        _failures(associativity=824, kring=8, duality=8, oracle=8),
    ),
    "F(q) x F(q2) on the coset, s = 2, drops its largest label": (
        wrong_ff_drop_s2,
        _failures(associativity=248, duality=5, oracle=1),
    ),
    "F(q) x F(q2) on the coset puts P(r-1,.) at P(r+1,.)": (
        wrong_ff_flank,
        _failures(associativity=250, duality=5, oracle=4),
    ),
    "dual_atom is the identity on M, P and Fa": (
        dual_identity,
        _failures(duality=216),
    ),
}


@pytest.fixture
def planted(monkeypatch):
    """``monkeypatch``, with the product cache emptied before the test and
    again once its patches are undone, so no row outlives the fault and no
    row made before it is read under it."""
    _fuse_atoms.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    _fuse_atoms.cache_clear()


@pytest.mark.parametrize("fault", FAULTS)
def test_each_planted_fault_fails_its_pinned_suites(planted, fault):
    plant, failures = FAULTS[fault]
    plant(planted)
    results = run_suites(SUITE_NAMES, Params(3))
    assert {res.name: len(res.failures) for res in results} == failures
    caught = [name for name, count in failures.items() if count]
    assert len(caught) >= (1 if plant is dual_identity else 2)
