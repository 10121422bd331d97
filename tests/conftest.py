import pytest

from singlet import fusion
from singlet.weights import Params


@pytest.fixture
def p2():
    return Params(2)


@pytest.fixture
def p3():
    return Params(3)


@pytest.fixture
def p5():
    return Params(5)


@pytest.fixture
def fresh_rows(monkeypatch):
    """Empty id tables and product cache for the test; afterwards the cache
    is emptied again and the old tables are back, so no row made during the
    test outlives it."""
    monkeypatch.setattr(fusion, "_TABLES", {})
    fusion._fuse_atoms.cache_clear()
    yield
    fusion._fuse_atoms.cache_clear()
