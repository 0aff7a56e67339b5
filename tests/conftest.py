from collections import Counter

import pytest

from dp5brauer import fibers, model


@pytest.fixture(scope="session")
def m11():
    return model.fixture("zeta11plus")


@pytest.fixture(scope="session")
def m25():
    return model.fixture("zeta25")


@pytest.fixture(scope="session")
def built11(m11):
    # one rebuild shared by every test that compares against the fixture
    return model.build_model(m11.spec)


@pytest.fixture
def fiber_solves(monkeypatch):
    """Counter of the uncached fiber solves per (quadrics, p), started on an
    emptied request cache, which is emptied again afterwards."""
    solves, solve = Counter(), fibers._solved_fiber

    def counting(vectors, p):
        solves[vectors, p] += 1
        return solve(vectors, p)

    monkeypatch.setattr(fibers, "_solved_fiber", counting)
    fibers._FIBER_CACHE.clear()
    yield solves
    fibers._FIBER_CACHE.clear()
