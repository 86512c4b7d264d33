import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def vertical_closures(monkeypatch):
    """The generator rows of every vertical closure made while the test
    runs, in call order: the calls of joint.closure that ForestAlgebra
    makes when V is first read."""
    from forestalg import algebra

    calls = []
    closure = algebra.closure

    def counted(starts, *args):
        if args[-1] == "vertical closure":
            calls.append(starts)
        return closure(starts, *args)

    monkeypatch.setattr(algebra, "closure", counted)
    return calls
