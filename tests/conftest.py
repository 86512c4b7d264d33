import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def vertical_closures(monkeypatch):
    """The argument tuples of every algebra.close_vertical call made while
    the test runs, in call order."""
    from forestalg import algebra

    calls = []
    close_vertical = algebra.close_vertical

    def counted(*args, **kwargs):
        calls.append(args)
        return close_vertical(*args, **kwargs)

    monkeypatch.setattr(algebra, "close_vertical", counted)
    return calls
