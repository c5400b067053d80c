import sys

import pytest


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    """No test, and so no library call it makes, may leave the
    interpreter's recursion limit changed."""
    before = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == before
