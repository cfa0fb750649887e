"""The cell budget: per-call charges against a scoped limit."""

import pytest

from dimlab import ResourceLimitError
from dimlab.budget import DEFAULT_CELLS, charge, limit


def test_default_cap_is_inclusive():
    charge(DEFAULT_CELLS, "at the cap")
    with pytest.raises(ResourceLimitError):
        charge(DEFAULT_CELLS + 1, "past the cap")


def test_limit_nests_and_restores():
    with limit(10):
        charge(10, "inside")
        with pytest.raises(ResourceLimitError), limit(0):
            charge(1, "nested")
        charge(10, "restored after the nested block raised")
        with limit(1 << 40):
            charge(1 << 30, "raised above the default")
    with pytest.raises(ResourceLimitError):
        charge(1 << 30, "default again")
