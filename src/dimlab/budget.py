"""The cell budget: one cap on the work any single kernel call may do.

A kernel calls :func:`charge` with the cells it is about to allocate, or the
work items it is about to form, before it does so.  Each charge is checked on
its own against the current cap; charges do not add up across calls.  The cap
is 2^28 unless a :func:`limit` block sets another, which also covers every
call made inside it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import ResourceLimitError

DEFAULT_CELLS = 1 << 28

_cap: ContextVar[int] = ContextVar("dimlab_budget_cells", default=DEFAULT_CELLS)


@contextmanager
def limit(cells: int):
    """Cap every charge made inside the block at `cells`."""
    if cells < 0:
        raise ValueError(f"negative cell budget {cells}")
    token = _cap.set(cells)
    try:
        yield
    finally:
        _cap.reset(token)


def current_cap() -> int:
    """The cap the charges made here are checked against."""
    return _cap.get()


def charge(cells: int, what: str) -> None:
    """Raise ResourceLimitError if `what` needs more than the cap."""
    cap = _cap.get()
    if cells > cap:
        raise ResourceLimitError(f"{what} needs {cells} cells, budget is {cap}")
