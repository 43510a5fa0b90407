"""Scheduling priorities for same-timestamp events.

Lower numeric value runs first. ``URGENT`` is used by the kernel for
bookkeeping that must precede user callbacks at the same instant (e.g. a
flow-rate recomputation before a dependent completion fires); ``NORMAL`` is
the default for user events.
"""

URGENT = 0
NORMAL = 1

__all__ = ["URGENT", "NORMAL"]
