"""The one place real time enters the system.

The engine's clock is *virtual* — every elapsed second a figure reports
is computed from the cost model, which is what makes parallel runs
byte-identical to serial ones.  Wall-clock reads exist only to describe
the run itself (stage timings, span durations, console progress), and
they all go through these two helpers.  Nothing read from this module
may influence a result: if a value derived from it ever feeds a cost,
a cache key, a seed or an ordering decision, determinism is gone
(``tests/mutants/rows.py`` names the check that catches each of the
first three).
"""

import time


def wall_time():
    """Seconds since the epoch (``time.time``) — timestamps only."""
    return time.time()


def perf_seconds():
    """A monotonic high-resolution reading (``time.perf_counter``).

    Differences of two readings give wall durations for stage timings
    and tracing spans.
    """
    return time.perf_counter()
