"""Ordered map over independent items.

The coarse loops (verifier points, gauge samples, sequence members) go
through this one function, so they can be timed or replaced in one place.
"""


def parallel_map(fn, items):
    """[fn(item) for item in items], in order."""
    return [fn(it) for it in items]
