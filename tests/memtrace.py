"""Traced peak memory of a call, for the tests' memory budgets."""
import tracemalloc


def traced_peak(call):
    """The peak memory tracemalloc traces while `call()` runs, above what
    was allocated when it started."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
