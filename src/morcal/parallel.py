"""Run one function over a list of items in worker processes.

``ordered_map`` is how ``generate`` spreads its per-load snapshot writes:
one task per item, up to one worker per usable CPU, results in
submission order.  Workers receive everything through the task's
arguments, so the function and its arguments must pickle, and the pool
works under every multiprocessing start method.  It uses the platform's
default: on Linux that is ``fork``, whose workers start in milliseconds,
where ``spawn`` would spend ~0.3 s per worker importing NumPy again.  The
executor forks its workers before it starts any thread of its own.
"""

import os
import sys


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def ordered_map(fn, items):
    """Yield ``fn(item)`` for each item, in order, computed in worker processes.

    A task that raises re-raises its exception here when its turn comes;
    tasks not yet started are then cancelled.  The pool is shut down when
    the generator finishes or is closed.
    """
    items = list(items)
    if not items:
        return
    # Imported here: the pool machinery costs ~1 MB in commands that never use it.
    from concurrent.futures import ProcessPoolExecutor

    # Text still buffered here would be written again by every forked worker
    # (multiprocessing flushes too, but only as an implementation detail).
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(max_workers=min(len(items), usable_cpus()))
    try:
        futures = [pool.submit(fn, item) for item in items]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)
