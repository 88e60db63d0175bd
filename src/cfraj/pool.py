"""Independent units of work, mapped over every core in order.

ordered_map(fn, items) is [fn(item) for item in items]: each result goes
to its item's slot, so callers that combine the results in a fixed
order (numpy's pairwise tree, for the nu leaf passes) get the bits of
the sequential loop whatever runs where. The calling thread takes items
too, beside _WORKERS - 1 pool threads, so at most _WORKERS threads are
runnable, one per core the process may use. The items go out in order,
one at a time; after one raises, no further item starts, and the error
of the first item that raised, in item order, is raised on the calling
thread, as the loop would raise it.

The pool, and concurrent.futures, are made on the first map of two or
more items; importing this module starts no thread. The work is numpy
on arrays, which releases the interpreter lock, so the threads run in
parallel. fn must not call ordered_map itself: a nested map could wait
on pool threads that are all waiting too.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable

# threads that take items, the caller among them: one per core the
# process may use
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

_executor = None
_executor_lock = threading.Lock()


def _pool():
    """The pool of _WORKERS - 1 threads, made on first use."""
    global _executor
    with _executor_lock:
        if _executor is None:
            from concurrent.futures import ThreadPoolExecutor

            _executor = ThreadPoolExecutor(_WORKERS - 1,
                                           thread_name_prefix="cfraj")
        return _executor


def ordered_map(fn: Callable, items: Iterable) -> list:
    """[fn(item) for item in items], on the calling thread and the pool."""
    items = list(items)
    helpers = min(_WORKERS, len(items)) - 1
    if helpers < 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = iter(range(len(items)))

    def take() -> None:
        while True:
            with lock:
                k = None if errors else next(taken, None)
            if k is None:
                return
            try:
                results[k] = fn(items[k])
            except BaseException as exc:  # re-raised by the caller
                with lock:
                    errors[k] = exc

    pool = _pool()
    futures = [pool.submit(take) for _ in range(helpers)]
    take()
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]
    return results
