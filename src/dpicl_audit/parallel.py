"""Worker threads shared by the package's parallel stages.

``collect`` queries live oracles and ``bootstrap_audit`` runs its trial
blocks through ``map_in_order``. The threads of each worker count are started
once and then serve every call for the life of the process. A pool started
and shut down per call lets its threads start while the previous pool's
threads, already joined, have not yet released their malloc arenas; glibc
then opens one more arena, whose heap stays resident, and the process's peak
RSS steps up by the new arena's high-water mark, a few of the audit's
chunks of released scores, each time that happens.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        if workers not in _pools:
            _pools[workers] = ThreadPoolExecutor(max_workers=workers,
                                                 thread_name_prefix=f"dpicl-audit-{workers}")
        return _pools[workers]


def map_in_order(fn: Callable, items: Iterable, workers: int) -> list:
    """``fn`` over ``items``, results in order; on ``workers`` threads when
    more than one. Every call has finished when this returns or raises; the
    exception raised is that of the first failed item in order."""
    if workers == 1:
        return [fn(item) for item in items]
    pool = _pool(workers)
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    return [future.result() for future in futures]
