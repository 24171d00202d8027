import sys
import threading

import pytest

from dpicl_audit import parallel
from dpicl_audit.parallel import map_in_order


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_results_in_item_order(workers):
    assert map_in_order(lambda x: x * x, range(50), workers) == [x * x for x in range(50)]


def test_first_failure_in_order_raises_after_every_item_ran():
    ran = []
    lock = threading.Lock()

    def fn(item):
        with lock:
            ran.append(item)
        if item in (3, 7):
            raise KeyError(item)
        return item

    with pytest.raises(KeyError) as info:
        map_in_order(fn, range(10), 3)
    assert info.value.args == (3,)
    assert sorted(ran) == list(range(10))


def test_threads_outlive_the_call():
    # the same pool threads serve every call with one worker count
    def ident(_):
        return threading.get_ident()

    seen = set(map_in_order(ident, range(40), 2)) | set(map_in_order(ident, range(40), 2))
    assert len(seen) <= 2
    assert threading.get_ident() not in seen


def test_concurrent_callers_share_one_pool_per_worker_count():
    # more callers and workers than cores, switching threads often: each
    # caller gets its own results, and every caller the same pool
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results, pools = {}, set()

        def caller(k):
            pools.add(id(parallel._pool(3)))
            results[k] = map_in_order(lambda x: (k, x), range(200), 3)

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {k: [(k, x) for x in range(200)] for k in range(8)}
    assert len(pools) == 1
