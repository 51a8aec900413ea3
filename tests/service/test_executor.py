"""Tests for the order-preserving batch executor."""

import threading

import pytest

from repro.service.executor import BatchExecutor


@pytest.fixture()
def pooled():
    """A pool-mode executor factory whose pools are released afterwards."""
    made = []

    def make(max_workers):
        made.append(BatchExecutor(max_workers))
        return made[-1]

    yield make
    for executor in made:
        executor.shutdown()


class TestMap:
    def test_order_preserved(self, pooled):
        items = list(range(100))
        results = pooled(8).map(lambda x: x * x, items)
        assert results == [x * x for x in items]

    def test_empty_and_single(self, pooled):
        executor = pooled(4)
        assert executor.map(lambda x: x, []) == []
        assert executor.map(lambda x: x + 1, [41]) == [42]
        assert executor._pool is None                # both ran serially

    def test_actually_concurrent(self, pooled):
        # Two tasks that each block until the other has started can only
        # finish if they run on distinct threads.
        barrier = threading.Barrier(2, timeout=5)
        results = pooled(2).map(lambda _: barrier.wait() is not None, [0, 1])
        assert results == [True, True]

    def test_serial_with_one_worker(self):
        executor = BatchExecutor(max_workers=1)
        thread_names = executor.map(
            lambda _: threading.current_thread().name, range(8)
        )
        assert thread_names == [threading.current_thread().name] * 8
        assert executor._pool is None

    def test_exception_propagates(self, pooled):
        def boom(x):
            raise RuntimeError(f"boom {x}")

        with pytest.raises(RuntimeError, match="boom"):
            pooled(4).map(boom, range(8))

    def test_a_pool_shut_down_under_it_is_replaced(self, pooled):
        # shutdown() racing a straggler batch: the pool the executor
        # still holds rejects new work, and map takes a fresh one.
        executor = pooled(2)
        assert executor.map(lambda x: x + 1, [1, 2]) == [2, 3]
        executor._pool.shutdown()
        assert executor.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            BatchExecutor(max_workers=0)

    def test_pool_reused_across_calls(self):
        executor = BatchExecutor(max_workers=2)
        try:
            assert executor.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
            pool = executor._pool
            assert pool is not None
            assert executor.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
            assert executor._pool is pool            # same pool, no churn
        finally:
            executor.shutdown()
        assert executor._pool is None
        executor.shutdown()                          # idempotent
