"""Tests for the order-preserving batch executor."""

import threading

import pytest

from repro.service.executor import BatchExecutor


class TestMap:
    def test_order_preserved(self):
        items = list(range(100))
        results = BatchExecutor().map(lambda x: x * x, items)
        assert results == [x * x for x in items]

    def test_empty_and_single(self):
        executor = BatchExecutor()
        assert executor.map(lambda x: x, []) == []
        assert executor.map(lambda x: x + 1, [41]) == [42]

    def test_members_run_in_the_calling_thread(self):
        thread_names = BatchExecutor().map(
            lambda _: threading.current_thread().name, range(8)
        )
        assert thread_names == [threading.current_thread().name] * 8

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError(f"boom {x}")

        with pytest.raises(RuntimeError, match="boom"):
            BatchExecutor().map(boom, range(8))
