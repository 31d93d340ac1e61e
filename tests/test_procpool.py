"""The fork-based worker plumbing behind the parallel shard executor.

:mod:`repro.common.procpool` backs the shard executor's long-lived
:class:`~repro.common.procpool.PersistentWorker` pipes. The promises
pinned here: persistent workers resolve replies in any await order; a
dead worker surfaces as :class:`~repro.common.procpool.WorkerCrashError`
rather than a hang; and fork-less hosts refuse to build a worker.
"""

from __future__ import annotations

import os

import pytest

from repro.common import procpool

needs_fork = pytest.mark.skipif(
    not procpool.fork_available(), reason="requires the fork start method"
)


def _square(value: int) -> int:
    return value * value


def _crash(_payload):
    os._exit(17)


# ----------------------------------------------------------------------
# PersistentWorker
# ----------------------------------------------------------------------

@needs_fork
class TestPersistentWorker:
    def test_round_trip_and_out_of_order_awaits(self):
        worker = procpool.PersistentWorker(_square, name="test-square")
        try:
            first = worker.submit(3)
            second = worker.submit(4)
            third = worker.submit(5)
            # replies buffer until their sequence number is awaited
            assert worker.result(third) == 25
            assert worker.result(first) == 9
            assert worker.result(second) == 16
            assert worker.call(6) == 36
            assert worker.alive
        finally:
            worker.close()
        assert not worker.alive

    def test_crash_surfaces_as_worker_crash_error(self):
        worker = procpool.PersistentWorker(_crash, name="test-crash")
        try:
            seq = worker.submit("boom")
            with pytest.raises(procpool.WorkerCrashError):
                worker.result(seq)
            assert not worker.alive
            with pytest.raises(procpool.WorkerCrashError):
                worker.submit("again")
        finally:
            worker.close()

    def test_close_is_idempotent(self):
        worker = procpool.PersistentWorker(_square, name="test-close")
        worker.close()
        worker.close()
        with pytest.raises(procpool.WorkerCrashError):
            worker.submit(1)


def test_persistent_worker_requires_fork(monkeypatch):
    monkeypatch.setattr(procpool, "fork_available", lambda: False)
    with pytest.raises(procpool.WorkerCrashError):
        procpool.PersistentWorker(_square)
