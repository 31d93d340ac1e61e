"""Fork-based worker-process plumbing for the parallel shard executor.

The parallel shard executor (:mod:`repro.shard.parallel`) keeps one
long-lived worker per shard serving command batches over a pipe. This
module holds that plumbing: start-method detection
(:func:`fork_available`) and the worker itself
(:class:`PersistentWorker`).

Everything is built on the ``fork`` start method on purpose: forked
children inherit the parent's live state (the ``fastpath``
configuration, fully-constructed shard deployments, the loaded GMP
engine) by copy-on-write, so no argument pickling or re-construction
happens at spawn time. Where ``fork`` is unavailable (non-POSIX
platforms), the executor degrades to its serial in-process path — same
bytes, no processes.

:class:`PersistentWorker` is one forked child running a request/reply
loop over a duplex pipe. Requests are sequence-numbered so replies can
be awaited out of submission order; a dead child surfaces as
:class:`WorkerCrashError` on the next send/receive, which callers treat
as their signal to fall back to serial execution.
"""

from __future__ import annotations

import gc
import multiprocessing
from typing import Any, Callable

from repro.common.errors import CloudMonattError


class WorkerCrashError(CloudMonattError):
    """A pool worker died (or never started) mid-conversation.

    Raised on the caller's side when a send or receive on a
    :class:`PersistentWorker` pipe fails; the worker is unusable
    afterwards and the caller is expected to degrade to its serial
    path.
    """


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this host."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def _worker_loop(conn, handler: Callable[[Any], Any]) -> None:
    """Child body: serve ``(seq, payload)`` requests until shutdown.

    A ``None`` message (or EOF) is the shutdown sentinel. Exceptions
    escaping the handler kill the loop — the parent sees the broken
    pipe as :class:`WorkerCrashError`, which is exactly the crash
    signal the fallback paths key on, so handlers that want to survive
    errors must catch them and encode failure in their reply.
    """
    if hasattr(gc, "freeze"):
        # protect the inherited copy-on-write pages from the collector
        gc.freeze()
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                break
            seq, payload = message
            conn.send((seq, handler(payload)))
    finally:
        conn.close()


class PersistentWorker:
    """One long-lived forked worker served over a duplex pipe.

    The handler callable is inherited by the child at fork time (no
    pickling), so it may close over arbitrarily heavy parent state —
    the shard executor hands it a whole deployment. Requests are
    sequence-numbered; :meth:`result` buffers out-of-order replies so
    several outstanding requests can be awaited in any order.
    """

    def __init__(self, handler: Callable[[Any], Any], name: str = "procpool"):
        if not fork_available():
            raise WorkerCrashError("fork start method unavailable")
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=True)
        self._conn = parent_conn
        self._process = context.Process(
            target=_worker_loop,
            args=(child_conn, handler),
            name=name,
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._next_seq = 0
        self._replies: dict[int, Any] = {}
        self._broken = False
        self._closed = False

    @property
    def alive(self) -> bool:
        """Whether the worker can still serve requests."""
        return (
            not self._closed
            and not self._broken
            and self._process.is_alive()
        )

    def submit(self, payload: Any) -> int:
        """Send one request; returns its sequence number."""
        if self._closed or self._broken:
            raise WorkerCrashError("worker is closed")
        seq = self._next_seq
        self._next_seq += 1
        try:
            self._conn.send((seq, payload))
        except (BrokenPipeError, OSError) as exc:
            self._broken = True
            raise WorkerCrashError(f"worker pipe broken: {exc}") from exc
        return seq

    def result(self, seq: int) -> Any:
        """Await the reply for one sequence number (any await order)."""
        if seq in self._replies:
            return self._replies.pop(seq)
        if self._closed or self._broken:
            raise WorkerCrashError("worker is closed")
        while seq not in self._replies:
            try:
                got_seq, reply = self._conn.recv()
            except (EOFError, OSError) as exc:
                self._broken = True
                raise WorkerCrashError(
                    f"worker died awaiting reply {seq}: {exc or 'EOF'}"
                ) from exc
            self._replies[got_seq] = reply
        return self._replies.pop(seq)

    def call(self, payload: Any) -> Any:
        """Round-trip one request synchronously."""
        return self.result(self.submit(payload))

    def close(self, timeout: float = 5.0) -> None:
        """Shut the worker down (sentinel, then terminate if needed)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.send(None)
        except Exception:
            pass
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout)
        try:
            self._conn.close()
        except Exception:
            pass
