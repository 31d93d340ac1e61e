"""Protocol-leg tracing over the simulated clock.

A :class:`Tracer` produces nested :class:`Span` records keyed to the
attestation protocol of paper Fig. 3. The span taxonomy names each hop
of the message flow:

- ``protocol.q1.customer_controller`` — the customer's request to the
  Cloud Controller and the verification of the Q1-quoted report;
- ``protocol.q2.controller_as`` — the controller's brokered call to the
  Attestation Server (nonce N2, quote Q2);
- ``protocol.q3.as_server`` — the Attestation Server's measurement
  round against the cloud server (nonce N3, quote Q3);
- ``as.appraisal`` / ``as.interpretation`` / ``as.certification`` —
  the server-side phases of one attestation round;
- ``controller.launch`` and ``controller.launch.<stage>`` — the
  five-stage VM launch pipeline of §7.1.1;
- ``controller.response.<action>`` — remediation (Fig. 11);
- ``channel.handshake`` — secure-channel establishment.

Spans nest through the tracer's active-span stack, and *also* carry an
explicit parent taken from the protocol message when one is attached:
each request embeds :func:`Tracer.context` under the reserved
``"_trace"`` message key, and the receiving entity opens its span with
``remote_parent=body.get(KEY_TRACE)``. In this single-process
simulation both mechanisms agree; the explicit propagation is what
keeps the trace connected if entities ever run with separate tracers.

On top of span nesting the tracer keeps a **round stack**: when an
attestation round is minted (flight recorder), its ``round_id`` is
pushed via :meth:`Tracer.round_scope` for the duration of the round's
synchronous call graph, and every span opened inside the scope — and
every observatory event published inside it — is tagged with the id.
Batch legs serve several rounds at once, so a scope holds a *tuple* of
ids and shared legs are tagged ``round_ids`` instead of ``round_id``.
Round context also rides inside :meth:`context` (``"rounds"``), so the
tagging survives entities with separate tracers the same way parent
attribution does.

Span ids are sequence numbers and times come from the injected clock
(the discrete-event engine), so traces are reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

#: Reserved message-body key carrying span context between entities.
KEY_TRACE = "_trace"

#: Reserved message-body key carrying the originating round id, so a
#: receiver can adopt the sender's flight-recorder round (KEY_TRACE's
#: sibling: KEY_TRACE joins spans, KEY_ROUND joins rounds).
KEY_ROUND = "_round"

# span taxonomy: the Fig. 3 protocol legs
SPAN_Q1 = "protocol.q1.customer_controller"
SPAN_Q2 = "protocol.q2.controller_as"
SPAN_Q3 = "protocol.q3.as_server"
SPAN_APPRAISAL = "as.appraisal"
SPAN_INTERPRETATION = "as.interpretation"
SPAN_CERTIFICATION = "as.certification"
SPAN_ATTEST_ROUND = "as.attest_round"
SPAN_MEASURE = "server.measure"
SPAN_LAUNCH = "controller.launch"
SPAN_LAUNCH_STAGE_PREFIX = "controller.launch."
SPAN_CONTROLLER_ATTEST = "controller.attest"
SPAN_RESPONSE_PREFIX = "controller.response."
SPAN_HANDSHAKE = "channel.handshake"

#: The legs a quickstart-style attested run must cover (CLI + tests).
PROTOCOL_LEG_SPANS = (
    SPAN_Q1, SPAN_Q2, SPAN_Q3, SPAN_APPRAISAL, SPAN_INTERPRETATION,
)


def span_names(**columns: list) -> dict:
    """Span attributes naming what one protocol request covers.

    Each keyword holds one value per request entry. A one-entry request
    names its value, so a lone round's spans name its VM; a larger one
    reads ``batch:<n>`` for ``vid`` and ``*`` for everything else.
    """
    return {
        name: str(values[0]) if len(values) == 1
        else f"batch:{len(values)}" if name == "vid" else "*"
        for name, values in columns.items()
    }


@dataclass
class Span:
    """One timed operation, possibly nested under a parent."""

    span_id: int
    name: str
    start_ms: float
    parent_id: Optional[int] = None
    end_ms: Optional[float] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        """Span duration in simulated ms (0 while still open)."""
        return 0.0 if self.end_ms is None else self.end_ms - self.start_ms

    def to_dict(self) -> dict:
        """JSON-encodable form (exporters)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }


class _ActiveSpan:
    """Context manager binding one span to the tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        self._tracer._finish(self.span)


class _NullSpan:
    """Shared no-op context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _RoundScope:
    """Context manager pushing one tuple of round ids onto the tracer."""

    __slots__ = ("_tracer", "_rounds")

    def __init__(self, tracer: "Tracer", rounds: tuple):
        self._tracer = tracer
        self._rounds = rounds

    def __enter__(self) -> tuple:
        self._tracer._round_stack.append(self._rounds)
        return self._rounds

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._round_stack.pop()


class _RoundIsolation:
    """Stashes the round stack while the engine runs unrelated work.

    Backoff waits (``engine.run_until``) fire whatever callbacks are
    due — policy ticks, pipeline drains — *inside* the waiting round's
    Python stack. Without isolation those unrelated spans and events
    would inherit the waiter's round id.
    """

    __slots__ = ("_tracer", "_stash")

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer
        self._stash: list = []

    def __enter__(self) -> None:
        self._stash = self._tracer._round_stack
        self._tracer._round_stack = []
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._round_stack = self._stash


class Tracer:
    """Creates, nests, and collects spans.

    ``clock`` is any zero-argument callable returning the current time
    in ms — in practice ``lambda: engine.now``. A disabled tracer's
    :meth:`span` returns a shared no-op context manager, so hot paths
    pay one attribute check and nothing else.
    """

    def __init__(self, clock: Callable[[], float], enabled: bool = True):
        self._clock = clock
        self.enabled = enabled
        self._next_id = 1
        self._stack: list[Span] = []
        #: active round scopes (flight recorder); each entry is a tuple
        #: of round ids — singleton for a plain round, several for a
        #: batch leg serving many rounds at once
        self._round_stack: list[tuple] = []
        #: finished spans, in completion order
        self.finished: list[Span] = []
        #: called with each span as it finishes (the observatory's
        #: trace-store and SLO rules subscribe here)
        self._listeners: list[Callable[[Span], None]] = []

    def add_listener(self, listener: Callable[[Span], None]) -> None:
        """Subscribe to finished spans (called in completion order)."""
        self._listeners.append(listener)

    def span(
        self, name: str, remote_parent: Optional[dict] = None, **attrs: object
    ):
        """Open a nested span as a context manager.

        ``remote_parent`` is a context dict previously produced by
        :meth:`context` and carried inside a protocol message; when
        given it overrides the local stack for parent attribution.
        """
        if not self.enabled:
            return _NULL_SPAN
        if remote_parent is not None:
            parent_id = remote_parent.get("span")
        elif self._stack:
            parent_id = self._stack[-1].span_id
        else:
            parent_id = None
        span_attrs = dict(attrs)
        if self._round_stack:
            rounds = self._round_stack[-1]
        elif remote_parent is not None:
            rounds = tuple(remote_parent.get("rounds") or ())
        else:
            rounds = ()
        if rounds and "round_id" not in span_attrs and "round_ids" not in span_attrs:
            if len(rounds) == 1:
                span_attrs["round_id"] = rounds[0]
            else:
                span_attrs["round_ids"] = list(rounds)
        span = Span(
            span_id=self._next_id,
            name=name,
            start_ms=self._clock(),
            parent_id=parent_id,
            attrs=span_attrs,
        )
        self._next_id += 1
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def round_scope(self, *round_ids: Optional[str]):
        """Tag everything inside the scope with the given round ids.

        ``None`` entries are dropped (a disabled hub mints ``None``), and
        an effectively-empty scope returns the shared no-op manager, so
        un-tracked paths pay a tuple build and nothing else.
        """
        rounds = tuple(rid for rid in round_ids if rid)
        if not self.enabled or not rounds:
            return _NULL_SPAN
        return _RoundScope(self, rounds)

    def isolate_rounds(self):
        """Suspend all round scopes while unrelated engine work runs."""
        if not self.enabled:
            return _NULL_SPAN
        return _RoundIsolation(self)

    def current_rounds(self) -> tuple:
        """Round ids of the innermost active scope (empty when none)."""
        return self._round_stack[-1] if self._round_stack else ()

    def _finish(self, span: Span) -> None:
        span.end_ms = self._clock()
        # unwind to the finished span: an exception may have skipped
        # inner __exit__ calls, and those orphans must not leak
        while self._stack:
            popped = self._stack.pop()
            if popped is span:
                break
        self.finished.append(span)
        for listener in self._listeners:
            listener(span)

    def context(self) -> Optional[dict]:
        """Span context to embed into an outgoing protocol message."""
        if not self.enabled or not self._stack:
            return None
        ctx: dict = {"span": self._stack[-1].span_id}
        if self._round_stack:
            ctx["rounds"] = list(self._round_stack[-1])
        return ctx

    def spans_named(self, name: str) -> list[Span]:
        """Finished spans with the given taxonomy name."""
        return [span for span in self.finished if span.name == name]

    def children_of(self, span: Span) -> list[Span]:
        """Finished spans directly nested under ``span``."""
        return [s for s in self.finished if s.parent_id == span.span_id]

    def summary(self) -> dict[str, dict]:
        """Per-name aggregate: count, total/mean/p50/p95/max duration.

        This is the per-leg latency breakdown the console exporter and
        the bench tables render.
        """
        by_name: dict[str, list[float]] = {}
        for span in self.finished:
            by_name.setdefault(span.name, []).append(span.duration_ms)
        result: dict[str, dict] = {}
        for name in sorted(by_name):
            durations = sorted(by_name[name])
            count = len(durations)
            result[name] = {
                "count": count,
                "total_ms": sum(durations),
                "mean_ms": sum(durations) / count,
                "p50_ms": durations[min(count // 2, count - 1)],
                "p95_ms": durations[min(int(0.95 * count), count - 1)],
                "max_ms": durations[-1],
            }
        return result
