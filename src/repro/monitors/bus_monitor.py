"""Memory-bus monitoring: the second covert-channel source.

The paper's §4.4.3: "This is only one type of covert channel and other
types of covert channels can also be monitored (with more Trust
Evidence Registers and mechanisms)." The memory bus is the canonical
second source (locked vs unlocked bus transactions, Wu et al. [44]):
atomic operations lock the bus and stall every other core, so a sender
can signal *across cores* by modulating its rate of locked operations —
invisible to the CPU-interval monitor, since its CPU usage stays
uniform.

Two instruments:

- :class:`BusLockHistogram` — the defender's monitor: a histogram of
  the lock rates a watched VM exhibits across its run time, binned into
  Trust Evidence Registers. A bus covert channel alternates between
  silent and high-rate phases, giving a bimodal rate distribution; a
  benign memory-heavy service shows one steady-rate peak.
- :class:`BusLatencyProbe` — the attacker's receiver: samples the
  memory latency inflation its domain experiences from *other* cores'
  locked operations, recovering the sender's modulation cross-core.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import StateError
from repro.common.identifiers import VmId
from repro.tpm.trust_module import TrustModule
from repro.xen.hypervisor import Hypervisor
from repro.xen.scheduler import CreditScheduler, Recorder
from repro.xen.vcpu import VCpu

NUM_RATE_BINS = 30
"""Rate bins: bin ``i`` counts milliseconds spent issuing ``i`` locked
ops/ms (the last bin clips higher rates), mirroring the 30 interval
registers of the CPU monitor."""

#: latency inflation per concurrent locked op/ms (model constant)
LATENCY_PER_LOCK = 0.05


class BusLockHistogram(Recorder):
    """Scheduler listener: lock-rate distribution per VM.

    Each continuous run interval of duration ``D`` at lock rate ``r``
    contributes ``D`` milliseconds of weight to rate bin ``min(r, 29)``.
    """

    def __init__(
        self,
        watched_vid: Optional[VmId] = None,
        trust_module: Optional[TrustModule] = None,
        num_bins: int = NUM_RATE_BINS,
    ):
        if num_bins < 2:
            raise ValueError("need at least two rate bins")
        self.num_bins = num_bins
        self.watched_vid = watched_vid
        self._trust_module = trust_module
        self._histograms: dict[VmId, list[float]] = {}

    def on_run_interval(self, vcpu: VCpu, start: float, end: float) -> None:
        """Scheduler hook: weight the interval's lock rate by duration."""
        duration = end - start
        if duration <= 0:
            return
        burst = vcpu.current_burst
        rate = burst.bus_lock_rate if burst is not None else 0.0
        bin_index = min(int(rate), self.num_bins - 1)
        vid = vcpu.domain.vid
        histogram = self._histograms.setdefault(vid, [0.0] * self.num_bins)
        histogram[bin_index] += duration
        if self._trust_module is not None and vid == self.watched_vid:
            self._trust_module.increment_register(bin_index, duration)

    def histogram(self, vid: VmId) -> list[float]:
        """Milliseconds of run time per lock-rate bin."""
        self.observe_hosts()
        return list(self._histograms.get(vid, [0.0] * self.num_bins))

    def distribution(self, vid: VmId) -> list[float]:
        """The histogram normalized to probabilities."""
        histogram = self.histogram(vid)
        total = sum(histogram)
        if total == 0:
            return [0.0] * self.num_bins
        return [weight / total for weight in histogram]

    def reset(self, vid: Optional[VmId] = None) -> None:
        """Clear accumulated weights for one VM or all VMs."""
        self.observe_hosts()
        if vid is None:
            self._histograms.clear()
        else:
            self._histograms.pop(vid, None)


class BusActivityTrace(Recorder):
    """Scheduler listener recording a VM's bus activity as a time series.

    Where :class:`BusLockHistogram` aggregates rates into a distribution
    (losing time structure), this trace keeps the (start, end, rate)
    segments, from which :func:`rate_series` reconstructs a regularly
    sampled signal — the input to CC-Hunter-style event-train analysis
    (paper §4.4.2 cites CC-Hunter [11] for exactly this idea: "Programs
    involved in covert channel communications give unique patterns of
    the events happening on such hardware").
    """

    def __init__(self, watched_vid: VmId):
        self.watched_vid = watched_vid
        #: (start_ms, end_ms, lock_rate) run segments
        self.segments: list[tuple[float, float, float]] = []

    def on_run_interval(self, vcpu: VCpu, start: float, end: float) -> None:
        """Scheduler hook: record the watched VM's run segments."""
        if vcpu.domain.vid != self.watched_vid:
            return
        burst = vcpu.current_burst
        rate = burst.bus_lock_rate if burst is not None else 0.0
        self.segments.append((start, end, rate))

    def rate_series(self, bin_ms: float = 1.0) -> list[float]:
        """The lock-rate signal sampled every ``bin_ms`` over the trace.

        Bins where the VM was not running read 0 (no bus activity).
        """
        self.observe_hosts()
        if not self.segments:
            return []
        first = self.segments[0][0]
        last = max(end for _, end, _ in self.segments)
        bins = int((last - first) / bin_ms) + 1
        series = [0.0] * bins
        for start, end, rate in self.segments:
            begin_bin = int((start - first) / bin_ms)
            end_bin = int((end - first) / bin_ms)
            for index in range(begin_bin, min(end_bin + 1, bins)):
                series[index] = rate
        return series

    def reset(self) -> None:
        """Clear the recorded segments."""
        self.observe_hosts()
        self.segments.clear()


def concurrent_lock_rate(scheduler: CreditScheduler, excluding: VmId) -> float:
    """Total lock rate currently on the bus from other domains' vCPUs."""
    scheduler.observe()
    total = 0.0
    for pcpu in scheduler.pcpus:
        running = pcpu.running
        if running is None or running.domain.vid == excluding:
            continue
        burst = running.current_burst
        if burst is not None:
            total += burst.bus_lock_rate
    return total


class BusLatencyProbe:
    """The receiver's instrument: a time series of memory-latency factors.

    While armed, samples every ``sample_ms`` the latency inflation the
    probed domain would experience from other cores' locked operations:
    ``1 + LATENCY_PER_LOCK * concurrent_rate``. This is how the paper's
    cited bus channels are received in practice — by timing one's own
    memory accesses.
    """

    def __init__(self, hypervisor: Hypervisor, vid: VmId, sample_ms: float = 1.0):
        if sample_ms <= 0:
            raise StateError("sample period must be positive")
        self._hypervisor = hypervisor
        self.vid = vid
        self.sample_ms = sample_ms
        #: (time_ms, latency_factor) samples
        self.samples: list[tuple[float, float]] = []
        self._armed = False

    def arm(self, duration_ms: float) -> None:
        """Start sampling for ``duration_ms`` of simulation time."""
        self._armed = True
        self._deadline = self._hypervisor.now + duration_ms
        self._hypervisor.engine.schedule(self.sample_ms, self._sample)

    def _sample(self) -> None:
        if not self._armed or self._hypervisor.now > self._deadline:
            self._armed = False
            return
        rate = concurrent_lock_rate(self._hypervisor.scheduler, self.vid)
        factor = 1.0 + LATENCY_PER_LOCK * rate
        self.samples.append((self._hypervisor.now, factor))
        self._hypervisor.engine.schedule(self.sample_ms, self._sample)

    def decode(self, threshold_factor: float, symbol_ms: float) -> list[int]:
        """Decode one bit per symbol period by mean latency thresholding."""
        if not self.samples:
            return []
        bits: list[int] = []
        window: list[float] = []
        window_start = self.samples[0][0]
        for time_ms, factor in self.samples:
            if time_ms - window_start >= symbol_ms:
                if window:
                    mean = sum(window) / len(window)
                    bits.append(1 if mean > threshold_factor else 0)
                window = []
                window_start = time_ms
            window.append(factor)
        if window:
            mean = sum(window) / len(window)
            bits.append(1 if mean > threshold_factor else 0)
        return bits
