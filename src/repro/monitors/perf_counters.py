"""CPU-usage-interval counters for covert-channel detection (paper §4.4.2).

The monitor observes every continuous run interval of a target VM on the
scheduler and counts its duration into 30 one-millisecond bins,
(0,1], (1,2], ..., (29,30] — longer intervals land in the last bin, since
30 ms is the scheduler's maximum timeslice. The counters live in the
Trust Module's Trust Evidence Registers, exactly as the paper describes
("we use 30 programmable Trust Evidence Registers to count the occurrence
of each CPU usage interval").
"""

from __future__ import annotations

from typing import Optional

from repro.common.identifiers import VmId
from repro.tpm.trust_module import TrustModule
from repro.xen.scheduler import Recorder

NUM_INTERVAL_BINS = 30
"""Bin count; the paper notes a different number trades space/accuracy."""


class RunIntervalHistogram(Recorder):
    """Scheduler listener accumulating a run-interval histogram per VM.

    Attach to a hypervisor with ``hypervisor.add_monitor(...)``. When a
    :class:`TrustModule` is supplied, each observed interval also
    increments the corresponding Trust Evidence Register, so the
    registers mirror the histogram of the *watched* VM.
    """

    def __init__(
        self,
        watched_vid: Optional[VmId] = None,
        trust_module: Optional[TrustModule] = None,
        num_bins: int = NUM_INTERVAL_BINS,
    ):
        if num_bins < 2:
            raise ValueError("need at least two interval bins")
        self.num_bins = num_bins
        self.watched_vid = watched_vid
        self._trust_module = trust_module
        self._histograms: dict[VmId, list[int]] = {}

    def on_run_interval(self, vcpu, start: float, end: float) -> None:
        """Scheduler hook: bin one continuous run interval."""
        duration = end - start
        if duration <= 0:
            return
        bin_index = min(int(duration - 1e-9), self.num_bins - 1)
        vid = vcpu.domain.vid
        histogram = self._histograms.setdefault(vid, [0] * self.num_bins)
        histogram[bin_index] += 1
        if self._trust_module is not None and vid == self.watched_vid:
            self._trust_module.increment_register(bin_index)

    def histogram(self, vid: VmId) -> list[int]:
        """Raw bin counts for a VM (zeros if never observed)."""
        self.observe_hosts()
        return list(self._histograms.get(vid, [0] * self.num_bins))

    def distribution(self, vid: VmId) -> list[float]:
        """Counts normalized to a probability distribution (paper Fig. 5)."""
        histogram = self.histogram(vid)
        total = sum(histogram)
        if total == 0:
            return [0.0] * self.num_bins
        return [count / total for count in histogram]

    def reset(self, vid: Optional[VmId] = None) -> None:
        """Clear accumulated counts for one VM or all VMs."""
        self.observe_hosts()
        if vid is None:
            self._histograms.clear()
        else:
            self._histograms.pop(vid, None)
        if self._trust_module is not None:
            self._trust_module.clear_registers()
