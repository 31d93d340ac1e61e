"""The Monitor Module registry and its measurement providers.

The Attestation Client receives a list of requested measurement names
``rM`` and drives the Monitor Module through a two-phase protocol:

1. :meth:`MonitorModule.begin` opens any measurement windows (the
   availability and covert-channel monitors measure over a testing
   period; integrity and VMI measurements are instantaneous);
2. after the window elapses, :meth:`MonitorModule.collect` gathers the
   actual measurements ``M`` as one name-keyed dict per VM, ready for
   hashing and signing by the Trust Module.

Both phases take every VM of one request at once, so a same-server
batch shares one window and its VM-independent measurements.

Measurement names are the shared vocabulary between the Attestation
Server's property→measurement mapping and the cloud servers' monitors.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from repro.common.errors import StateError
from repro.common.identifiers import VmId
from repro.monitors.integrity_unit import IntegrityMeasurementUnit
from repro.monitors.perf_counters import NUM_INTERVAL_BINS, RunIntervalHistogram
from repro.monitors.vmi_tool import VmiTool
from repro.monitors.vmm_profile import VmmProfileTool

# The measurement vocabulary (rM values).
MEAS_PLATFORM_INTEGRITY = "integrity.platform"
MEAS_VM_IMAGE_INTEGRITY = "integrity.vm_image"
MEAS_TASK_LIST = "vmi.task_list"
MEAS_KERNEL_MODULES = "vmi.kernel_modules"
MEAS_CPU_INTERVAL_HISTOGRAM = "perf.cpu_interval_histogram"
MEAS_BUS_LOCK_HISTOGRAM = "perf.bus_lock_histogram"
MEAS_CPU_USAGE = "profile.cpu_usage"


@dataclass(frozen=True)
class MeasurementRequest:
    """What the Attestation Server asks a cloud server to measure."""

    vid: VmId
    measurements: tuple[str, ...]
    #: measurement window for time-windowed monitors, in ms
    window_ms: float = 0.0


class MeasurementProvider(abc.ABC):
    """One source of measurements, registered under a name."""

    name: str = ""
    requires_window: bool = False
    #: True when the value does not depend on the VM being measured, so
    #: one coalesced pass may share it across a same-server batch.
    vm_independent: bool = False

    def begin(self, vid: VmId) -> None:
        """Open a measurement window (no-op for instant measurements)."""

    @abc.abstractmethod
    def collect(self, vid: VmId) -> Any:
        """Produce the measurement value."""


class PlatformIntegrityProvider(MeasurementProvider):
    """Platform measured-boot evidence (PCR value + log)."""

    name = MEAS_PLATFORM_INTEGRITY
    vm_independent = True

    def __init__(self, integrity_unit: IntegrityMeasurementUnit):
        self._unit = integrity_unit

    def collect(self, vid: VmId) -> Any:
        return self._unit.platform_measurement()


class VmImageIntegrityProvider(MeasurementProvider):
    """Per-VM image measurement evidence."""

    name = MEAS_VM_IMAGE_INTEGRITY

    def __init__(self, integrity_unit: IntegrityMeasurementUnit):
        self._unit = integrity_unit

    def collect(self, vid: VmId) -> Any:
        return self._unit.vm_image_measurement(vid)


class TaskListProvider(MeasurementProvider):
    """True in-guest task list, via VM introspection."""

    name = MEAS_TASK_LIST

    def __init__(self, vmi: VmiTool):
        self._vmi = vmi

    def collect(self, vid: VmId) -> Any:
        return self._vmi.running_tasks(vid)


class InterceptingTaskListProvider(TaskListProvider):
    """VMI task list with a consistent-snapshot pause.

    Paper §7.1.2: "Whether runtime attestation causes performance
    degradation to the VM execution time depends on the measurement
    collection mechanism." Some introspection tools must pause the guest
    to walk its memory consistently; this provider models that by
    holding the domain off the CPU for ``scan_pause_ms`` per collection.
    The intercepting-measurement ablation bench quantifies the cost.
    """

    def __init__(self, vmi: VmiTool, hypervisor, scan_pause_ms: float):
        super().__init__(vmi)
        if scan_pause_ms <= 0:
            raise StateError("scan pause must be positive")
        self._hypervisor = hypervisor
        self.scan_pause_ms = scan_pause_ms

    def collect(self, vid: VmId) -> Any:
        self._hypervisor.pause_domain(vid, self.scan_pause_ms)
        # the scan itself takes wall time while the guest is frozen
        self._hypervisor.engine.run_until(
            self._hypervisor.engine.now + self.scan_pause_ms
        )
        return super().collect(vid)


class KernelModulesProvider(MeasurementProvider):
    """Loaded kernel modules, via VM introspection."""

    name = MEAS_KERNEL_MODULES

    def __init__(self, vmi: VmiTool):
        self._vmi = vmi

    def collect(self, vid: VmId) -> Any:
        return self._vmi.kernel_modules(vid)


class CpuIntervalHistogramProvider(MeasurementProvider):
    """The 30-bin CPU-usage-interval histogram over a testing window."""

    name = MEAS_CPU_INTERVAL_HISTOGRAM
    requires_window = True

    def __init__(self, histogram_monitor: RunIntervalHistogram):
        self._monitor = histogram_monitor

    def begin(self, vid: VmId) -> None:
        self._monitor.reset(vid)

    def collect(self, vid: VmId) -> Any:
        counts = self._monitor.histogram(vid)
        # the paper sends 30 register values; honor a custom bin count
        return counts[:NUM_INTERVAL_BINS]


class BusLockHistogramProvider(MeasurementProvider):
    """Lock-rate histogram over a testing window (bus covert channels)."""

    name = MEAS_BUS_LOCK_HISTOGRAM
    requires_window = True

    def __init__(self, bus_monitor):
        self._monitor = bus_monitor

    def begin(self, vid: VmId) -> None:
        self._monitor.reset(vid)

    def collect(self, vid: VmId) -> Any:
        return self._monitor.histogram(vid)


class CpuUsageProvider(MeasurementProvider):
    """CPU_measure over a testing window (availability monitoring)."""

    name = MEAS_CPU_USAGE
    requires_window = True

    def __init__(self, profile_tool: VmmProfileTool):
        self._tool = profile_tool

    def begin(self, vid: VmId) -> None:
        self._tool.start_window(vid)

    def collect(self, vid: VmId) -> Any:
        window = self._tool.stop_window(vid)
        return {
            "cpu_ms": window.cpu_ms,
            "wall_ms": window.wall_ms,
            "wait_ms": window.wait_ms,
        }


class MonitorModule:
    """Registry of measurement providers on one cloud server."""

    def __init__(self):
        self._providers: dict[str, MeasurementProvider] = {}

    def register(self, provider: MeasurementProvider) -> None:
        """Add a provider; its class-level ``name`` keys the registry."""
        if not provider.name:
            raise StateError("provider has no measurement name")
        self._providers[provider.name] = provider

    def supports(self, measurement: str) -> bool:
        """Whether this server can produce the named measurement."""
        return measurement in self._providers

    def supported_measurements(self) -> list[str]:
        """All measurement names this server offers."""
        return sorted(self._providers)

    def _provider(self, measurement: str) -> MeasurementProvider:
        provider = self._providers.get(measurement)
        if provider is None:
            raise StateError(f"no monitor for measurement {measurement!r}")
        return provider

    def window_required(self, measurements: tuple[str, ...]) -> bool:
        """Whether any requested measurement needs a testing window."""
        return any(self._provider(name).requires_window for name in measurements)

    def begin(self, requests: list[MeasurementRequest]) -> None:
        """Phase 1: open windows for all windowed measurements, in the
        given (sorted) order."""
        for request in requests:
            for name in request.measurements:
                self._provider(name).begin(request.vid)

    def collect(
        self, requests: list[MeasurementRequest]
    ) -> tuple[list[dict[str, Any]], int]:
        """Phase 2: gather all requested measurements.

        VM-independent measurements (e.g. platform integrity) are
        collected once per call and shared across requests; everything
        else is collected per VM. Returns the per-request measurement
        dicts (aligned with ``requests``) and the number of coalesce
        hits — collections avoided by sharing.
        """
        shared: dict[str, Any] = {}
        coalesce_hits = 0
        results: list[dict[str, Any]] = []
        for request in requests:
            values: dict[str, Any] = {}
            for name in request.measurements:
                provider = self._provider(name)
                if provider.vm_independent:
                    if name in shared:
                        coalesce_hits += 1
                    else:
                        shared[name] = provider.collect(request.vid)
                    values[name] = shared[name]
                else:
                    values[name] = provider.collect(request.vid)
            results.append(values)
        return results, coalesce_hits
