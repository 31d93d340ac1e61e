"""Tests for the Monitor Module suite."""

import hashlib

import pytest

from repro.common.errors import StateError
from repro.common.identifiers import VmId
from repro.common.rng import DeterministicRng
from repro.crypto.drbg import HmacDrbg
from repro.guest import GuestOS, Rootkit
from repro.monitors import (
    IntegrityMeasurementUnit,
    MeasurementRequest,
    MonitorModule,
    RunIntervalHistogram,
    SoftwareInventory,
    VmiTool,
    VmmProfileTool,
)
from repro.monitors.monitor_module import (
    MEAS_CPU_INTERVAL_HISTOGRAM,
    MEAS_CPU_USAGE,
    MEAS_KERNEL_MODULES,
    MEAS_PLATFORM_INTEGRITY,
    MEAS_TASK_LIST,
    MEAS_VM_IMAGE_INTEGRITY,
    CpuIntervalHistogramProvider,
    CpuUsageProvider,
    KernelModulesProvider,
    PlatformIntegrityProvider,
    TaskListProvider,
    VmImageIntegrityProvider,
)
from repro.tpm import TpmEmulator, TrustModule
from repro.xen import CpuBoundWorkload, Hypervisor, IoBoundWorkload


class TestRunIntervalHistogram:
    def test_solo_cpu_bound_peaks_at_last_bin(self):
        hv = Hypervisor()
        monitor = RunIntervalHistogram()
        hv.add_monitor(monitor)
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        hv.run_for(3000.0)
        histogram = monitor.histogram(VmId("vm-a"))
        assert histogram[-1] == max(histogram)
        assert sum(histogram[:-1]) == 0

    def test_io_bound_peaks_at_short_bins(self):
        hv = Hypervisor()
        monitor = RunIntervalHistogram()
        hv.add_monitor(monitor)
        rng = DeterministicRng(5)
        hv.create_domain(VmId("io"), IoBoundWorkload(rng, burst_ms=2.0, wait_ms=8.0))
        hv.run_for(3000.0)
        histogram = monitor.histogram(VmId("io"))
        # bursts of ~2 ms land in bins 1-2
        assert sum(histogram[0:3]) > 0.9 * sum(histogram)

    def test_distribution_normalizes(self):
        hv = Hypervisor()
        monitor = RunIntervalHistogram()
        hv.add_monitor(monitor)
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        hv.run_for(1000.0)
        assert sum(monitor.distribution(VmId("vm-a"))) == pytest.approx(1.0)

    def test_unknown_vm_is_zero(self):
        monitor = RunIntervalHistogram()
        assert monitor.histogram(VmId("ghost")) == [0] * monitor.num_bins
        assert monitor.distribution(VmId("ghost")) == [0.0] * monitor.num_bins

    def test_trust_registers_mirror_watched_vm(self):
        trust = TrustModule(HmacDrbg(1), key_bits=512)
        hv = Hypervisor()
        monitor = RunIntervalHistogram(watched_vid=VmId("vm-a"), trust_module=trust)
        hv.add_monitor(monitor)
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        hv.create_domain(VmId("vm-b"), CpuBoundWorkload())
        hv.run_for(2000.0)
        registers = trust.read_registers(monitor.num_bins)
        assert registers == [float(c) for c in monitor.histogram(VmId("vm-a"))]

    def test_reset_clears(self):
        hv = Hypervisor()
        monitor = RunIntervalHistogram()
        hv.add_monitor(monitor)
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        hv.run_for(500.0)
        monitor.reset(VmId("vm-a"))
        assert sum(monitor.histogram(VmId("vm-a"))) == 0

    def test_bad_bin_count_rejected(self):
        with pytest.raises(ValueError):
            RunIntervalHistogram(num_bins=1)


class TestVmmProfileTool:
    def test_window_measures_solo_usage(self):
        hv = Hypervisor()
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        tool = VmmProfileTool(hv)
        hv.run_for(100.0)
        tool.start_window(VmId("vm-a"))
        hv.run_for(500.0)
        window = tool.stop_window(VmId("vm-a"))
        assert window.relative_usage == pytest.approx(1.0, abs=0.02)
        assert window.wall_ms == pytest.approx(500.0)

    def test_window_sees_fair_share(self):
        hv = Hypervisor()
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        hv.create_domain(VmId("vm-b"), CpuBoundWorkload())
        tool = VmmProfileTool(hv)
        hv.run_for(300.0)
        tool.start_window(VmId("vm-a"))
        hv.run_for(3000.0)
        assert tool.stop_window(VmId("vm-a")).relative_usage == pytest.approx(0.5, abs=0.07)

    def test_stop_without_start_rejected(self):
        hv = Hypervisor()
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        with pytest.raises(StateError):
            VmmProfileTool(hv).stop_window(VmId("vm-a"))

    def test_unknown_domain_rejected(self):
        hv = Hypervisor()
        with pytest.raises(StateError):
            VmmProfileTool(hv).start_window(VmId("ghost"))


class TestVmiTool:
    def test_detects_hidden_processes(self):
        vmi = VmiTool()
        guest = GuestOS.with_standard_services("ubuntu")
        Rootkit().infect(guest)
        vmi.attach(VmId("vm-a"), guest)
        true_names = {t["name"] for t in vmi.running_tasks(VmId("vm-a"))}
        reported_names = {t["name"] for t in vmi.reported_tasks(VmId("vm-a"))}
        assert "cryptominer" in true_names
        assert "cryptominer" not in reported_names

    def test_detach_removes_guest(self):
        vmi = VmiTool()
        vmi.attach(VmId("vm-a"), GuestOS("g"))
        vmi.detach(VmId("vm-a"))
        with pytest.raises(StateError):
            vmi.running_tasks(VmId("vm-a"))

    def test_kernel_modules_visible(self):
        vmi = VmiTool()
        guest = GuestOS.with_standard_services("ubuntu")
        Rootkit(name="rk").infect(guest)
        vmi.attach(VmId("vm-a"), guest)
        assert "rk.ko" in vmi.kernel_modules(VmId("vm-a"))


class TestIntegrityUnit:
    def test_platform_measurement_matches_expected(self):
        tpm = TpmEmulator(HmacDrbg(2), key_bits=512)
        unit = IntegrityMeasurementUnit(tpm)
        inventory = SoftwareInventory.pristine_platform()
        unit.measure_platform(inventory)
        measured = unit.platform_measurement()
        assert measured["pcr"] == IntegrityMeasurementUnit.expected_platform_value(inventory)

    def test_tampered_platform_diverges(self):
        tpm = TpmEmulator(HmacDrbg(2), key_bits=512)
        unit = IntegrityMeasurementUnit(tpm)
        pristine = SoftwareInventory.pristine_platform()
        tampered = pristine.tampered("dom0-linux-3.10", b"backdoored kernel")
        unit.measure_platform(tampered)
        assert unit.platform_measurement()["pcr"] != (
            IntegrityMeasurementUnit.expected_platform_value(pristine)
        )

    def test_vm_image_measurement(self):
        tpm = TpmEmulator(HmacDrbg(2), key_bits=512)
        unit = IntegrityMeasurementUnit(tpm)
        image = b"ubuntu cloud image"
        unit.measure_vm_image(VmId("vm-a"), image)
        measured = unit.vm_image_measurement(VmId("vm-a"))
        assert measured["pcr"] == IntegrityMeasurementUnit.expected_image_value(image)
        assert measured["log"] == [hashlib.sha256(image).digest()]

    def test_unmeasured_vm_rejected(self):
        tpm = TpmEmulator(HmacDrbg(2), key_bits=512)
        unit = IntegrityMeasurementUnit(tpm)
        with pytest.raises(StateError):
            unit.vm_image_measurement(VmId("ghost"))

    def test_forget_vm(self):
        tpm = TpmEmulator(HmacDrbg(2), key_bits=512)
        unit = IntegrityMeasurementUnit(tpm)
        unit.measure_vm_image(VmId("vm-a"), b"img")
        unit.forget_vm(VmId("vm-a"))
        with pytest.raises(StateError):
            unit.vm_image_measurement(VmId("vm-a"))

    def test_tamper_unknown_component_rejected(self):
        with pytest.raises(StateError):
            SoftwareInventory.pristine_platform().tampered("nope", b"x")


class TestMonitorModule:
    @pytest.fixture()
    def full_module(self):
        """A monitor module with every provider wired, plus its substrate."""
        hv = Hypervisor()
        hv.create_domain(VmId("vm-a"), CpuBoundWorkload())
        trust = TrustModule(HmacDrbg(3), key_bits=512)
        unit = IntegrityMeasurementUnit(trust.tpm)
        unit.measure_platform(SoftwareInventory.pristine_platform())
        unit.measure_vm_image(VmId("vm-a"), b"image")
        vmi = VmiTool()
        guest = GuestOS.with_standard_services("ubuntu")
        vmi.attach(VmId("vm-a"), guest)
        histogram = RunIntervalHistogram()
        hv.add_monitor(histogram)
        profile = VmmProfileTool(hv)
        module = MonitorModule()
        module.register(PlatformIntegrityProvider(unit))
        module.register(VmImageIntegrityProvider(unit))
        module.register(TaskListProvider(vmi))
        module.register(KernelModulesProvider(vmi))
        module.register(CpuIntervalHistogramProvider(histogram))
        module.register(CpuUsageProvider(profile))
        return module, hv

    def test_supports_and_listing(self, full_module):
        module, _ = full_module
        assert module.supports(MEAS_TASK_LIST)
        assert not module.supports("nonexistent")
        assert MEAS_CPU_USAGE in module.supported_measurements()

    def test_instant_measurements_collect(self, full_module):
        module, _ = full_module
        request = MeasurementRequest(
            vid=VmId("vm-a"),
            measurements=(MEAS_PLATFORM_INTEGRITY, MEAS_VM_IMAGE_INTEGRITY,
                          MEAS_TASK_LIST, MEAS_KERNEL_MODULES),
        )
        assert not module.window_required(request.measurements)
        module.begin([request])
        (result,), _hits = module.collect([request])
        assert set(result) == set(request.measurements)
        assert any(t["name"] == "sshd" for t in result[MEAS_TASK_LIST])

    def test_windowed_measurements(self, full_module):
        module, hv = full_module
        request = MeasurementRequest(
            vid=VmId("vm-a"),
            measurements=(MEAS_CPU_USAGE, MEAS_CPU_INTERVAL_HISTOGRAM),
            window_ms=500.0,
        )
        assert module.window_required(request.measurements)
        module.begin([request])
        hv.run_for(500.0)
        (result,), _hits = module.collect([request])
        usage = result[MEAS_CPU_USAGE]
        assert usage["cpu_ms"] / usage["wall_ms"] == pytest.approx(1.0, abs=0.02)
        assert sum(result[MEAS_CPU_INTERVAL_HISTOGRAM]) > 0

    def test_unknown_measurement_rejected(self, full_module):
        module, _ = full_module
        request = MeasurementRequest(vid=VmId("vm-a"), measurements=("bogus",))
        with pytest.raises(StateError):
            module.collect([request])

    def test_unnamed_provider_rejected(self):
        class Nameless(CpuUsageProvider):
            name = ""

        module = MonitorModule()
        hv = Hypervisor()
        with pytest.raises(StateError):
            module.register(Nameless(VmmProfileTool(hv)))
