"""The cloud server node.

Paper Fig. 2's numbered flow is implemented in
:meth:`CloudServer._handle_measure`: ① the Attestation Client takes the
request, ② invokes the Monitor Module, ③ the Trust Module generates a
fresh attestation key (endorsed by its identity key and certified by the
privacy CA), ④⑤ measurements are collected into trust evidence storage,
⑥ the Crypto Engine signs them, ⑦⑧ the signed bundle returns to the
Attestation Server.

The Management Client handles the controller's lifecycle commands:
launch (with image measurement), terminate, suspend/resume, and both
directions of migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.errors import PlacementError, ProtocolError, StateError
from repro.common.identifiers import ServerId, VmId
from repro.common.rng import DeterministicRng
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.drbg import HmacDrbg
from repro.crypto.nonces import NonceCache
from repro.guest.os_model import GuestOS
from repro.lifecycle.flavors import Flavor, VmImage
from repro.lifecycle.timing import CostModel
from repro.monitors.integrity_unit import IntegrityMeasurementUnit, SoftwareInventory
from repro.monitors.bus_monitor import BusLockHistogram
from repro.monitors.monitor_module import (
    BusLockHistogramProvider,
    CpuIntervalHistogramProvider,
    CpuUsageProvider,
    InterceptingTaskListProvider,
    KernelModulesProvider,
    MeasurementRequest,
    MonitorModule,
    PlatformIntegrityProvider,
    TaskListProvider,
    VmImageIntegrityProvider,
)
from repro.monitors.perf_counters import RunIntervalHistogram
from repro.monitors.vmi_tool import VmiTool
from repro.monitors.vmm_profile import VmmProfileTool
from repro.network.network import Network
from repro.network.secure_channel import SecureEndpoint
from repro.protocol import evidence
from repro.protocol import messages as msg
from repro.sim.engine import Engine
from repro.telemetry import KEY_TRACE, NULL_TELEMETRY, SPAN_MEASURE, Telemetry
from repro.tpm.trust_module import TrustModule
from repro.workloads import make_workload
from repro.xen.hypervisor import Hypervisor


@dataclass
class _HostedVm:
    """Per-VM state a server keeps while hosting it."""

    vid: VmId
    image: VmImage
    flavor: Flavor
    workload_name: str
    workload_params: dict[str, Any] = field(default_factory=dict)
    pins: Optional[list[int]] = None
    guest: Optional[GuestOS] = None
    suspended: bool = False


class CloudServer:
    """One physical server in the data center.

    ``secure=True`` servers carry the Trust Module and Monitor Module of
    the CloudMonatt architecture; ``secure=False`` models the provider's
    legacy fleet, which can host VMs but supports no attestation (the
    paper: "not all the thousands of cloud servers need to be
    CloudMonatt-secure servers").
    """

    def __init__(
        self,
        server_id: ServerId,
        network: Network,
        engine: Engine,
        drbg: HmacDrbg,
        rng: DeterministicRng,
        ca: CertificateAuthority,
        cost_model: CostModel,
        num_pcpus: int = 4,
        memory_mb: int = 32768,
        platform_inventory: Optional[SoftwareInventory] = None,
        secure: bool = True,
        key_bits: int = 1024,
        pca_endpoint: str = "pca",
        intercepting_vmi_scan_ms: float = 0.0,
        telemetry: Optional[Telemetry] = None,
    ):
        self.server_id = server_id
        self.engine = engine
        self.rng = rng
        self.cost = cost_model
        self.secure = secure
        self.memory_mb = memory_mb
        self.num_pcpus = num_pcpus
        self._pca_endpoint = pca_endpoint
        self._next_pin = 0
        self.telemetry = telemetry or NULL_TELEMETRY

        self.hypervisor = Hypervisor(
            engine, num_pcpus=num_pcpus, telemetry=self.telemetry
        )
        self.hosted: dict[VmId, _HostedVm] = {}
        #: ablation knob — reuse one attestation session (key + pCA cert)
        #: across requests instead of minting one per attestation. Saves
        #: the keygen + pCA round but links attestations to one key,
        #: defeating the anonymity goal of §3.4.2 (see the verifier's
        #: IDENTITY_KEY_REUSE analysis and the session-key ablation bench).
        self.reuse_attestation_session = False
        self._cached_session = None
        self._cached_session_cert = None
        #: N3 values already answered: a replayed request is refused
        #: rather than re-measured and re-signed
        self._seen_n3 = NonceCache()

        self.endpoint = SecureEndpoint(
            str(server_id), network, drbg.fork("endpoint"), ca, key_bits=key_bits,
            telemetry=self.telemetry,
        )
        self.endpoint.handler = self._dispatch

        if secure:
            self.trust_module: Optional[TrustModule] = TrustModule(
                drbg.fork("trust"), key_bits=key_bits, telemetry=self.telemetry
            )
            self.integrity_unit = IntegrityMeasurementUnit(self.trust_module.tpm)
            inventory = platform_inventory or SoftwareInventory.pristine_platform()
            self.platform_inventory = inventory
            self.integrity_unit.measure_platform(inventory)
            self.vmi = VmiTool()
            self.histogram_monitor = RunIntervalHistogram()
            self.hypervisor.add_monitor(self.histogram_monitor)
            self.bus_monitor = BusLockHistogram()
            self.hypervisor.add_monitor(self.bus_monitor)
            self.profile_tool = VmmProfileTool(self.hypervisor)
            self.monitor_module = MonitorModule()
            self.monitor_module.register(PlatformIntegrityProvider(self.integrity_unit))
            self.monitor_module.register(VmImageIntegrityProvider(self.integrity_unit))
            if intercepting_vmi_scan_ms > 0:
                self.monitor_module.register(
                    InterceptingTaskListProvider(
                        self.vmi, self.hypervisor, intercepting_vmi_scan_ms
                    )
                )
            else:
                self.monitor_module.register(TaskListProvider(self.vmi))
            self.monitor_module.register(KernelModulesProvider(self.vmi))
            self.monitor_module.register(
                CpuIntervalHistogramProvider(self.histogram_monitor)
            )
            self.monitor_module.register(BusLockHistogramProvider(self.bus_monitor))
            self.monitor_module.register(CpuUsageProvider(self.profile_tool))
        else:
            self.trust_module = None
            self.platform_inventory = platform_inventory or SoftwareInventory(
                components=[]
            )
            self.monitor_module = MonitorModule()

    # ------------------------------------------------------------------
    # capabilities and capacity (consumed by the controller's database)
    # ------------------------------------------------------------------

    def supported_measurements(self) -> list[str]:
        """Measurement names this server's Monitor Module offers."""
        return self.monitor_module.supported_measurements()

    @property
    def allocated_vcpus(self) -> int:
        """vCPUs currently promised to hosted VMs."""
        return sum(vm.flavor.vcpus for vm in self.hosted.values())

    @property
    def allocated_memory_mb(self) -> int:
        """Memory currently promised to hosted VMs."""
        return sum(vm.flavor.memory_mb for vm in self.hosted.values())

    def can_fit(self, flavor: Flavor, overcommit: float = 4.0) -> bool:
        """Capacity check used during placement."""
        vcpu_room = (
            self.allocated_vcpus + flavor.vcpus <= self.num_pcpus * overcommit
        )
        memory_room = self.allocated_memory_mb + flavor.memory_mb <= self.memory_mb
        return vcpu_room and memory_room

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, peer: str, body: dict) -> dict:
        msg.require_fields(body, msg.KEY_TYPE)
        handlers = {
            msg.MSG_MEASURE_REQUEST: self._handle_measure,
            msg.MSG_MEASURE_BATCH_REQUEST: self._handle_measure_batch,
            "server_load_report": self._handle_load_report,
            msg.MSG_LAUNCH: self._handle_launch,
            msg.MSG_TERMINATE: self._handle_terminate,
            msg.MSG_SUSPEND: self._handle_suspend,
            msg.MSG_RESUME: self._handle_resume,
            msg.MSG_MIGRATE_OUT: self._handle_migrate_out,
            msg.MSG_MIGRATE_IN: self._handle_migrate_in,
        }
        handler = handlers.get(body[msg.KEY_TYPE])
        if handler is None:
            raise ProtocolError(f"cloud server: unknown request {body[msg.KEY_TYPE]!r}")
        return handler(peer, body)

    # ------------------------------------------------------------------
    # attestation client (paper Fig. 2 flow)
    # ------------------------------------------------------------------

    def _handle_measure(self, peer: str, body: dict) -> dict:
        with self.telemetry.span(
            SPAN_MEASURE,
            remote_parent=body.get(KEY_TRACE),
            server=str(self.server_id),
            vid=str(body.get(msg.KEY_VID, "")),
        ):
            return self._measure(peer, body)

    def _measure(self, peer: str, body: dict) -> dict:
        if not self.secure or self.trust_module is None:
            raise StateError(f"server {self.server_id} has no Trust Module")
        msg.require_fields(body, msg.KEY_WINDOW)
        accepted = evidence.accept(evidence.Q3, body, self._seen_n3)
        vid = VmId(accepted[msg.KEY_VID])
        window_ms = float(body[msg.KEY_WINDOW])
        if vid not in self.hosted:
            raise StateError(f"server {self.server_id} does not host {vid}")

        # ③ fresh attestation session key, endorsed by the identity key,
        # certified (anonymously) by the privacy CA
        if self.reuse_attestation_session and self._cached_session is not None:
            session = self._cached_session
            session_cert = self._cached_session_cert
        else:
            self.cost.charge("session_keygen")
            session = self.trust_module.new_attestation_session()
            cert_response = self.endpoint.call(
                self._pca_endpoint,
                {
                    msg.KEY_TYPE: "certify_attestation_key",
                    "server": str(self.server_id),
                    "attestation_key": session.public.to_dict(),
                    "endorsement": session.endorsement,
                },
            )
            self.cost.charge("pca_certify")
            session_cert = cert_response["certificate"]
            if self.reuse_attestation_session:
                self._cached_session = session
                self._cached_session_cert = session_cert

        # ②④ drive the Monitor Module (opening a testing window if needed)
        request = MeasurementRequest(
            vid=vid,
            measurements=tuple(accepted[msg.KEY_REQUESTED]),
            window_ms=window_ms,
            params=dict(body.get("params", {})),
        )
        self.monitor_module.begin(request)
        if window_ms > 0:
            self.engine.run_until(self.engine.now + window_ms)
        measurements = self.monitor_module.collect(request)

        # ⑤ evidence into the Trust Module, ⑥ sign with the session key
        self.trust_module.store_evidence(f"attest:{vid}", measurements)
        self.cost.charge("tpm_quote_sign")
        signed = evidence.sign_round(
            evidence.Q3,
            {**accepted, msg.KEY_MEASUREMENTS: measurements},
            lambda payload: self.trust_module.sign_with_session(session, payload),
            self.telemetry,
        )
        return {**signed, msg.KEY_SESSION_CERT: session_cert}

    def _handle_measure_batch(self, peer: str, body: dict) -> dict:
        """Coalesced Fig. 2 flow for many VMs on this server at once.

        One attestation session (③) and one privacy-CA round serve the
        whole batch; the Monitor Module opens every window together and
        shares VM-independent measurements across entries (②④⑤); each
        entry keeps its own fresh nonce and its own Q3 leaf, and a single
        session-key signature (⑥) binds the Merkle root over the sorted
        leaves. Per-round Q3 semantics are unchanged — a verifier checks
        its entry's leaf against the root before trusting the batch
        signature.
        """
        if not self.secure or self.trust_module is None:
            raise StateError(f"server {self.server_id} has no Trust Module")
        msg.require_fields(body, msg.KEY_WINDOW)
        window_ms = float(body[msg.KEY_WINDOW])
        entries = evidence.accept_batch(evidence.Q3, body, self._seen_n3)
        for entry in entries:
            if VmId(entry[msg.KEY_VID]) not in self.hosted:
                raise StateError(
                    f"server {self.server_id} does not host {entry[msg.KEY_VID]}"
                )
        with self.telemetry.span(
            SPAN_MEASURE,
            remote_parent=body.get(KEY_TRACE),
            server=str(self.server_id),
            vid=f"batch:{len(entries)}",
        ):
            return self._measure_batch(entries, window_ms, body)

    def _measure_batch(self, entries: list[dict], window_ms: float, body: dict) -> dict:
        # ③ one fresh attestation session certifies the whole batch
        self.cost.charge("session_keygen")
        session = self.trust_module.new_attestation_session()
        cert_response = self.endpoint.call(
            self._pca_endpoint,
            {
                msg.KEY_TYPE: "certify_attestation_key",
                "server": str(self.server_id),
                "attestation_key": session.public.to_dict(),
                "endorsement": session.endorsement,
            },
        )
        self.cost.charge("pca_certify")
        session_cert = cert_response["certificate"]

        # ②④ one shared measurement pass: every window opens together,
        # one run_until covers them all, VM-independent values coalesce
        requests = [
            MeasurementRequest(
                vid=VmId(entry[msg.KEY_VID]),
                measurements=tuple(entry[msg.KEY_REQUESTED]),
                window_ms=window_ms,
                params=dict(body.get("params", {})),
            )
            for entry in entries
        ]
        self.monitor_module.begin_many(requests)
        if window_ms > 0:
            self.engine.run_until(self.engine.now + window_ms)
        all_measurements, coalesce_hits = self.monitor_module.collect_many(requests)
        self.telemetry.counter("pipeline.coalesce.hits").inc(coalesce_hits)

        # ⑤ evidence + per-entry Q3 leaves, ⑥ one signature over the root
        out_entries = []
        for entry, request, measurements in zip(entries, requests, all_measurements):
            self.trust_module.store_evidence(f"attest:{request.vid}", measurements)
            out_entries.append({**entry, msg.KEY_MEASUREMENTS: measurements})
        self.cost.charge("tpm_quote_sign")
        signed = evidence.sign_batch(
            evidence.Q3,
            out_entries,
            lambda payload: self.trust_module.sign_with_session(session, payload),
            self.telemetry,
        )
        return {**signed, msg.KEY_SESSION_CERT: session_cert}

    def _handle_load_report(self, peer: str, body: dict) -> dict:
        """Operational telemetry: per-VM CPU usage over a short window.

        Management-plane (not attestation-plane) data the controller's
        suspend-recheck loop uses to see whether the contention that
        triggered a suspension has cleared (paper §5.2: the controller
        "can initiate further checking and also continue to attest the
        platform").
        """
        window_ms = float(body.get(msg.KEY_WINDOW, 500.0))
        running = [vid for vid in self.hosted if vid in self.hypervisor.domains]
        if self.secure:
            tool = self.profile_tool
        else:
            tool = VmmProfileTool(self.hypervisor)
        for vid in running:
            tool.start_window(vid)
        self.engine.run_until(self.engine.now + window_ms)
        usage = {str(vid): tool.stop_window(vid).relative_usage for vid in running}
        return {"usage": usage, msg.KEY_WINDOW: window_ms}

    # ------------------------------------------------------------------
    # management client
    # ------------------------------------------------------------------

    def _pin_list(self, vcpus: int, pins: Optional[list[int]]) -> list[int]:
        if pins is not None:
            if len(pins) != vcpus:
                raise PlacementError("one pin per vCPU required")
            return list(pins)
        assigned = []
        for _ in range(vcpus):
            assigned.append(self._next_pin % self.num_pcpus)
            self._next_pin += 1
        return assigned

    def _boot_domain(self, hosted: _HostedVm) -> None:
        """Create the scheduler domain and guest OS for a hosted VM."""
        workload = make_workload(
            hosted.workload_name,
            self.rng.child(f"wl-{hosted.vid}"),
            **hosted.workload_params,
        )
        pins = self._pin_list(hosted.flavor.vcpus, hosted.pins)
        self.hypervisor.create_domain(
            hosted.vid, workload, num_vcpus=hosted.flavor.vcpus, pcpus=pins
        )
        if hosted.guest is None:
            guest = GuestOS(f"{hosted.image.name}-{hosted.vid}")
            for task in hosted.image.standard_tasks:
                guest.spawn(task)
            guest.kernel_modules.extend(hosted.image.standard_modules)
            hosted.guest = guest
        if self.secure:
            self.vmi.attach(hosted.vid, hosted.guest)

    def _handle_launch(self, peer: str, body: dict) -> dict:
        msg.require_fields(body, msg.KEY_VID, "image", "flavor", "workload")
        vid = VmId(body[msg.KEY_VID])
        if vid in self.hosted:
            raise StateError(f"{vid} already hosted on {self.server_id}")
        image = VmImage.from_wire(body["image"])
        flavor = Flavor.from_wire(body["flavor"])
        if not self.can_fit(flavor):
            raise PlacementError(f"server {self.server_id} cannot fit {vid}")
        workload_spec = body["workload"]
        hosted = _HostedVm(
            vid=vid,
            image=image,
            flavor=flavor,
            workload_name=str(workload_spec["name"]),
            workload_params=dict(workload_spec.get("params", {})),
            pins=[int(p) for p in body["pins"]] if body.get("pins") else None,
        )
        # fetch and measure the image before boot (paper §4.2.2 phase 2)
        self.cost.charge("image_fetch_per_mb", scale=image.size_mb)
        if self.secure:
            self.cost.charge("tpm_extend")
            self.integrity_unit.measure_vm_image(vid, image.content)
        self.cost.charge("spawn_base")
        self.cost.charge("boot_per_flavor_vcpu", scale=flavor.vcpus)
        self.hosted[vid] = hosted
        self._boot_domain(hosted)
        return {msg.KEY_STATUS: "active", msg.KEY_VID: str(vid)}

    def _hosted(self, vid: VmId) -> _HostedVm:
        if vid not in self.hosted:
            raise StateError(f"server {self.server_id} does not host {vid}")
        return self.hosted[vid]

    def _teardown_domain(self, vid: VmId) -> None:
        if vid in self.hypervisor.domains:
            self.hypervisor.destroy_domain(vid)
        if self.secure:
            self.vmi.detach(vid)

    def _handle_terminate(self, peer: str, body: dict) -> dict:
        msg.require_fields(body, msg.KEY_VID)
        vid = VmId(body[msg.KEY_VID])
        self._hosted(vid)
        self.cost.charge("vm_destroy")
        self._teardown_domain(vid)
        if self.secure:
            self.integrity_unit.forget_vm(vid)
        del self.hosted[vid]
        return {msg.KEY_STATUS: "terminated", msg.KEY_VID: str(vid)}

    def _handle_suspend(self, peer: str, body: dict) -> dict:
        msg.require_fields(body, msg.KEY_VID)
        vid = VmId(body[msg.KEY_VID])
        hosted = self._hosted(vid)
        if hosted.suspended:
            raise StateError(f"{vid} already suspended")
        self.cost.charge("state_save_per_gb", scale=hosted.flavor.memory_mb / 1024.0)
        self._teardown_domain(vid)
        hosted.suspended = True
        return {msg.KEY_STATUS: "suspended", msg.KEY_VID: str(vid)}

    def _handle_resume(self, peer: str, body: dict) -> dict:
        msg.require_fields(body, msg.KEY_VID)
        vid = VmId(body[msg.KEY_VID])
        hosted = self._hosted(vid)
        if not hosted.suspended:
            raise StateError(f"{vid} is not suspended")
        self.cost.charge("vm_resume")
        hosted.suspended = False
        self._boot_domain(hosted)
        return {msg.KEY_STATUS: "active", msg.KEY_VID: str(vid)}

    def _handle_migrate_out(self, peer: str, body: dict) -> dict:
        """Package the VM for migration: spec + guest memory snapshot."""
        msg.require_fields(body, msg.KEY_VID)
        vid = VmId(body[msg.KEY_VID])
        hosted = self._hosted(vid)
        # cross-rack copies traverse oversubscribed aggregation links:
        # the controller supplies the topology's distance factor
        distance_factor = float(body.get("distance_factor", 1.0))
        self.cost.charge(
            "memory_copy_per_gb",
            scale=hosted.flavor.memory_mb / 1024.0 * distance_factor,
        )
        snapshot = {
            "image": hosted.image.to_wire(),
            "flavor": hosted.flavor.to_wire(),
            "workload": {
                "name": hosted.workload_name,
                "params": hosted.workload_params,
            },
            "guest": hosted.guest.to_snapshot() if hosted.guest else None,
        }
        self._teardown_domain(vid)
        if self.secure:
            self.integrity_unit.forget_vm(vid)
        del self.hosted[vid]
        return {msg.KEY_STATUS: "migrated_out", "snapshot": snapshot}

    def _handle_migrate_in(self, peer: str, body: dict) -> dict:
        """Receive a migrated VM: re-measure the image, restore the guest."""
        msg.require_fields(body, msg.KEY_VID, "snapshot")
        vid = VmId(body[msg.KEY_VID])
        if vid in self.hosted:
            raise StateError(f"{vid} already hosted on {self.server_id}")
        snapshot = body["snapshot"]
        image = VmImage.from_wire(snapshot["image"])
        flavor = Flavor.from_wire(snapshot["flavor"])
        if not self.can_fit(flavor):
            raise PlacementError(f"server {self.server_id} cannot fit migrated {vid}")
        hosted = _HostedVm(
            vid=vid,
            image=image,
            flavor=flavor,
            workload_name=str(snapshot["workload"]["name"]),
            workload_params=dict(snapshot["workload"]["params"]),
            guest=GuestOS.from_snapshot(snapshot["guest"])
            if snapshot.get("guest")
            else None,
        )
        if self.secure:
            self.cost.charge("tpm_extend")
            self.integrity_unit.measure_vm_image(vid, image.content)
        self.hosted[vid] = hosted
        self._boot_domain(hosted)
        return {msg.KEY_STATUS: "active", msg.KEY_VID: str(vid)}
