"""The shard coordinator: fan-out, merge, and hierarchical evidence.

A :class:`ShardedCustomer` is the customer-facing coordinator for a
:class:`~repro.shard.plane.ShardPlane`. It presents the familiar
single-cloud customer surface (launch, attest, fleet attest)
and internally routes every call to the shard owning the VM:

* ``attest_fleet`` fans the request out as one per-shard batch per
  involved controller, then merges the verified per-shard results back
  into input order. Each shard's controller signs a Merkle root over
  its batch's Q1 leaves (the PR-5 fleet protocol, unchanged); the
  coordinator aggregates those *verified* roots hierarchically into one
  cross-shard fleet root — the intermediate-verifier pattern of the
  IBM scalable-attestation design (arXiv:2304.00382), where per-shard
  verifiers attest their slice and an aggregator binds their evidence.
* Standing monitoring policies are not split across shards: a policy
  is registered with one controller (the paper keeps one per cloud,
  §3.2.3), through that shard's own customer handle.

Every per-VM round inside a shard is the unmodified single-controller
protocol, so per-VM reports are byte-identical to an unsharded
deployment (asserted by ``tests/test_shard_plane.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cloud.customer import LaunchResult, VerifiedAttestation
from repro.common.identifiers import VmId
from repro.properties.catalog import SecurityProperty
from repro.protocol.quotes import merkle_root

if TYPE_CHECKING:  # pragma: no cover - import cycle is typing-only
    from repro.shard.plane import ShardPlane


@dataclass(frozen=True)
class CrossShardFleetReport:
    """A merged fleet attestation across control-plane shards.

    ``results`` aligns with the request order, exactly like the
    single-controller ``attest_fleet``. ``shard_roots`` holds each
    involved shard's controller-signed (and customer-verified) batch
    root; ``root`` is the hierarchical aggregate — the Merkle root over
    the shard roots in sorted shard-name order. A ``None`` shard root
    marks a shard that degraded to per-round fallback (no shared batch
    existed); the aggregate then binds only the surviving batch roots.
    """

    results: list[VerifiedAttestation]
    shard_roots: dict[str, Optional[bytes]]
    root: Optional[bytes]
    #: how many of the requested rounds each shard served
    by_shard: dict[str, int] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """Whether every merged report came back healthy."""
        return all(r.report.healthy for r in self.results)


class ShardedCustomer:
    """One customer's coordinator handle across every shard.

    Mirrors the single-cloud :class:`~repro.cloud.customer.Customer`
    surface; construction happens via :meth:`~repro.shard.plane.
    ShardPlane.register_customer`, which registers the underlying
    per-shard customer endpoints.
    """

    def __init__(self, plane: "ShardPlane", name: str):
        self.plane = plane
        self.name = name

    def _call(self, shard_name: str, method: str, *args, **kwargs):
        """Run one customer method on a shard through the executor."""
        return self.plane.executor.call(
            shard_name, ("customer", self.name, method, args, kwargs)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def launch_vm(
        self,
        flavor_name: str,
        image_name: str,
        properties: Optional[list[SecurityProperty]] = None,
        workload: Optional[dict] = None,
        entitled_share: Optional[float] = None,
        dedicated: bool = False,
    ) -> LaunchResult:
        """Launch a VM on the shard the consistent-hash ring assigns.

        The plane mints the globally unique vid first; the ring decides
        the owning shard; the shard's controller runs the unmodified
        launch pipeline with that pre-assigned vid.
        """
        vid = self.plane.ids.vm_id()
        shard_name = self.plane.ring.owner(str(vid))
        result = self._call(
            shard_name,
            "launch_vm",
            flavor_name,
            image_name,
            properties=properties,
            workload=workload,
            entitled_share=entitled_share,
            dedicated=dedicated,
            vid=vid,
        )
        if result.accepted:
            self.plane.placement[str(vid)] = shard_name
            self.plane.telemetry.counter("shard.launches").inc(
                shard=shard_name
            )
        return result

    # ------------------------------------------------------------------
    # attestation
    # ------------------------------------------------------------------

    def attest(
        self,
        vid: VmId,
        prop: SecurityProperty,
        window_ms: Optional[float] = None,
    ) -> VerifiedAttestation:
        """One-shot attestation, routed to the VM's owning shard."""
        shard = self.plane.shard_of(vid)
        self.plane.telemetry.counter("shard.fanout.rounds").inc(
            shard=shard.name, mode="on-demand"
        )
        return self._call(shard.name, "attest", vid, prop, window_ms=window_ms)

    def attest_fleet(
        self,
        requests: list[tuple[VmId, SecurityProperty]],
        window_ms: Optional[float] = None,
    ) -> CrossShardFleetReport:
        """Fleet attestation fanned out as one batch per involved shard.

        Results come back in request order; the per-shard signed batch
        roots are aggregated into one cross-shard fleet root (see the
        module docstring for the hierarchical-evidence model).
        """
        if not requests:
            return CrossShardFleetReport([], {}, None, {})
        groups: dict[str, list[int]] = {}
        for index, (vid, _prop) in enumerate(requests):
            groups.setdefault(self.plane.shard_of(vid).name, []).append(index)
        results: list[Optional[VerifiedAttestation]] = [None] * len(requests)
        shard_roots: dict[str, Optional[bytes]] = {}
        by_shard: dict[str, int] = {}
        executor = self.plane.executor
        # fan out: one batch command per involved shard, submitted in
        # sorted shard-name order (under the parallel executor the
        # batches run concurrently; under the serial executor submit
        # order *is* execution order, the historical serial plane)
        handles = [
            (
                shard_name,
                executor.submit(
                    shard_name,
                    ("customer", self.name, "attest_fleet",
                     ([requests[i] for i in groups[shard_name]],),
                     {"window_ms": window_ms, "with_root": True}),
                ),
            )
            for shard_name in sorted(groups)
        ]
        # merge: collect in the same sorted order, so per-shard replies
        # and telemetry deltas land exactly as the serial plane's would
        for shard_name, handle in handles:
            indices = groups[shard_name]
            batch = executor.result(handle)
            for index, result in zip(indices, batch.results):
                results[index] = result
            shard_roots[shard_name] = batch.batch_root
            by_shard[shard_name] = len(indices)
            self.plane.telemetry.counter("shard.fanout.batches").inc(
                shard=shard_name
            )
            self.plane.telemetry.counter("shard.fanout.rounds").inc(
                amount=len(indices), shard=shard_name, mode="fleet"
            )
        surviving = [
            shard_roots[name]
            for name in sorted(shard_roots)
            if shard_roots[name] is not None
        ]
        root = merkle_root(surviving) if surviving else None
        self.plane.telemetry.observe_event(
            "shard_fleet_merge",
            rounds=len(requests),
            shards=len(groups),
            root=root.hex() if root else "",
        )
        return CrossShardFleetReport(
            results=[r for r in results if r is not None],
            shard_roots=shard_roots,
            root=root,
            by_shard=by_shard,
        )
