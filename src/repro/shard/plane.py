"""The shard plane: N CloudMonatt deployments behind one control plane.

A :class:`ShardPlane` owns N *shards*. Each shard is a complete,
independent CloudMonatt deployment — its own discrete-event engine,
network, controller, attestation server(s) and cloud servers — so the
per-shard simulation work (Xen scheduler ticks, credit accounting,
pipeline drains) scales with the shard's own fleet instead of the whole
cloud's. That independence is the scaling property
``benchmarks/bench_shard_scale.py`` measures: a single controller pays
every server's machinery across the whole fleet's attestation window,
while N shards each pay only their own slice.

Placement is consistent hashing (:mod:`repro.shard.ring`): the plane
mints globally unique vids and the ring maps each vid to its owning
shard, so any coordinator can route any VM's traffic without a central
lookup. Per-VM attestation rounds inside a shard are the unmodified
single-controller protocol — reports stay byte-identical to an
unsharded deployment, which the transcript-equivalence tests assert.

The shard set is fixed at construction: the paper keeps one controller
per cloud (§3.2.3), and the plane is this reproduction's scaling
extension, not a protocol feature, so it neither adds nor removes
shards at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.cloudmonatt import CloudMonatt
from repro.cloud.customer import Customer
from repro.common.errors import StateError
from repro.common.identifiers import IdFactory
from repro.shard.coordinator import ShardedCustomer
from repro.shard.parallel import make_executor
from repro.shard.ring import DEFAULT_VNODES, ConsistentHashRing
from repro.telemetry import Observatory, Telemetry

SHARD_SEED_STRIDE = 10_007
"""Prime stride between per-shard DRBG seeds. Shards are independent
deployments, so distinct seeds model distinct key material; per-VM
reports are placement- and seed-independent (asserted by the
transcript-equivalence tests), so the stride never shows up in
attestation results."""


@dataclass
class Shard:
    """One control-plane shard: a named, self-contained deployment."""

    name: str
    cloud: CloudMonatt
    #: per-customer handles onto this shard's controller
    customers: dict[str, Customer] = field(default_factory=dict)

    @property
    def now(self) -> float:
        """This shard's simulation clock (ms)."""
        return self.cloud.engine.now


def _shard_status_fields(shard: Shard) -> dict:
    # runs *inside* the executor (worker process under the forked
    # executor) so status() reports authoritative shard state, not the
    # coordinator-side mirror's
    return {
        "now_ms": shard.now,
        "servers": len(shard.cloud.servers),
        "attestation_servers": [
            attestation_server.describe()
            for attestation_server in shard.cloud.attestation_servers
        ],
    }


class ShardPlane:
    """N sharded CloudMonatt deployments behind one consistent-hash ring.

    ``num_shards`` initial shards are built as ``shard-1 … shard-N``,
    each a full :class:`~repro.cloud.cloudmonatt.CloudMonatt` with seed
    ``seed + i·SHARD_SEED_STRIDE`` and the shared ``cloud_kwargs``
    (servers per shard, pCPUs, key size, …). ``vnodes`` configures ring
    smoothness. The plane's own telemetry hub carries the ``shard.*``
    fan-out counters; each shard's hub is labelled with its shard name
    so flight records stay attributable after merging.
    """

    def __init__(
        self,
        num_shards: int = 2,
        seed: int = 42,
        vnodes: int = DEFAULT_VNODES,
        telemetry_enabled: bool = False,
        parallel: bool = False,
        parallel_workers: int = 0,
        **cloud_kwargs,
    ):
        if num_shards < 1:
            raise StateError("a shard plane needs at least one shard")
        self.seed = seed
        #: plane-wide vid mint: globally unique, placement-independent
        self.ids = IdFactory()
        self.shards: dict[str, Shard] = {}
        #: global VM registry: vid → owning shard name
        self.placement: dict[str, str] = {}
        self._customers: dict[str, ShardedCustomer] = {}
        #: plane-level hub: ``shard.*`` counters; its clock is the max
        #: over the shard engines (the plane has no engine of its own)
        self.telemetry = Telemetry(
            clock=self._clock, enabled=telemetry_enabled, seed=seed
        )
        if telemetry_enabled:
            # plane-level consumer: fan-out / executor events (notably
            # shard_worker_crash) get alert coverage
            self.telemetry.attach_observatory(Observatory(self.telemetry.clock))
        names = [f"shard-{i + 1}" for i in range(num_shards)]
        self.ring = ConsistentHashRing(names, seed=seed, vnodes=vnodes)
        for index, name in enumerate(names):
            self.shards[name] = Shard(name=name, cloud=CloudMonatt(
                seed=seed + index * SHARD_SEED_STRIDE,
                telemetry_enabled=telemetry_enabled,
                shard_name=name,
                **cloud_kwargs,
            ))
        #: executor running every shard command — serial in-process or
        #: persistent forked workers (see :mod:`repro.shard.parallel`)
        self.executor = make_executor(self, parallel, parallel_workers)

    def _clock(self) -> float:
        if not self.shards:
            return 0.0
        return max(shard.now for shard in self.shards.values())

    # ------------------------------------------------------------------
    # customers and routing
    # ------------------------------------------------------------------

    def register_customer(self, name: str) -> ShardedCustomer:
        """Create a customer with a handle on every shard's controller."""
        if name in self._customers:
            raise StateError(f"customer {name!r} already registered")
        for shard_name in sorted(self.shards):
            self.executor.call(shard_name, ("register_customer", name))
        handle = ShardedCustomer(plane=self, name=name)
        self._customers[name] = handle
        return handle

    def shard_of(self, vid) -> Shard:
        """The shard currently owning a plane-tracked VM."""
        name = self.placement.get(str(vid))
        if name is None:
            raise StateError(f"VM {vid!r} is not tracked by this plane")
        return self.shards[name]

    def run_for(self, duration_ms: float) -> None:
        """Advance every shard's engine by ``duration_ms``.

        The tick is fanned out as one command per shard — under the
        parallel executor, the shards' engines (and their policy
        schedulers' firings) advance concurrently on separate cores —
        and merged back in sorted shard-name order.
        """
        executor = self.executor
        handles = [
            executor.submit(name, ("run_for", duration_ms))
            for name in sorted(self.shards)
        ]
        for handle in handles:
            executor.result(handle)

    def prewarm_for_fleet(self, expected_rounds: int) -> int:
        """Pre-generate per-server session keys on every shard."""
        executor = self.executor
        handles = [
            executor.submit(name, ("prewarm", expected_rounds))
            for name in sorted(self.shards)
        ]
        return sum(executor.result(handle) for handle in handles)

    # ------------------------------------------------------------------
    # operator status
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Deterministic operator snapshot of the whole plane.

        Per-shard live fields (clock, server count, attestation-server
        identity cards) are fetched *through the executor*: under the
        forked executor the authoritative shard state lives in a worker
        process, and the coordinator-side mirror only carries what the
        telemetry deltas replay — reading it directly would report
        stale registration counts.
        """
        distribution = self.ring.distribution(sorted(self.placement))
        return {
            "executor": self.executor.describe(),
            "shards": {
                name: {
                    "vms": distribution.get(name, 0),
                    "pipeline_depth": self.executor.pipeline_depth(name),
                    **self.executor.call(
                        name, ("apply", _shard_status_fields, ())
                    ),
                }
                for name in sorted(self.shards)
            },
            "ring": {
                "vnodes": self.ring.vnodes,
                "salt": self.ring.salt.hex(),
                "distribution": distribution,
            },
            "vms": len(self.placement),
            "customers": sorted(self._customers),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the executor down (a no-op for the serial executor).

        Forked workers are daemons, so they die with the process either
        way; closing promptly releases their pipes and memory. The
        plane remains usable afterwards only through a fresh executor —
        callers are expected to close at end of life.
        """
        self.executor.close()

    def __enter__(self) -> "ShardPlane":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
