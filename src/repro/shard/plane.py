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

Rebalancing (:meth:`ShardPlane.add_shard` / :meth:`ShardPlane.
remove_shard`) derives a new ring sharing the old salt, so only
ring-adjacent VMs move; in-flight rounds on the source shards are
drained before any handoff, and standing monitoring policies are
re-split onto the new shard map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.cloud.cloudmonatt import CloudMonatt
from repro.cloud.customer import Customer
from repro.common.errors import StateError
from repro.common.identifiers import IdFactory
from repro.shard.coordinator import RebalanceReport, ShardedCustomer
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


@dataclass(frozen=True)
class VmSpec:
    """Everything needed to relaunch a VM during a shard handoff."""

    customer: str
    flavor_name: str
    image_name: str
    properties: tuple
    workload: dict
    entitled_share: Optional[float]
    dedicated: bool


class ShardPlane:
    """N sharded CloudMonatt deployments behind one consistent-hash ring.

    ``num_shards`` initial shards are built as ``shard-1 … shard-N``,
    each a full :class:`~repro.cloud.cloudmonatt.CloudMonatt` with seed
    ``seed + i·SHARD_SEED_STRIDE`` and the shared ``cloud_kwargs``
    (servers per shard, pCPUs, key size, …). ``vnodes`` configures ring
    smoothness. The plane's own telemetry hub carries the ``shard.*``
    fan-out and rebalance counters; each shard's hub is labelled with
    its shard name so flight records stay attributable after merging.
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
        self._cloud_kwargs = dict(cloud_kwargs)
        self._telemetry_enabled = telemetry_enabled
        #: plane-wide vid mint: globally unique, placement-independent
        self.ids = IdFactory()
        self.shards: dict[str, Shard] = {}
        #: global VM registry: vid → owning shard name
        self.placement: dict[str, str] = {}
        #: global VM registry: vid → relaunch spec (for handoffs)
        self.specs: dict[str, VmSpec] = {}
        #: logical policy registry: name → (owner customer, policy)
        self._policies: dict[str, tuple[str, object]] = {}
        #: per-(shard, policy) applied version — plane-managed epochs,
        #: bumped on every re-split so shard controllers accept them
        self._applied_versions: dict[tuple[str, str], int] = {}
        self._customers: dict[str, ShardedCustomer] = {}
        self._next_shard_index = num_shards + 1
        #: plane-level hub: ``shard.*`` counters; its clock is the max
        #: over the shard engines (the plane has no engine of its own)
        self.telemetry = Telemetry(
            clock=self._clock, enabled=telemetry_enabled, seed=seed
        )
        if telemetry_enabled:
            # plane-level consumer: rebalance / fan-out / executor
            # events (notably shard_worker_crash) get alert coverage
            self.telemetry.attach_observatory(Observatory(self.telemetry.clock))
        names = [f"shard-{i + 1}" for i in range(num_shards)]
        self.ring = ConsistentHashRing(names, seed=seed, vnodes=vnodes)
        for index, name in enumerate(names):
            self.shards[name] = self._build_shard(name, index)
        #: executor running every shard command — serial in-process or
        #: persistent forked workers (see :mod:`repro.shard.parallel`)
        self.executor = make_executor(self, parallel, parallel_workers)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_shard(self, name: str, index: int) -> Shard:
        cloud = CloudMonatt(
            seed=self.seed + index * SHARD_SEED_STRIDE,
            telemetry_enabled=self._telemetry_enabled,
            shard_name=name,
            **self._cloud_kwargs,
        )
        shard = Shard(name=name, cloud=cloud)
        for customer_name in self._customers:
            shard.customers[customer_name] = cloud.register_customer(
                customer_name
            )
        return shard

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
    # rebalancing
    # ------------------------------------------------------------------

    def add_shard(self, name: Optional[str] = None) -> RebalanceReport:
        """Bring a new shard online and move only its ring-adjacent VMs.

        Builds the shard's deployment, derives a new ring sharing the
        current salt (so every moved VM's new owner is the added shard),
        drains in-flight rounds on each source shard, then hands the
        moved VMs off (terminate on the source, relaunch with the same
        vid and spec on the new shard) and re-splits standing policies.
        """
        if name is None:
            name = f"shard-{self._next_shard_index}"
        self._next_shard_index += 1
        if name in self.shards:
            raise StateError(f"shard {name!r} already exists")
        new_ring = self.ring.with_shard(name)
        moved = self.ring.moved_keys(new_ring, sorted(self.placement))
        for vid, (_old, new) in moved.items():
            if new != name:  # pragma: no cover - ring adjacency guarantee
                raise StateError(
                    f"non-adjacent move: {vid} → {new} while adding {name}"
                )
        self.shards[name] = self._build_shard(name, self._next_shard_index - 2)
        self.executor.attach_shard(name)
        return self._rebalance(new_ring, moved, reason=f"add:{name}")

    def remove_shard(self, name: str) -> RebalanceReport:
        """Retire a shard, handing its VMs to their ring successors.

        Every moved VM previously lived on the removed shard (ring
        adjacency); its in-flight rounds are drained before handoff and
        the shard's deployment is dropped from the plane afterwards.
        """
        if name not in self.shards:
            raise StateError(f"shard {name!r} does not exist")
        if len(self.shards) == 1:
            raise StateError("cannot remove the last shard")
        new_ring = self.ring.without_shard(name)
        moved = self.ring.moved_keys(new_ring, sorted(self.placement))
        for vid, (old, _new) in moved.items():
            if old != name:  # pragma: no cover - ring adjacency guarantee
                raise StateError(
                    f"non-adjacent move: {vid} from {old} while removing {name}"
                )
        report = self._rebalance(new_ring, moved, reason=f"remove:{name}")
        self.executor.release_shard(name)
        del self.shards[name]
        return report

    def _drain(self, shard: Shard) -> int:
        """Resolve every in-flight round on a shard before handoff."""
        return self.executor.call(shard.name, ("drain",))

    def _rebalance(
        self,
        new_ring: ConsistentHashRing,
        moved: dict[str, tuple[str, str]],
        reason: str,
    ) -> RebalanceReport:
        drained: dict[str, int] = {}
        for source in sorted({old for old, _new in moved.values()}):
            drained[source] = self._drain(self.shards[source])
        for vid in sorted(moved):
            old_name, new_name = moved[vid]
            spec = self.specs[vid]
            self.executor.call(
                old_name,
                ("customer", spec.customer, "terminate_vm", (vid,), {}),
            )
            self.executor.call(
                new_name,
                ("customer", spec.customer, "launch_vm",
                 (spec.flavor_name, spec.image_name),
                 {
                     "properties": list(spec.properties),
                     "workload": dict(spec.workload),
                     "entitled_share": spec.entitled_share,
                     "dedicated": spec.dedicated,
                     "vid": vid,
                 }),
            )
            self.placement[vid] = new_name
            self.telemetry.counter("shard.rebalance.moved").inc(
                from_shard=old_name, to_shard=new_name
            )
        self.ring = new_ring
        # re-split standing policies onto the new shard map; entries for
        # moved (now terminated) VMs on source shards retire themselves
        # via the schedulers' eligibility hook
        for policy_name in sorted(self._policies):
            self._apply_policy_split(policy_name)
        self.telemetry.observe_event(
            "shard_rebalance",
            reason=reason,
            moved=len(moved),
            shards=len(new_ring),
        )
        return RebalanceReport(
            reason=reason, moved=dict(moved), drained_rounds=drained
        )

    # ------------------------------------------------------------------
    # policy fan-out
    # ------------------------------------------------------------------

    def _apply_policy_split(self, policy_name: str) -> dict:
        """(Re-)apply one logical policy as per-shard sub-policies.

        Entities are split by ring ownership; each involved shard gets a
        sub-policy with a plane-managed, monotonically bumped version so
        its scheduler accepts the update regardless of how many times
        the split has been re-cut by rebalances.
        """
        from repro.policy.model import MonitoringPolicy

        owner, policy = self._policies[policy_name]
        groups: dict[str, list[str]] = {}
        for vid in policy.entities:
            groups.setdefault(self.ring.owner(vid), []).append(vid)
        outcome: dict[str, dict] = {}
        for shard_name in sorted(groups):
            key = (shard_name, policy_name)
            version = self._applied_versions.get(key, 0) + 1
            self._applied_versions[key] = version
            sub = MonitoringPolicy(
                name=policy.name,
                version=version,
                entities=tuple(groups[shard_name]),
                checks=policy.checks,
                notifications=policy.notifications,
            )
            outcome[shard_name] = self.executor.call(
                shard_name, ("customer", owner, "register_policy", (sub,), {})
            )
            self.telemetry.counter("shard.policy.splits").inc(
                shard=shard_name, policy=policy_name
            )
        return outcome

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
            "policies": sorted(self._policies),
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


def shards_for_fleet(total_vms: int, vms_per_shard: int) -> int:
    """How many shards a fleet needs at a target per-shard density."""
    return max(1, math.ceil(total_vms / max(1, vms_per_shard)))
