"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo`` — launch a monitored VM and attest all four properties;
- ``attack <scenario>`` — run one attack scenario end to end and show
  detection plus remediation (scenarios: ``covert``, ``bus-covert``,
  ``availability``, ``rootkit``, ``tampered-image``);
- ``verify-protocol [--variant V]`` — run the symbolic verifier;
- ``leak-analysis`` — the key-leak trust-dependency matrix;
- ``export-proverif [PATH]`` — write the ProVerif cross-check model;
- ``launch-matrix`` — the Fig. 9 launch-stage breakdown;
- ``telemetry [TRACE]`` — run the demo workload with tracing on (or
  summarize an existing JSONL trace) and print the per-span latency
  summary;
- ``policy validate|show|status`` — check a monitoring-policy JSON
  document against the schema and property catalog, render its
  compiled checks, or run it over a seeded demo fleet and print the
  schedule entries and alarm-transition timeline;
- ``health TRACE`` — the fleet health scoreboard of a recorded run;
- ``alerts TRACE`` — the alert log of a recorded run;
- ``trace TRACE`` — query the span store of a recorded run (filters,
  per-leg percentiles, waterfall rendering).

Every simulating command accepts ``--telemetry-out PATH``: the run
executes with the observability hub (and its observatory consumer
layer) enabled and exports a JSONL trace — spans, metrics, events,
alerts, scoreboard, SLO report, stamped with the run's seed — when it
finishes. The ``--slo-*`` flags set the per-leg latency targets the
alert engine enforces.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import CloudMonatt, SecurityProperty
from repro.controller.response import ResponseAction


def _slo_targets(args: argparse.Namespace):
    """The per-leg SLO override dict from the --slo-* flags, if any."""
    from repro.telemetry import DEFAULT_SLO_TARGETS
    from repro.telemetry.tracer import SPAN_APPRAISAL, SPAN_Q1, SPAN_Q2, SPAN_Q3

    overrides = {
        SPAN_Q1: getattr(args, "slo_q1", None),
        SPAN_Q2: getattr(args, "slo_q2", None),
        SPAN_Q3: getattr(args, "slo_q3", None),
        SPAN_APPRAISAL: getattr(args, "slo_appraisal", None),
    }
    if all(value is None for value in overrides.values()):
        return None
    targets = dict(DEFAULT_SLO_TARGETS)
    for leg, value in overrides.items():
        if value is not None:
            targets[leg] = float(value)
    return targets


def _make_cloud(args: argparse.Namespace, **kwargs) -> CloudMonatt:
    """Build a cloud honoring the global --seed / --telemetry-out flags."""
    kwargs.setdefault("seed", args.seed)
    if getattr(args, "telemetry_out", None) or getattr(args, "_telemetry", False):
        kwargs.setdefault("telemetry_enabled", True)
        kwargs.setdefault("slo_targets", _slo_targets(args))
    return CloudMonatt(**kwargs)


def _export_telemetry(
    args: argparse.Namespace, cloud: CloudMonatt, append: bool = False
) -> None:
    """Write the run's trace if --telemetry-out was given."""
    path = getattr(args, "telemetry_out", None)
    if not path or not cloud.telemetry.enabled:
        return
    from repro.telemetry import write_jsonl

    try:
        write_jsonl(cloud.telemetry, path, seed=args.seed, append=append)
    except OSError as exc:
        print(f"error: cannot write telemetry trace to {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if not append:
        print(f"telemetry trace written to {path}")


def _load_trace(path: str) -> list[dict]:
    """Read a JSONL trace, exiting cleanly on unreadable/malformed input."""
    from repro.telemetry import TraceFormatError, read_jsonl

    try:
        return read_jsonl(path)
    except OSError as exc:
        print(f"error: cannot read trace {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _print_report(label: str, result) -> None:
    status = "healthy" if result.report.healthy else "COMPROMISED"
    print(f"  {label:28s} {status:12s} ({result.attest_ms:6.0f} ms)")
    print(f"    -> {result.report.explanation}")
    if result.response and result.response["action"] != "none":
        print(f"    remediation: {result.response['action']} "
              f"({result.response['reaction_ms']:.0f} ms)")


def cmd_demo(args: argparse.Namespace) -> int:
    cloud = _make_cloud(args, num_servers=3)
    alice = cloud.register_customer("alice")
    vm = alice.launch_vm(
        "small", "ubuntu",
        properties=[SecurityProperty.STARTUP_INTEGRITY,
                    SecurityProperty.RUNTIME_INTEGRITY,
                    SecurityProperty.COVERT_CHANNEL_FREEDOM,
                    SecurityProperty.CPU_AVAILABILITY],
        workload={"name": "app"},
    )
    print(f"VM {vm.vid}: launch {'accepted' if vm.accepted else 'rejected'} "
          f"in {vm.total_ms / 1000.0:.2f} s")
    for stage, duration in vm.stage_times_ms.items():
        print(f"  {stage:22s} {duration:8.0f} ms")
    print("\nruntime attestations:")
    for prop in (SecurityProperty.RUNTIME_INTEGRITY,
                 SecurityProperty.COVERT_CHANNEL_FREEDOM,
                 SecurityProperty.CPU_AVAILABILITY):
        _print_report(prop.value, alice.attest(vm.vid, prop))
    _export_telemetry(args, cloud)
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    scenario = args.scenario
    if scenario == "covert":
        cloud = _make_cloud(args, num_servers=1, num_pcpus=1)
        cloud.controller.response.set_policy(
            SecurityProperty.COVERT_CHANNEL_FREEDOM, ResponseAction.MIGRATE
        )
        alice = cloud.register_customer("alice")
        target = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.COVERT_CHANNEL_FREEDOM,
                        SecurityProperty.STARTUP_INTEGRITY],
            workload={"name": "covert_channel_sender"}, pins=[0],
        )
        alice.launch_vm("small", "ubuntu", workload={"name": "cpu_bound"},
                        pins=[0])
        prop = SecurityProperty.COVERT_CHANNEL_FREEDOM
    elif scenario == "bus-covert":
        cloud = _make_cloud(args, num_servers=1, num_pcpus=2)
        alice = cloud.register_customer("alice")
        target = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.COVERT_CHANNEL_FREEDOM,
                        SecurityProperty.STARTUP_INTEGRITY],
            workload={"name": "bus_covert_channel_sender"}, pins=[1],
        )
        alice.launch_vm("small", "ubuntu", workload={"name": "cpu_bound"},
                        pins=[0])
        prop = SecurityProperty.COVERT_CHANNEL_FREEDOM
    elif scenario == "availability":
        cloud = _make_cloud(args, num_servers=2, num_pcpus=1)
        cloud.controller.response.set_policy(
            SecurityProperty.CPU_AVAILABILITY, ResponseAction.MIGRATE
        )
        alice = cloud.register_customer("alice")
        target = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.CPU_AVAILABILITY,
                        SecurityProperty.STARTUP_INTEGRITY],
            workload={"name": "cpu_bound"}, pins=[0],
        )
        server = cloud.controller.database.vm(target.vid).server
        alice.launch_vm(
            "medium", "ubuntu", workload={"name": "cpu_availability_attack"},
            pins=[0, 0], force_server=str(server),
        )
        prop = SecurityProperty.CPU_AVAILABILITY
    elif scenario == "rootkit":
        from repro.guest import Rootkit

        cloud = _make_cloud(args, num_servers=1)
        alice = cloud.register_customer("alice")
        target = alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.RUNTIME_INTEGRITY,
                        SecurityProperty.STARTUP_INTEGRITY],
        )
        Rootkit().infect(cloud.server_of(target.vid).hosted[target.vid].guest)
        prop = SecurityProperty.RUNTIME_INTEGRITY
    elif scenario == "tampered-image":
        from repro.attacks.image_tampering import tamper_image
        from repro.lifecycle.flavors import VmImage

        cloud = _make_cloud(args, num_servers=1)
        pristine = cloud.images["fedora"]
        cloud.controller.images["fedora"] = VmImage(
            name="fedora", size_mb=pristine.size_mb,
            content=tamper_image(pristine.content),
        )
        alice = cloud.register_customer("alice")
        result = alice.launch_vm(
            "small", "fedora", properties=[SecurityProperty.STARTUP_INTEGRITY]
        )
        print(f"launch accepted: {result.accepted}")
        print(f"  -> {result.report.explanation}")
        _export_telemetry(args, cloud)
        return 0
    else:  # pragma: no cover - argparse restricts choices
        print(f"unknown scenario {scenario}", file=sys.stderr)
        return 2
    _print_report(scenario, alice.attest(target.vid, prop))
    _export_telemetry(args, cloud)
    return 0


def cmd_verify_protocol(args: argparse.Namespace) -> int:
    from repro.verification import ProtocolVariant, ProtocolVerifier

    variant = ProtocolVariant(args.variant)
    verifier = ProtocolVerifier(variant)
    failures = 0
    for result in verifier.verify_all():
        status = "verified    " if result.holds else "ATTACK FOUND"
        print(f"[{status}] {result.property_id} {result.description}")
        if not result.holds:
            failures += 1
    print(f"\n{failures} attack(s) found on the {variant.value} protocol")
    return 0 if (failures == 0) == (variant is ProtocolVariant.STANDARD) else 1


def cmd_leak_analysis(args: argparse.Namespace) -> int:
    from repro.verification.verifier import trust_dependency_matrix

    for key, failures in trust_dependency_matrix().items():
        print(f"leak {key}:")
        if not failures:
            print("  (nothing breaks)")
        for failure in failures:
            print(f"  [{failure.property_id}] {failure.description}")
    return 0


def cmd_export_proverif(args: argparse.Namespace) -> int:
    from repro.verification.proverif_export import export_proverif, write_proverif

    if args.path:
        print(f"wrote {write_proverif(args.path)}")
    else:
        print(export_proverif())
    return 0


def cmd_launch_matrix(args: argparse.Namespace) -> int:
    first = True
    for image in ("cirros", "fedora", "ubuntu"):
        for flavor in ("small", "medium", "large"):
            cloud = _make_cloud(args, num_servers=3)
            alice = cloud.register_customer("alice")
            result = alice.launch_vm(
                flavor, image, properties=[SecurityProperty.STARTUP_INTEGRITY]
            )
            attest_pct = result.stage_times_ms["attestation"] / result.total_ms
            print(f"{image:8s} {flavor:8s} total {result.total_ms / 1000.0:5.2f} s "
                  f"(attestation {attest_pct:4.0%})")
            _export_telemetry(args, cloud, append=not first)
            first = False
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Run the demo workload with tracing on; print the span summary.

    With a TRACE argument, summarize that recorded artifact instead of
    running a fresh simulation.
    """
    from repro.telemetry import console_summary

    if args.trace:
        from repro.telemetry.observatory import TraceStore

        records = _load_trace(args.trace)
        store = TraceStore.from_records(records)
        print(store.render_leg_table(title=f"trace summary ({args.trace})"))
        return 0
    args._telemetry = True
    cloud = _make_cloud(args, num_servers=3)
    alice = cloud.register_customer("alice")
    vm = alice.launch_vm(
        "small", "ubuntu",
        properties=[SecurityProperty.STARTUP_INTEGRITY,
                    SecurityProperty.RUNTIME_INTEGRITY,
                    SecurityProperty.CPU_AVAILABILITY],
        workload={"name": "app"},
    )
    for prop in (SecurityProperty.RUNTIME_INTEGRITY,
                 SecurityProperty.CPU_AVAILABILITY):
        alice.attest(vm.vid, prop)
    print(console_summary(cloud.telemetry,
                          title=f"span latency summary (seed {args.seed})"))
    print()
    print(_fastpath_summary(cloud))
    _export_telemetry(args, cloud)
    return 0


def _fastpath_summary(cloud: CloudMonatt) -> str:
    """Crypto fast-path cache counters for the telemetry summary.

    Key-pool hits/misses/prefills come from the cloud's own hub (one
    series per Trust Module, summed); the verification-memo counters are
    process-global (the memo is shared across endpoints) and read from
    :mod:`repro.crypto.fastpath`. The degraded-path counters make a
    struggling fleet run visible from here: a non-zero
    ``pipeline.batch.fallbacks`` means a batched round fell back to
    one round per VM, and ``crypto.keypool.exhausted`` means a pre-warmed
    pool ran dry and keygen landed on the critical path.
    """
    from repro.crypto import fastpath

    metrics = cloud.telemetry.metrics
    lines = ["=== crypto fast-path caches ==="]
    for name in ("crypto.keypool.hit", "crypto.keypool.miss",
                 "crypto.keypool.prefill"):
        lines.append(f"{name:<28} {metrics.counter(name).total():.0f}")
    stats = fastpath.stats()
    for name in ("verify_memo.hit", "verify_memo.miss"):
        lines.append(f"crypto.{name:<21} {stats.get(name, 0)}")
    lines.append("=== degraded paths ===")
    for name in ("pipeline.batch.fallbacks", "crypto.keypool.exhausted"):
        lines.append(f"{name:<28} {metrics.counter(name).total():.0f}")
    return "\n".join(lines)


def _load_policy(path: str):
    """Parse a policy JSON file, exiting cleanly on malformed input."""
    from repro.common.errors import PolicyError
    from repro.policy import MonitoringPolicy

    try:
        document = json.loads(open(path, encoding="utf-8").read())
    except OSError as exc:
        print(f"error: cannot read policy {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return MonitoringPolicy.from_dict(document)
    except PolicyError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def cmd_policy(args: argparse.Namespace) -> int:
    """Validate, render, or demo-run a monitoring policy document."""
    from repro.common.errors import PolicyError
    from repro.properties.catalog import PropertyCatalog

    if args.policy_command == "validate":
        policy = _load_policy(args.path)
        try:
            policy.validate(PropertyCatalog())
        except PolicyError as exc:
            print(f"error: {args.path}: {exc}", file=sys.stderr)
            return 1
        checks = len(policy.checks) * len(policy.entities)
        print(f"{args.path}: policy {policy.name!r} v{policy.version} OK "
              f"({len(policy.checks)} check(s) x {len(policy.entities)} "
              f"entit(ies) = {checks} schedule entries)")
        return 0

    if args.policy_command == "show":
        policy = _load_policy(args.path)
        routing = policy.notifications
        print(f"policy {policy.name} v{policy.version}")
        print(f"  entities: {', '.join(policy.entities)}")
        print(f"  notifications: observatory={routing.observatory} "
              f"audit={routing.audit} auto_respond={routing.auto_respond}")
        print(f"  {'check':16s} {'property':24s} {'period_ms':>9s} "
              f"{'budget_ms':>9s} {'warn':>5s} {'crit':>5s} {'clear':>6s}")
        for check in policy.checks:
            print(f"  {check.name:16s} {check.prop.value:24s} "
                  f"{check.period_ms:9.0f} {check.staleness_budget_ms:9.0f} "
                  f"{check.warning_after:5d} {check.critical_after:5d} "
                  f"{check.clear_after:6d}")
        return 0

    # status: run the policy over a seeded demo fleet and report the
    # schedule entries, alarm states and transition timeline
    from repro.policy import MonitoringPolicy

    policy = _load_policy(args.path) if args.path else None
    cloud = _make_cloud(args, num_servers=2)
    alice = cloud.register_customer("alice")
    vids = [
        alice.launch_vm(
            "small", "ubuntu",
            properties=[SecurityProperty.RUNTIME_INTEGRITY],
            workload={"name": "app"},
        ).vid
        for _ in range(args.vms)
    ]
    if policy is None:
        policy = MonitoringPolicy.from_dict({
            "name": "demo",
            "version": 1,
            "entities": [str(vid) for vid in vids],
            "checks": [{
                "name": "runtime",
                "property": "runtime_integrity",
                "period_ms": 2_000.0,
                "staleness_budget_ms": 6_000.0,
            }],
        })
    else:
        # the document's entities name someone else's VMs; re-target the
        # demo fleet so its checks run against what we just launched
        policy = MonitoringPolicy.from_dict(
            {**policy.to_dict(), "entities": [str(vid) for vid in vids]}
        )
    alice.register_policy(policy)
    cloud.run_for(args.duration_ms)
    status = alice.policy_status()
    print(f"policy status after {args.duration_ms:.0f} ms "
          f"(seed {args.seed}):")
    print(f"  {'check':16s} {'vid':10s} {'state':9s} {'fired':>5s} "
          f"{'shed':>4s} {'stale':>5s}")
    for entry in status["entries"]:
        print(f"  {entry['check']:16s} {entry['vid']:10s} "
              f"{entry['state']:9s} {entry['fired']:5d} {entry['shed']:4d} "
              f"{str(entry['stale']).lower():>5s}")
    transitions = status["transitions"]
    print(f"{len(transitions)} alarm transition(s)")
    for t in transitions:
        print(f"  t={t['time_ms']:10.1f} ms {t['check']}/{t['vid']}: "
              f"{t['old_state']} -> {t['new_state']} ({t['verdict']})")
    _export_telemetry(args, cloud)
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """Render the fleet health scoreboard of a recorded run."""
    from repro.telemetry import (
        events_from_records,
        render_scoreboard,
        scoreboard_from_records,
        slo_report_from_records,
    )

    records = _load_trace(args.trace)
    snapshot = scoreboard_from_records(records)
    if snapshot is None:
        print(f"error: {args.trace} holds no scoreboard snapshot "
              "(was the run recorded with the observatory enabled?)",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(snapshot, sort_keys=True))
        return 0
    print(render_scoreboard(snapshot))
    report = slo_report_from_records(records)
    if report:
        print("\nSLO compliance (per protocol leg):")
        for leg, stats in sorted(report.items()):
            if stats["compliance"] is None:
                line = "no observations"
            else:
                line = (f"{stats['compliance']:6.1%} within "
                        f"{stats['target_ms']:.0f} ms "
                        f"({stats['breached']}/{stats['observed']} breached)")
            print(f"  {leg:24s} {line}")
    # last-known circuit-breaker state per attestation server (only
    # present when a breaker transitioned during the run)
    breaker_last: dict[str, tuple[float, str]] = {}
    for event in events_from_records(records):
        if event.get("kind") != "breaker_state":
            continue
        fields = event.get("fields", {})
        breaker_last[str(fields.get("endpoint", ""))] = (
            float(event.get("time_ms", 0.0)),
            str(fields.get("state", "")),
        )
    if breaker_last:
        print("\ncircuit breakers:")
        for endpoint in sorted(breaker_last):
            time_ms, state = breaker_last[endpoint]
            marker = "!!" if state != "closed" else "ok"
            print(f"  {endpoint:24s} {state:10s} "
                  f"[{marker}] (since t={time_ms:.1f} ms)")
    return 0


def cmd_alerts(args: argparse.Namespace) -> int:
    """Print the alert log of a recorded run."""
    from repro.telemetry import alerts_from_records

    records = _load_trace(args.trace)
    alerts = alerts_from_records(records)
    if args.json:
        for alert in alerts:
            print(json.dumps(alert, sort_keys=True))
    else:
        for alert in alerts:
            line = (f"[{alert['severity']:8s}] t={alert['time_ms']:10.1f} ms "
                    f"{alert['rule']} ({alert['scope']}): {alert['message']}")
            print(line)
            action = alert.get("details", {}).get("response_action")
            if action:
                print(f"           -> response: {action}")
        print(f"{len(alerts)} alert(s)")
    if args.fail_on_alert and alerts:
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Query the span store of a recorded run."""
    from repro.telemetry.observatory import TraceStore, span_duration_ms

    records = _load_trace(args.trace)
    store = TraceStore.from_records(records)
    if args.waterfall is not None:
        rounds = store.rounds()
        if not rounds:
            print(f"error: {args.trace} holds no attestation rounds",
                  file=sys.stderr)
            return 2
        if not 0 <= args.waterfall < len(rounds):
            print(f"error: round {args.waterfall} out of range "
                  f"(trace holds {len(rounds)} round(s))", file=sys.stderr)
            return 2
        root = rounds[args.waterfall]
        if args.json:
            tree = [
                {"depth": depth, **span,
                 "duration_ms": span_duration_ms(span)}
                for depth, span in store.subtree(root)
            ]
            print(json.dumps(tree, sort_keys=True))
            return 0
        print(store.waterfall(root))
        return 0
    if args.vid or args.leg or args.min_ms is not None:
        spans = store.spans(
            name=args.leg, vid=args.vid, min_duration_ms=args.min_ms
        )
        if args.json:
            for span in spans:
                print(json.dumps(span, sort_keys=True))
            return 0
        for span in spans:
            vid = span.get("attrs", {}).get("vid", "-")
            print(f"{span['name']:32s} start {span['start_ms']:10.1f} ms  "
                  f"{span_duration_ms(span):8.1f} ms  vid={vid}")
        print(f"{len(spans)} span(s)")
        return 0
    if args.json:
        table = {name: store.percentiles(name) for name in store.leg_names()}
        print(json.dumps(table, sort_keys=True))
        return 0
    print(store.render_leg_table())
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct the causal chain of recorded attestation rounds."""
    from repro.telemetry import flight_records_from_records
    from repro.telemetry.observatory import (
        render_flight_record,
        render_round_summary,
    )

    records = _load_trace(args.trace)
    flights = flight_records_from_records(records)
    if args.vid:
        flights = [f for f in flights if f.get("vid") == args.vid]
    if not flights:
        scope = f" for vid {args.vid}" if args.vid else ""
        print(f"error: {args.trace} holds no flight records{scope} "
              "(was the run recorded with the flight recorder enabled?)",
              file=sys.stderr)
        return 2
    if args.round is not None:
        if not 0 <= args.round < len(flights):
            print(f"error: round {args.round} out of range "
                  f"(trace holds {len(flights)} round(s))", file=sys.stderr)
            return 2
        flights = [flights[args.round]]
    if args.json:
        for flight in flights:
            print(json.dumps(flight, sort_keys=True))
        return 0
    if len(flights) == 1:
        print(render_flight_record(flights[0]))
        return 0
    for flight in flights:
        print(render_round_summary(flight))
    print(f"{len(flights)} round(s); use --round N for one full narrative")
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    """Run a sharded control-plane scenario and print its status."""
    from repro.properties.catalog import SecurityProperty
    from repro.shard import ShardPlane

    prop = SecurityProperty.RUNTIME_INTEGRITY
    plane = ShardPlane(
        num_shards=args.shards,
        seed=args.seed,
        vnodes=args.vnodes,
        num_servers=args.servers,
        num_pcpus=8,
        parallel=args.workers > 0,
        parallel_workers=args.workers,
    )
    plane.prewarm_for_fleet(args.vms // args.servers + 2)
    customer = plane.register_customer("operator")
    vids = [
        customer.launch_vm("small", "cirros", properties=[prop]).vid
        for _ in range(args.vms)
    ]
    fleet = customer.attest_fleet([(vid, prop) for vid in vids])
    status = plane.status()
    executor = status["executor"]
    executor_label = executor["mode"]
    if executor.get("workers"):
        executor_label += f" x{executor['workers']}"
    print(f"shard plane: {len(plane.shards)} shard(s), "
          f"{status['vms']} VM(s), {plane.ring.vnodes} vnodes/shard, "
          f"executor {executor_label} "
          f"(ring salt {status['ring']['salt']})")
    print(f"  {'shard':12s} {'vms':>4s} {'rounds':>7s} {'registered':>11s} "
          f"{'sim_ms':>9s}  batch root")
    for name in sorted(status["shards"]):
        row = status["shards"][name]
        registered = sum(
            entry["registered_vms"] for entry in row["attestation_servers"]
        )
        root = fleet.shard_roots.get(name)
        print(f"  {name:12s} {row['vms']:4d} "
              f"{fleet.by_shard.get(name, 0):7d} {registered:11d} "
              f"{row['now_ms']:9.0f}  "
              f"{root.hex()[:16] if root else '-'}")
    healthy = sum(1 for r in fleet.results if r.report.healthy)
    print(f"fleet: {healthy}/{len(fleet.results)} healthy, cross-shard root "
          f"{fleet.root.hex() if fleet.root else '-'}")
    plane.close()
    return 0 if healthy == len(fleet.results) else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description="CloudMonatt reproduction CLI"
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="simulation seed (default 42)")
    parser.add_argument("--telemetry-out", default=None, metavar="PATH",
                        help="enable the telemetry hub and write the run's "
                             "trace (spans, metrics, events, alerts, "
                             "scoreboard) to PATH")
    parser.add_argument("--slo-q1", type=float, default=None, metavar="MS",
                        help="latency SLO target for protocol leg Q1 (ms)")
    parser.add_argument("--slo-q2", type=float, default=None, metavar="MS",
                        help="latency SLO target for protocol leg Q2 (ms)")
    parser.add_argument("--slo-q3", type=float, default=None, metavar="MS",
                        help="latency SLO target for protocol leg Q3 (ms)")
    parser.add_argument("--slo-appraisal", type=float, default=None,
                        metavar="MS",
                        help="latency SLO target for report appraisal (ms)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="launch and attest a monitored VM"
                        ).set_defaults(func=cmd_demo)

    attack = commands.add_parser("attack", help="run one attack scenario")
    attack.add_argument(
        "scenario",
        choices=["covert", "bus-covert", "availability", "rootkit",
                 "tampered-image"],
    )
    attack.set_defaults(func=cmd_attack)

    verify = commands.add_parser("verify-protocol",
                                 help="run the symbolic verifier")
    verify.add_argument("--variant", default="standard",
                        choices=["standard", "plaintext", "no_nonces",
                                 "identity_key_reuse"])
    verify.set_defaults(func=cmd_verify_protocol)

    commands.add_parser("leak-analysis",
                        help="key-leak trust dependencies"
                        ).set_defaults(func=cmd_leak_analysis)

    export = commands.add_parser("export-proverif",
                                 help="emit the ProVerif cross-check model")
    export.add_argument("path", nargs="?", default=None)
    export.set_defaults(func=cmd_export_proverif)

    commands.add_parser("launch-matrix",
                        help="Fig. 9 launch-stage breakdown"
                        ).set_defaults(func=cmd_launch_matrix)

    telemetry = commands.add_parser(
        "telemetry",
        help="traced demo run (or summary of a recorded trace)")
    telemetry.add_argument("trace", nargs="?", default=None, metavar="TRACE",
                           help="summarize this JSONL trace instead of "
                                "running the demo")
    telemetry.set_defaults(func=cmd_telemetry)

    policy = commands.add_parser(
        "policy", help="validate, render or demo-run a monitoring policy")
    policy_commands = policy.add_subparsers(dest="policy_command",
                                            required=True)
    policy_validate = policy_commands.add_parser(
        "validate", help="check a policy JSON document against the "
                         "schema and property catalog")
    policy_validate.add_argument("path", metavar="POLICY",
                                 help="policy document (JSON)")
    policy_show = policy_commands.add_parser(
        "show", help="render a policy document's compiled checks")
    policy_show.add_argument("path", metavar="POLICY",
                             help="policy document (JSON)")
    policy_status = policy_commands.add_parser(
        "status", help="run the policy over a seeded demo fleet and "
                       "print schedule entries and alarm transitions")
    policy_status.add_argument("path", nargs="?", default=None,
                               metavar="POLICY",
                               help="policy document (JSON); omit for the "
                                    "built-in demo policy")
    policy_status.add_argument("--vms", type=int, default=3,
                               help="demo fleet size (default 3)")
    policy_status.add_argument("--duration-ms", type=float, default=20_000.0,
                               help="how long to run the continuous "
                                    "scheduler (default 20000)")
    policy.set_defaults(func=cmd_policy)

    health = commands.add_parser(
        "health", help="fleet health scoreboard of a recorded run")
    health.add_argument("trace", metavar="TRACE",
                        help="JSONL trace written with --telemetry-out")
    health.add_argument("--json", action="store_true",
                        help="print the raw snapshot as JSON")
    health.set_defaults(func=cmd_health)

    alerts = commands.add_parser(
        "alerts", help="alert log of a recorded run")
    alerts.add_argument("trace", metavar="TRACE",
                        help="JSONL trace written with --telemetry-out")
    alerts.add_argument("--json", action="store_true",
                        help="print one JSON object per alert")
    alerts.add_argument("--fail-on-alert", action="store_true",
                        help="exit 1 if the trace holds any alerts")
    alerts.set_defaults(func=cmd_alerts)

    trace = commands.add_parser(
        "trace", help="query the span store of a recorded run")
    trace.add_argument("trace", metavar="TRACE",
                       help="JSONL trace written with --telemetry-out")
    trace.add_argument("--vid", default=None,
                       help="only spans attributed to this VM")
    trace.add_argument("--leg", default=None, metavar="NAME",
                       help="only spans with this name (e.g. protocol.q2)")
    trace.add_argument("--min-ms", type=float, default=None, metavar="MS",
                       help="only spans at least this long")
    trace.add_argument("--waterfall", type=int, default=None, metavar="N",
                       help="render attestation round N as a text waterfall")
    trace.add_argument("--json", action="store_true",
                       help="machine-readable output: one JSON object per "
                            "span (filter mode), a per-leg percentile "
                            "object (table mode), or the round's span "
                            "tree (waterfall mode)")
    trace.set_defaults(func=cmd_trace)

    explain = commands.add_parser(
        "explain",
        help="narrate recorded attestation rounds (the flight recorder)")
    explain.add_argument("trace", metavar="TRACE",
                         help="JSONL trace written with --telemetry-out")
    explain.add_argument("vid", nargs="?", default=None, metavar="VID",
                         help="only rounds attesting this VM")
    explain.add_argument("--round", type=int, default=None, metavar="N",
                         help="narrate only round N of the selection "
                              "(0-based, mint order)")
    explain.add_argument("--json", action="store_true",
                         help="print one JSON flight record per round")
    explain.set_defaults(func=cmd_explain)

    shard = commands.add_parser(
        "shard", help="sharded control plane (consistent-hash multi-"
                      "controller deployments)")
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)
    shard_status = shard_commands.add_parser(
        "status", help="run a sharded fleet attestation and print the "
                       "per-shard placement, evidence roots and clocks")
    shard_status.add_argument("--shards", type=int, default=2,
                              help="number of control-plane shards "
                                   "(default 2)")
    shard_status.add_argument("--vms", type=int, default=8,
                              help="fleet size to launch and attest "
                                   "(default 8)")
    shard_status.add_argument("--vnodes", type=int, default=64,
                              help="virtual nodes per shard on the ring "
                                   "(default 64)")
    shard_status.add_argument("--servers", type=int, default=2,
                              help="cloud servers per shard (default 2)")
    shard_status.add_argument("--workers", type=int, default=0,
                              help="forked executor workers (0 = serial "
                                   "in-process execution, the default)")
    shard.set_defaults(func=cmd_shard)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)
