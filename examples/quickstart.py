"""Quickstart: launch a monitored VM and attest all four properties.

Builds a three-server CloudMonatt cloud, launches a VM with security
properties attached, and walks through the attestation API of paper
Table 1: startup integrity, runtime integrity, covert-channel freedom
and CPU availability — all healthy on a clean cloud — then the
raw-measurement pass-through and periodic attestation.

Run: ``python examples/quickstart.py``
"""

from repro import CloudMonatt, SecurityProperty


def main() -> None:
    print("Building a CloudMonatt cloud (3 secure servers)...")
    cloud = CloudMonatt(num_servers=3, seed=42)
    alice = cloud.register_customer("alice")

    print("Launching a VM with security properties attached...")
    vm = alice.launch_vm(
        "small",
        "ubuntu",
        properties=[
            SecurityProperty.STARTUP_INTEGRITY,
            SecurityProperty.RUNTIME_INTEGRITY,
            SecurityProperty.COVERT_CHANNEL_FREEDOM,
            SecurityProperty.CPU_AVAILABILITY,
        ],
        workload={"name": "app"},
    )
    print(f"  VM {vm.vid}: {'accepted' if vm.accepted else 'REJECTED'}")
    print("  launch stages (ms):")
    for stage, duration in vm.stage_times_ms.items():
        print(f"    {stage:22s} {duration:8.0f}")
    print(f"  startup attestation: {vm.report.explanation}")

    print("\nAttesting each security property at runtime:")
    for prop in (
        SecurityProperty.RUNTIME_INTEGRITY,
        SecurityProperty.COVERT_CHANNEL_FREEDOM,
        SecurityProperty.CPU_AVAILABILITY,
    ):
        result = alice.attest(vm.vid, prop)
        status = "healthy" if result.report.healthy else "COMPROMISED"
        print(f"  {prop.value:28s} {status:12s} ({result.attest_ms:6.0f} ms)")
        print(f"    -> {result.report.explanation}")

    print("\nPass-through mode: the validated raw measurements M, left to")
    print("the customer to interpret (Table 1's raw-measurement request):")
    raw = alice.collect_raw_measurements(vm.vid, SecurityProperty.CPU_AVAILABILITY)
    for name, value in sorted(raw.items()):
        print(f"  {name}: {value}")

    print("\nStarting periodic attestation (every 30 s of cloud time)...")
    alice.start_periodic_attestation(
        vm.vid, SecurityProperty.CPU_AVAILABILITY, frequency_ms=30_000.0
    )
    cloud.run_for(100_000.0)
    results = alice.periodic_results(vm.vid, SecurityProperty.CPU_AVAILABILITY)
    print(f"  received {len(results)} verified periodic reports:")
    for push in results:
        print(f"    #{push.seq}: healthy={push.report.healthy}")
    alice.stop_periodic_attestation(vm.vid, SecurityProperty.CPU_AVAILABILITY)

    alice.terminate_vm(vm.vid)
    print("\nVM terminated. Done.")


if __name__ == "__main__":
    main()
