"""Case study III (paper §4.4): covert-channel detection.

Two colluding VMs share a CPU: the sender modulates its run-interval
durations to leak bits; the receiver reads them from its own execution
gaps. CloudMonatt's interval-histogram monitor (30 Trust Evidence
Registers) exposes the bimodal pattern, and periodic attestation with a
migration policy evicts the sender.

A memory-bus sender that draws each symbol's lock rate at random from a
band smears its histogram until the peak detector passes it; CC-Hunter's
event-train autocorrelation (§4.4's cited detector) still finds its
symbol cells.

Run: ``python examples/covert_channel_detection.py``
"""

from repro import CloudMonatt, SecurityProperty
from repro.attacks.bus_covert_channel import RandomizedRateBusSender
from repro.common.identifiers import VmId
from repro.common.rng import DeterministicRng
from repro.controller.response import ResponseAction
from repro.monitors.bus_monitor import BusActivityTrace, BusLockHistogram
from repro.monitors.monitor_module import MEAS_BUS_LOCK_HISTOGRAM
from repro.properties import CcHunterDetector, CovertChannelInterpreter
from repro.xen import Hypervisor


def main() -> None:
    cloud = CloudMonatt(num_servers=2, num_pcpus=1, seed=21)
    cloud.controller.response.set_policy(
        SecurityProperty.COVERT_CHANNEL_FREEDOM, ResponseAction.MIGRATE
    )
    alice = cloud.register_customer("alice")

    print("Launching a covert-channel sender and a colluding receiver "
          "on one CPU...")
    sender = alice.launch_vm(
        "small",
        "ubuntu",
        properties=[SecurityProperty.COVERT_CHANNEL_FREEDOM,
                    SecurityProperty.STARTUP_INTEGRITY],
        workload={"name": "covert_channel_sender",
                  "params": {"bits": [1, 0, 1, 1, 0, 0, 1, 0]}},
        pins=[0],
    )
    sender_server = cloud.controller.database.vm(sender.vid).server
    alice.launch_vm(
        "small", "ubuntu", workload={"name": "cpu_bound"}, pins=[0],
        force_server=str(sender_server),
    )
    print(f"  sender {sender.vid} on {sender_server}")

    print("\nAttesting covert-channel freedom of the sender VM...")
    result = alice.attest(sender.vid, SecurityProperty.COVERT_CHANNEL_FREEDOM)
    print(f"  healthy: {result.report.healthy}")
    print(f"  {result.report.explanation}")
    distribution = result.report.details["distribution"]
    print("  interval distribution (non-zero bins):")
    for bin_index, mass in enumerate(distribution):
        if mass > 0.005:
            bar = "#" * int(50 * mass)
            print(f"    ({bin_index:2d},{bin_index + 1:2d}] {mass:6.3f} {bar}")

    if result.response:
        print(f"\nremediation: {result.response['action']} "
              f"({result.response['reaction_ms']:.0f} ms)")
        new_server = cloud.controller.database.vm(sender.vid).server
        print(f"  sender now on {new_server} — separated from its receiver,")
        print("  so the channel is severed even though the sender keeps")
        print("  modulating its CPU usage:")
        verdict = alice.attest(sender.vid, SecurityProperty.COVERT_CHANNEL_FREEDOM)
        print(f"  post-migration attestation healthy: {verdict.report.healthy}")
        print("  (the persistent pattern would justify escalating the "
              "response to termination)")

    print("\nA randomized-rate memory-bus sender, traced for 4 s on one "
          "hypervisor...")
    hypervisor = Hypervisor(num_pcpus=2)
    trace = BusActivityTrace(VmId("bus-sender"))
    histogram = BusLockHistogram()
    hypervisor.add_monitor(trace)
    hypervisor.add_monitor(histogram)
    hypervisor.create_domain(
        VmId("bus-sender"),
        RandomizedRateBusSender([1, 0, 1, 1, 0, 0, 1, 0], DeterministicRng(4)),
        pcpus=[1],
    )
    hypervisor.run_for(4000.0)
    report = CovertChannelInterpreter().interpret(
        VmId("bus-sender"),
        {MEAS_BUS_LOCK_HISTOGRAM: histogram.histogram(VmId("bus-sender"))},
    )
    print(f"  histogram peak detector healthy: {report.healthy}")
    verdict = CcHunterDetector().analyze(trace.rate_series())
    print(f"  CC-Hunter covert: {verdict.covert} ({verdict.reason})")


if __name__ == "__main__":
    main()
