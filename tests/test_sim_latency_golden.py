"""Simulated latencies, pinned by digest.

The Fig. 9 and Fig. 11 result matrices and the ``attest_ms`` a customer
sees are pure functions of the seed: every cost the simulation charges
and every DRBG draw behind it land in them. A refactor of the protocol
path that keeps these digests keeps the paper's numbers exactly.

Fig. 10 takes about a minute, so it is compared by hand instead: the
sha256 of ``repr(sorted(run_matrix().items()))`` from
``benchmarks/bench_fig10_runtime_attest.py`` starts ``6ec7f50523a46560``.
"""

import hashlib
import sys
from pathlib import Path

from repro import CloudMonatt, SecurityProperty

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

FIG9_DIGEST = "d693da9060fabd65"
FIG11_DIGEST = "76e1ce3cda81c80b"
ON_DEMAND_DIGEST = "dd716c4f86e5c921"
#: each fleet entry carries its request's span plus its own database lookup
FLEET_DIGEST = "2fddd892233c6bf6"


def _digest(value) -> str:
    """The first 16 hex digits of the sha256 of ``repr(value)``."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _matrix_digest(module: str) -> str:
    sys.path.insert(0, str(BENCHMARKS))
    try:
        run_matrix = __import__(module).run_matrix
    finally:
        sys.path.remove(str(BENCHMARKS))
    return _digest(sorted(run_matrix().items()))


def _deployment():
    cloud = CloudMonatt(num_servers=2, seed=61, key_bits=512)
    customer = cloud.register_customer("alice")
    vids = [
        customer.launch_vm(
            "small", "cirros", properties=[SecurityProperty.STARTUP_INTEGRITY]
        ).vid
        for _ in range(4)
    ]
    return customer, vids


def test_fig9_matrix_digest():
    assert _matrix_digest("bench_fig9_vm_launch") == FIG9_DIGEST


def test_fig11_matrix_digest():
    assert _matrix_digest("bench_fig11_responses") == FIG11_DIGEST


def test_on_demand_attest_ms_digest():
    customer, vids = _deployment()
    attest_ms = [
        (prop.value, customer.attest(vids[0], prop).attest_ms)
        for prop in SecurityProperty
    ]
    assert _digest(attest_ms) == ON_DEMAND_DIGEST


def test_fleet_attest_ms_digest():
    customer, vids = _deployment()
    results = customer.attest_fleet(
        [(vid, SecurityProperty.RUNTIME_INTEGRITY) for vid in vids]
    )
    assert _digest([result.attest_ms for result in results]) == FLEET_DIGEST
