"""Security properties, their measurement mappings, and interpreters.

This package is the semantic-gap bridge at the heart of the paper: the
customer asks about a *property* of a VM; the cloud can only measure
*facts* about servers, hypervisors and schedulers. The
:class:`~repro.properties.catalog.PropertyCatalog` maps each property P
to the measurement list rM a server must produce, and one interpreter
per property turns returned measurements M into a health verdict:

========================  =======================================  ==========================
Property                  Measurements (rM)                        Interpreter
========================  =======================================  ==========================
STARTUP_INTEGRITY         platform PCR + log, VM image PCR + log   hash-chain appraisal
RUNTIME_INTEGRITY         VMI task list, kernel modules            whitelist/divergence check
COVERT_CHANNEL_FREEDOM    30-bin CPU-interval histogram            peak/cluster analysis
CPU_AVAILABILITY          CPU_measure over a window                relative-usage threshold
========================  =======================================  ==========================
"""

from repro.properties.availability import AvailabilityInterpreter
from repro.properties.catalog import PropertyCatalog, SecurityProperty
from repro.properties.cchunter import CcHunterDetector, CcHunterVerdict
from repro.properties.covert_channel import (
    CovertChannelInterpreter,
    RandomSourceSelector,
    kmeans_two_cluster,
    significant_peaks,
)
from repro.properties.ima import ImaAppraiser
from repro.properties.interpretation import InterpreterRegistry, PropertyInterpreter
from repro.properties.report import PropertyReport
from repro.properties.runtime_integrity import RuntimeIntegrityInterpreter
from repro.properties.startup_integrity import StartupIntegrityInterpreter

__all__ = [
    "AvailabilityInterpreter",
    "CcHunterDetector",
    "CcHunterVerdict",
    "CovertChannelInterpreter",
    "ImaAppraiser",
    "RandomSourceSelector",
    "InterpreterRegistry",
    "PropertyCatalog",
    "PropertyInterpreter",
    "PropertyReport",
    "RuntimeIntegrityInterpreter",
    "SecurityProperty",
    "StartupIntegrityInterpreter",
    "kmeans_two_cluster",
    "significant_peaks",
]
