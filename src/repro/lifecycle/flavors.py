"""Flavors and images matching the paper's evaluation matrix (Fig. 9).

Three images (cirros, fedora, ubuntu) by three flavors (small, medium,
large). Image contents are synthetic but content-addressed: tampering
with the bytes changes the measured hash, which is all startup
attestation needs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any


@dataclass(frozen=True)
class Flavor:
    """A VM size: vCPUs, memory and root disk."""

    name: str
    vcpus: int
    memory_mb: int
    disk_gb: int

    def to_wire(self) -> dict:
        """The flavor as launch and migration messages carry it."""
        return asdict(self)

    @classmethod
    def from_wire(cls, data: dict[str, Any]) -> "Flavor":
        """Inverse of :meth:`to_wire`."""
        return cls(
            name=str(data["name"]),
            vcpus=int(data["vcpus"]),
            memory_mb=int(data["memory_mb"]),
            disk_gb=int(data["disk_gb"]),
        )


@dataclass(frozen=True)
class VmImage:
    """A bootable VM image with synthetic content for hashing."""

    name: str
    size_mb: int
    content: bytes
    #: services this image runs when booted (runtime-integrity whitelist)
    standard_tasks: tuple[str, ...] = (
        "init",
        "sshd",
        "cron",
        "rsyslogd",
        "app-server",
    )
    standard_modules: tuple[str, ...] = ("ext4", "e1000", "iptables")

    def to_wire(self) -> dict:
        """The image as launch and migration messages carry it."""
        return {
            "name": self.name,
            "size_mb": self.size_mb,
            "content": self.content,
            "tasks": list(self.standard_tasks),
            "modules": list(self.standard_modules),
        }

    @classmethod
    def from_wire(cls, data: dict[str, Any]) -> "VmImage":
        """Inverse of :meth:`to_wire`; an image sent without ``tasks`` or
        ``modules`` keeps the defaults above."""
        return cls(
            name=str(data["name"]),
            size_mb=int(data["size_mb"]),
            content=bytes(data["content"]),
            standard_tasks=tuple(data.get("tasks", cls.standard_tasks)),
            standard_modules=tuple(data.get("modules", cls.standard_modules)),
        )


def default_flavors() -> dict[str, Flavor]:
    """The small/medium/large flavors of the paper's launch experiments."""
    return {
        "small": Flavor("small", vcpus=1, memory_mb=2048, disk_gb=20),
        "medium": Flavor("medium", vcpus=2, memory_mb=4096, disk_gb=40),
        "large": Flavor("large", vcpus=4, memory_mb=8192, disk_gb=80),
    }


def default_images() -> dict[str, VmImage]:
    """The cirros/fedora/ubuntu images of the paper's launch experiments."""
    return {
        "cirros": VmImage("cirros", size_mb=25, content=b"cirros-0.3.1 minimal cloud image"),
        "fedora": VmImage("fedora", size_mb=250, content=b"fedora-19 cloud image contents"),
        "ubuntu": VmImage("ubuntu", size_mb=700, content=b"ubuntu-12.04 server cloud image"),
    }
