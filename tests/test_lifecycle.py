"""Tests for lifecycle states, flavors, and the cost model."""

import pytest

from repro.common.errors import ConfigurationError, StateError
from repro.common.identifiers import CustomerId, ServerId, VmId
from repro.common.rng import DeterministicRng
from repro.lifecycle import (
    CostModel,
    Flavor,
    VmImage,
    VmRecord,
    VmState,
    default_flavors,
    default_images,
)
from repro.sim.engine import Engine


def record() -> VmRecord:
    return VmRecord(
        vid=VmId("vm-1"), customer=CustomerId("alice"), flavor="small",
        image="cirros",
    )


class TestVmStateMachine:
    def test_happy_path(self):
        r = record()
        r.transition(VmState.SCHEDULED)
        r.transition(VmState.ACTIVE)
        r.transition(VmState.SUSPENDED)
        r.transition(VmState.ACTIVE)
        r.transition(VmState.MIGRATING)
        r.transition(VmState.ACTIVE)
        r.transition(VmState.TERMINATED)

    def test_cannot_activate_from_requested(self):
        with pytest.raises(StateError):
            record().transition(VmState.ACTIVE)

    def test_terminated_is_final(self):
        r = record()
        r.transition(VmState.SCHEDULED)
        r.transition(VmState.ACTIVE)
        r.transition(VmState.TERMINATED)
        with pytest.raises(StateError):
            r.transition(VmState.ACTIVE)

    def test_rejected_is_final(self):
        r = record()
        r.transition(VmState.REJECTED)
        with pytest.raises(StateError):
            r.transition(VmState.SCHEDULED)

    def test_cannot_migrate_while_suspended(self):
        r = record()
        r.transition(VmState.SCHEDULED)
        r.transition(VmState.ACTIVE)
        r.transition(VmState.SUSPENDED)
        with pytest.raises(StateError):
            r.transition(VmState.MIGRATING)

    def test_live_reflects_state(self):
        r = record()
        assert not r.live
        r.transition(VmState.SCHEDULED)
        r.transition(VmState.ACTIVE)
        assert r.live
        r.transition(VmState.SUSPENDED)
        assert r.live
        r.transition(VmState.TERMINATED)
        assert not r.live


class TestFlavorsAndImages:
    def test_three_flavors(self):
        flavors = default_flavors()
        assert set(flavors) == {"small", "medium", "large"}
        assert flavors["small"].vcpus < flavors["large"].vcpus
        assert flavors["small"].memory_mb < flavors["large"].memory_mb

    def test_three_images(self):
        images = default_images()
        assert set(images) == {"cirros", "fedora", "ubuntu"}
        assert images["cirros"].size_mb < images["ubuntu"].size_mb

    def test_image_contents_distinct(self):
        contents = {image.content for image in default_images().values()}
        assert len(contents) == 3

    def test_images_carry_standard_services(self):
        image = default_images()["ubuntu"]
        assert "sshd" in image.standard_tasks
        assert "ext4" in image.standard_modules

    def test_wire_form_round_trips(self):
        for image in default_images().values():
            assert VmImage.from_wire(image.to_wire()) == image
        for flavor in default_flavors().values():
            assert Flavor.from_wire(flavor.to_wire()) == flavor

    def test_image_without_services_keeps_the_defaults(self):
        image = VmImage.from_wire({"name": "bare", "size_mb": 1, "content": b"x"})
        assert image == VmImage("bare", 1, b"x")


class TestCostModel:
    @pytest.fixture()
    def cost(self):
        return CostModel(engine=Engine(), rng=DeterministicRng(5))

    def test_charge_advances_clock(self, cost):
        before = cost.engine.now
        duration = cost.charge("networking")
        assert cost.engine.now == pytest.approx(before + duration)

    def test_charge_is_jittered_but_close(self, cost):
        base = cost.costs_ms["networking"]
        duration = cost.charge("networking")
        assert abs(duration - base) <= base * cost.jitter * 1.01

    def test_scale_multiplies(self, cost):
        small = cost.charge("image_fetch_per_mb", scale=10)
        large = cost.charge("image_fetch_per_mb", scale=1000)
        assert large > 50 * small

    def test_unknown_operation_rejected(self, cost):
        with pytest.raises(ConfigurationError):
            cost.charge("warp_drive")

    def test_accounting_accumulates(self, cost):
        cost.charge("db_access")
        cost.charge("db_access")
        assert cost.charged_ms["db_access"] > 0
        cost.reset_accounting()
        assert cost.charged_ms == {}

    def test_set_cost_override(self, cost):
        cost.set_cost("db_access", 0.0)
        assert cost.charge("db_access") == 0.0

    def test_negative_cost_rejected(self, cost):
        with pytest.raises(ConfigurationError):
            cost.set_cost("db_access", -1.0)
