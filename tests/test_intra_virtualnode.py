"""Virtual node and pointer data-structure tests."""

import pytest

from repro.idspace.identifier import RingSpace
from repro.intra.virtualnode import Pointer, VirtualNode

SPACE = RingSpace(bits=16)


def ptr(value, path=("r0", "r1", "r2")):
    return Pointer(SPACE.make(value), tuple(path), "successor")


class TestPointer:
    def test_endpoints(self):
        p = ptr(5)
        assert p.owner_router == "r0"
        assert p.hosting_router == "r2"
        assert p.n_hops == 2

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Pointer(SPACE.make(1), (), "successor")

    def test_traverses_and_uses_link(self):
        p = ptr(5)
        assert p.traverses("r1") and not p.traverses("rX")
        assert p.uses_link("r0", "r1") and p.uses_link("r1", "r0")
        assert not p.uses_link("r0", "r2")

    def test_rerouted_keeps_identity(self):
        p = ptr(5)
        q = p.rerouted(("r0", "r9", "r2"))
        assert q.dest_id == p.dest_id and q.kind == p.kind
        assert q.path == ("r0", "r9", "r2")

    def test_single_router_path(self):
        p = Pointer(SPACE.make(1), ("r0",), "successor")
        assert p.n_hops == 0 and p.owner_router == p.hosting_router == "r0"


class TestVirtualNode:
    def make(self):
        return VirtualNode(id=SPACE.make(100), router="r0", host_name="h")

    def test_default_detection(self):
        assert VirtualNode(id=SPACE.make(1), router="r").is_default
        assert not self.make().is_default
        eph = VirtualNode(id=SPACE.make(1), router="r", ephemeral=True)
        assert not eph.is_default

    def test_set_successors_dedups_and_caps(self):
        vn = self.make()
        vn.set_successors([ptr(200), ptr(200), ptr(300), ptr(400), ptr(500)],
                          group_size=3)
        assert [p.dest_id.value for p in vn.successors] == [200, 300, 400]

    def test_set_successors_drops_self(self):
        vn = self.make()
        vn.set_successors([ptr(100), ptr(200)], group_size=4)
        assert [p.dest_id.value for p in vn.successors] == [200]

    def test_push_successor_shifts_group(self):
        vn = self.make()
        vn.set_successors([ptr(200), ptr(300)], group_size=2)
        vn.push_successor(ptr(150), group_size=2)
        assert [p.dest_id.value for p in vn.successors] == [150, 200]

    def test_drop_successor(self):
        vn = self.make()
        vn.set_successors([ptr(200), ptr(300)], group_size=4)
        assert vn.drop_successor(SPACE.make(200))
        assert not vn.drop_successor(SPACE.make(200))
        assert vn.primary_successor().dest_id.value == 300

    def test_primary_of_empty_group(self):
        assert self.make().primary_successor() is None

    def test_state_entries_accounting(self):
        vn = self.make()
        vn.set_successors([ptr(200), ptr(300)], group_size=4)
        vn.predecessor = Pointer(SPACE.make(50), ("r0", "r5"), "predecessor")
        vn.ephemeral_children[SPACE.make(120)] = Pointer(
            SPACE.make(120), ("r0", "r7"), "ephemeral")
        assert vn.state_entries() == 1 + 2 + 1 + 1
