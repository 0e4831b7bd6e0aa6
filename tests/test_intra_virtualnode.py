"""Virtual node and pointer data-structure tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.identifier import RingSpace
from repro.intra.virtualnode import Pointer, VirtualNode, traverses, uses_link

SPACE = RingSpace(bits=16)
ROUTERS = ("r0", "r1", "r2", "r3")


def ptr(value, path=("r0", "r1", "r2")):
    return Pointer(SPACE.make(value), tuple(path))


# ``Pointer.uses_link`` as it was before it tested both ends first, verbatim
# (a method then, of the pointer ``self``; now a function of its path).
def two_set_uses_link(self, a: str, b: str) -> bool:
    return any({x, y} == {a, b} for x, y in zip(self.path, self.path[1:]))


class TestPointer:
    def test_endpoints(self):
        p = ptr(5)
        assert p.owner_router == "r0"
        assert p.hosting_router == "r2"
        assert p.n_hops == 2

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Pointer(SPACE.make(1), ())

    def test_traverses_and_uses_link(self):
        path = ptr(5).path
        assert traverses(path, "r1") and not traverses(path, "rX")
        assert uses_link(path, "r0", "r1") and uses_link(path, "r1", "r0")
        assert not uses_link(path, "r0", "r2")

    @given(path=st.lists(st.sampled_from(ROUTERS), min_size=1, max_size=8),
           a=st.sampled_from(ROUTERS), b=st.sampled_from(ROUTERS))
    @settings(max_examples=300, deadline=None)
    def test_uses_link_is_the_two_set_predicate(self, path, a, b):
        """Against the predicate that built two sets per hop, on paths with
        repeated routers and with ``a == b``."""
        p = ptr(5, path)
        assert uses_link(p.path, a, b) == two_set_uses_link(p, a, b)

    def test_slotted_records_take_no_stray_attribute(self):
        p = ptr(5)
        with pytest.raises(AttributeError):
            p.note = "not a field"
        assert not hasattr(p, "__dict__")
        assert not hasattr(VirtualNode(id=SPACE.make(1), router="r"),
                           "__dict__")

    def test_rerouted_keeps_identity(self):
        p = ptr(5)
        q = p.rerouted(("r0", "r9", "r2"))
        assert q.dest_id == p.dest_id and q is not p
        assert q.path == ("r0", "r9", "r2")

    def test_a_pointer_is_its_target_and_route(self):
        """Its role is the slot that holds it, so the record stores none."""
        assert Pointer._fields == ("dest_id", "path")

    def test_single_router_path(self):
        p = Pointer(SPACE.make(1), ("r0",))
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
        vn.predecessor = Pointer(SPACE.make(50), ("r0", "r5"))
        vn.ephemeral_children[SPACE.make(120)] = Pointer(
            SPACE.make(120), ("r0", "r7"))
        assert vn.state_entries() == 1 + 2 + 1 + 1
