"""CandidateIndex: the one index state machine RoflRouter and RoflAS share.

Tested here directly, once; ``test_intra_router.py`` and
``test_inter_asnode.py`` keep the integration assertions.
"""

import pickle

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.idspace.identifier import RingSpace
from repro.intra.virtualnode import Pointer, VirtualNode
from repro.util import perf
from repro.util.ringmap import CandidateIndex

SPACE = RingSpace(bits=16)


def successors_of(vn):
    return [(ptr,) for ptr in vn.successors]


def make_vn(value, *targets):
    vn = VirtualNode(id=SPACE.make(value), router="r")
    vn.successors = [Pointer(SPACE.make(t), ("r", "x")) for t in targets]
    return vn


def settled(*vns):
    index = CandidateIndex(SPACE, "unit", successors_of)
    for vn in vns:
        index.add_owner(vn)
    index.flush()
    return index


def test_mark_storm_is_one_flush_k_rediffs_one_epoch():
    vns = [make_vn(100, 150), make_vn(200, 250), make_vn(300, 350)]
    index = settled(*vns)
    before = {name: perf.value("unit.index." + name)
              for name in ("marks", "refresh.flushes", "refresh.owners")}
    epoch = index.flush_epoch
    for round_no in range(4):
        for vn in vns:
            vn.successors[0] = Pointer(SPACE.make(400 + round_no), ("r", "x"))
            index.mark_dirty(vn)
    keys = index.flush().key_values()
    assert keys == [100, 200, 300, 403]
    assert index.flush_epoch == epoch + 1
    assert perf.value("unit.index.marks") == before["marks"] + 12
    assert perf.value("unit.index.refresh.flushes") == \
        before["refresh.flushes"] + 1
    assert perf.value("unit.index.refresh.owners") == \
        before["refresh.owners"] + 3
    # First pointer wins in owner registration order.
    assert index.flush().get(403).ptrs[0][2] is vns[0].successors[0]
    index.flush()  # clean: no work, no epoch
    assert index.flush_epoch == epoch + 1


def test_departed_owner_keys_disappear():
    stays, leaves = make_vn(100, 500), make_vn(200, 500, 600)
    index = settled(stays, leaves)
    assert index.flush().key_values() == [100, 200, 500, 600]
    index.remove_owner(leaves)
    flushed = index.flush()
    assert flushed.key_values() == [100, 500]
    assert [entry[2] for entry in flushed.get(500).ptrs] == stays.successors


def test_mark_dirty_without_owner_forces_full_rebuild():
    vn = make_vn(100, 150)
    index = settled(vn)
    rebuilds = perf.value("unit.index.rebuild")
    vn.successors[0] = Pointer(SPACE.make(160), ("r", "x"))  # not marked
    index.mark_dirty()
    assert index.flush().key_values() == [100, 160]
    assert perf.value("unit.index.rebuild") == rebuilds + 1


def test_pickle_drops_and_rebuilds_derived_state():
    index = settled(make_vn(100, 150), make_vn(200))
    assert index.flush_epoch == 1
    state = index.__getstate__()
    assert state[:3] == (SPACE, "unit", successors_of)
    assert [vn.id.value for vn in state[3]] == [100, 200]
    clone = pickle.loads(pickle.dumps(index))
    assert clone.flush_epoch == 0
    assert clone.flush().key_values() == [100, 150, 200]
    assert clone.flush().get(100).vn.id.value == 100


def test_one_changed_slot_is_one_slot_of_work():
    """The re-diff is slot-wise: replacing one pointer of eight touches one
    slot and leaves the other seven entries — the very tuples — in place."""
    vn = make_vn(100, *range(200, 280, 10))
    index = settled(vn)
    flushed = index.flush()
    before = {key: flushed.get(key).ptrs[0] for key in range(200, 280, 10)}
    slots = perf.value("unit.index.refresh.slots")
    vn.successors[3] = Pointer(SPACE.make(999), ("r", "x"))
    index.mark_dirty(vn)
    flushed = index.flush()
    assert perf.value("unit.index.refresh.slots") == slots + 1
    assert flushed.key_values() == [100, 200, 210, 220, 240, 250, 260, 270,
                                    999]
    assert flushed.get(999).ptrs[0][:2] == (0, 3)
    for key in flushed.key_values()[1:-1]:
        assert flushed.get(key).ptrs[0] is before[key]


# -- the mutation machine ---------------------------------------------------
#
# Hypothesis drives every way an owner's contribution can change between
# two flushes; whatever the interleaving, the incrementally maintained
# index must equal one rebuilt from scratch over the same owners — same
# key column, and per key the same resident VN object and the same pointer
# objects in the same order (identity, not value: an equal-valued stale
# pointer left behind is a bug).

TARGETS = st.integers(min_value=0, max_value=40)    # few keys: collisions
PICK = st.integers(min_value=0, max_value=10 ** 6)


class Owner:
    """The least a CandidateIndex needs of a virtual node."""

    def __init__(self, value):
        self.id = SPACE.make(value)
        self.entries = []          # what pointers_of returns, in order


def contributed(vn):
    return list(vn.entries)


def view(index):
    keys, entries = index.columns()
    return [(key, id(entry.vn),
             [(id(tail[0]),) + tail[1:]
              for tail in (stored[2:] for stored in entry.ptrs)])
            for key, entry in zip(keys, entries)]


class IndexMachine(RuleBasedStateMachine):
    #: ``(ptr,)`` entries as RoflAS contributes, or ``(ptr, ephemeral)``
    #: as RoflRouter does.
    flagged = False

    def __init__(self):
        super().__init__()
        self.index = CandidateIndex(SPACE, "machine", contributed)
        self.owners = {}

    def entry(self, dest, flag=False):
        ptr = Pointer(SPACE.make(dest), ("r", "x"))
        return (ptr, flag) if self.flagged else (ptr,)

    def pick(self, pick):
        return self.owners[sorted(self.owners)[pick % len(self.owners)]]

    def slot(self, vn, pick):
        return pick % len(vn.entries)

    @rule(value=st.integers(min_value=100, max_value=120),
          dests=st.lists(TARGETS, max_size=5))
    def add_owner(self, value, dests):
        if value not in self.owners:
            vn = self.owners[value] = Owner(value)
            vn.entries = [self.entry(dest) for dest in dests]
            self.index.add_owner(vn)

    @precondition(lambda self: self.owners)
    @rule(pick=PICK)
    def remove_owner(self, pick):
        vn = self.pick(pick)
        del self.owners[vn.id.value]
        self.index.remove_owner(vn)

    @precondition(lambda self: self.owners)
    @rule(pick=PICK, keep=st.booleans())
    def readd_owner_within_the_epoch(self, pick, keep):
        """Leave and come back before any flush: a new VN object under the
        old ID, with (``keep``) or without the old pointer objects."""
        old = self.pick(pick)
        self.index.remove_owner(old)
        new = self.owners[old.id.value] = Owner(old.id.value)
        new.entries = list(old.entries) if keep else []
        self.index.add_owner(new)

    @precondition(lambda self: any(vn.entries for vn in self.owners.values()))
    @rule(pick=PICK, where=PICK, dest=TARGETS)
    def replace_one_slot(self, pick, where, dest):
        vn = self.pick(pick)
        if vn.entries:
            vn.entries[self.slot(vn, where)] = self.entry(dest)
            self.index.mark_dirty(vn)

    @precondition(lambda self: self.owners)
    @rule(pick=PICK, dest=TARGETS, at_front=st.booleans())
    def grow(self, pick, dest, at_front):
        vn = self.pick(pick)
        vn.entries.insert(0 if at_front else len(vn.entries),
                          self.entry(dest))
        self.index.mark_dirty(vn)

    @precondition(lambda self: self.owners)
    @rule(pick=PICK, where=PICK)
    def shrink(self, pick, where):
        vn = self.pick(pick)
        if vn.entries:
            del vn.entries[self.slot(vn, where)]    # later slots shift down
            self.index.mark_dirty(vn)

    @precondition(lambda self: self.owners)
    @rule(pick=PICK, where=PICK, same_object=st.booleans())
    def second_pointer_to_the_same_target(self, pick, where, same_object):
        vn = self.pick(pick)
        if vn.entries:
            twin = vn.entries[self.slot(vn, where)]
            if not same_object:
                twin = self.entry(twin[0].dest_id.value)
            vn.entries.append(twin)
            self.index.mark_dirty(vn)

    @precondition(lambda self: self.flagged and self.owners)
    @rule(pick=PICK, where=PICK)
    def flip_the_flag_of_an_unchanged_pointer(self, pick, where):
        vn = self.pick(pick)
        if vn.entries:
            slot = self.slot(vn, where)
            ptr, flag = vn.entries[slot]
            vn.entries[slot] = (ptr, not flag)
            self.index.mark_dirty(vn)

    @rule()
    def flushed_index_equals_a_fresh_rebuild(self):
        """Ends the epoch.  The rebuild goes through the pickle hooks, which
        keep exactly the constructor arguments and the owners."""
        fresh = CandidateIndex.__new__(CandidateIndex)
        fresh.__setstate__(self.index.__getstate__())
        assert view(self.index) == view(fresh)

    def teardown(self):
        self.flushed_index_equals_a_fresh_rebuild()


class FlaggedIndexMachine(IndexMachine):
    flagged = True


IndexMachine.TestCase.settings = FlaggedIndexMachine.TestCase.settings = \
    settings(max_examples=60, stateful_step_count=40, deadline=None)
TestIndexMachine = IndexMachine.TestCase
TestFlaggedIndexMachine = FlaggedIndexMachine.TestCase
