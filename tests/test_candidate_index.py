"""CandidateIndex: the one index state machine RoflRouter and RoflAS share.

Tested here directly, once; ``test_intra_router.py`` and
``test_inter_asnode.py`` keep the integration assertions.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.idspace.identifier import RingSpace
from repro.intra.virtualnode import Pointer, VirtualNode
from repro.util import perf
from repro.util.ringmap import GROUP_STRIDE, CandidateIndex

SPACE = RingSpace(bits=16)


def successors_of(vn):
    return (((), vn.successors),)


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


def test_a_grown_group_shifts_no_other_groups_slot():
    """A slot is a position in one group: a successor appended before an
    owner's fingers is one slot of work, and every finger entry — the very
    tuple, ranked ``GROUP_STRIDE`` plus its position — stays in place (in
    one flat list it would sit one position later: nine slots)."""
    vn = make_vn(100, 150, 160)
    fingers = [Pointer(SPACE.make(t), ("r", "x")) for t in range(200, 280, 10)]
    index = CandidateIndex(SPACE, "unit", lambda owner: (
        ((), owner.successors), ((True,), fingers)))
    index.add_owner(vn)
    flushed = index.flush()
    before = {key: flushed.get(key).ptrs[0] for key in range(200, 280, 10)}
    assert [before[key][1] for key in sorted(before)] == \
        [GROUP_STRIDE + i for i in range(8)]
    slots = perf.value("unit.index.refresh.slots")
    vn.successors.append(Pointer(SPACE.make(170), ("r", "x")))
    index.mark_dirty(vn)
    flushed = index.flush()
    assert perf.value("unit.index.refresh.slots") == slots + 1
    assert flushed.get(170).ptrs[0][:2] == (0, 2)
    for key in range(200, 280, 10):
        assert flushed.get(key).ptrs[0] is before[key]


# -- the mutation machine ---------------------------------------------------
#
# Hypothesis drives every way an owner's contribution can change between
# two flushes; whatever the interleaving, the incrementally maintained
# index must equal a fresh one given the same owners at once — same
# key column, and per key the same resident VN object and the same pointer
# objects in the same order (identity, not value: an equal-valued stale
# pointer left behind is a bug).

TARGETS = st.integers(min_value=0, max_value=40)    # few keys: collisions
PICK = st.integers(min_value=0, max_value=10 ** 6)
GROUP = st.sampled_from([0, 1])


class Owner:
    """The least a CandidateIndex needs of a virtual node: two groups of
    pointers, as an AS's successors and fingers, each with its rider."""

    def __init__(self, value, riders):
        self.id = SPACE.make(value)
        self.groups = ([], [])     # what pointers_of returns, in order
        self.riders = list(riders)


def contributed(vn):
    return [(rider, list(group)) for rider, group in zip(vn.riders, vn.groups)]


def view(index):
    keys, entries = index.columns()
    return [(key, id(entry.vn),
             [(id(tail[0]),) + tail[1:]
              for tail in (stored[2:] for stored in entry.ptrs)])
            for key, entry in zip(keys, entries)]


class IndexMachine(RuleBasedStateMachine):
    #: Bare entries in both groups, or a flag riding on each as RoflRouter
    #: (the ephemeral flag) and RoflAS's fingers contribute.
    riders = ((), ())

    def __init__(self):
        super().__init__()
        self.index = CandidateIndex(SPACE, "machine", contributed)
        self.owners = {}

    def entry(self, dest):
        return Pointer(SPACE.make(dest), ("r", "x"))

    def owner(self, value):
        return Owner(value, self.riders)

    def pick(self, pick):
        return self.owners[sorted(self.owners)[pick % len(self.owners)]]

    def slot(self, group, pick):
        return pick % len(group)

    @rule(value=st.integers(min_value=100, max_value=120),
          dests=st.lists(TARGETS, max_size=5),
          later=st.lists(TARGETS, max_size=3))
    def add_owner(self, value, dests, later):
        if value not in self.owners:
            vn = self.owners[value] = self.owner(value)
            vn.groups[0][:] = [self.entry(dest) for dest in dests]
            vn.groups[1][:] = [self.entry(dest) for dest in later]
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
        new = self.owners[old.id.value] = self.owner(old.id.value)
        if keep:
            for mine, theirs in zip(new.groups, old.groups):
                mine[:] = theirs
            new.riders = list(old.riders)
        self.index.add_owner(new)

    @precondition(lambda self: any(any(vn.groups)
                                   for vn in self.owners.values()))
    @rule(pick=PICK, which=GROUP, where=PICK, dest=TARGETS)
    def replace_one_slot(self, pick, which, where, dest):
        vn = self.pick(pick)
        group = vn.groups[which]
        if group:
            group[self.slot(group, where)] = self.entry(dest)
            self.index.mark_dirty(vn)

    @precondition(lambda self: self.owners)
    @rule(pick=PICK, which=GROUP, dest=TARGETS, at_front=st.booleans())
    def grow(self, pick, which, dest, at_front):
        vn = self.pick(pick)
        group = vn.groups[which]
        group.insert(0 if at_front else len(group), self.entry(dest))
        self.index.mark_dirty(vn)

    @precondition(lambda self: self.owners)
    @rule(pick=PICK, which=GROUP, where=PICK)
    def shrink(self, pick, which, where):
        vn = self.pick(pick)
        group = vn.groups[which]
        if group:
            del group[self.slot(group, where)]    # later slots shift down
            self.index.mark_dirty(vn)

    @precondition(lambda self: self.owners)
    @rule(pick=PICK, which=GROUP, where=PICK, into=GROUP,
          same_object=st.booleans())
    def second_pointer_to_the_same_target(self, pick, which, where, into,
                                          same_object):
        vn = self.pick(pick)
        group = vn.groups[which]
        if group:
            twin = group[self.slot(group, where)]
            if not same_object:
                twin = self.entry(twin.dest_id.value)
            vn.groups[into].append(twin)
            self.index.mark_dirty(vn)

    @precondition(lambda self: self.riders[0] and self.owners)
    @rule(pick=PICK, which=GROUP)
    def flip_the_flag_of_unchanged_pointers(self, pick, which):
        vn = self.pick(pick)
        if vn.groups[which]:
            vn.riders[which] = (not vn.riders[which][0],)
            self.index.mark_dirty(vn)

    @rule()
    def flushed_index_equals_a_fresh_one(self):
        """Ends the epoch.  The oracle is a new index given the owners in
        registration order, so its first flush diffs each from empty."""
        fresh = CandidateIndex(SPACE, "machine", contributed)
        for vn in self.index.owners.values():
            fresh.add_owner(vn)
        assert view(self.index) == view(fresh)

    def teardown(self):
        self.flushed_index_equals_a_fresh_one()


class FlaggedIndexMachine(IndexMachine):
    riders = ((False,), (True,))


IndexMachine.TestCase.settings = FlaggedIndexMachine.TestCase.settings = \
    settings(max_examples=60, stateful_step_count=40, deadline=None)
TestIndexMachine = IndexMachine.TestCase
TestFlaggedIndexMachine = FlaggedIndexMachine.TestCase
