"""CandidateIndex: the one index state machine RoflRouter and RoflAS share.

Tested here directly, once; ``test_intra_router.py`` and
``test_inter_asnode.py`` keep the integration assertions.
"""

import pickle

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
