"""ColumnarRingIndex: the flat-array candidate index behind the hot path.

The contract under test is *observational equivalence* with
:class:`SortedRingMap` — every query the routers use must answer
identically under any interleaving of mutations and lookups, on the
128-bit ring every network builds as well as a collision-prone 16-bit
one — plus the dict-immediate / column-deferred staging semantics the
epoch flush relies on.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.identifier import RingSpace
from repro.util.ringmap import ColumnarRingIndex, SortedRingMap

SPACE = RingSpace(bits=16)
WIDE_SPACE = RingSpace(bits=128)
MAX16 = (1 << 16) - 1

#: Each space with the map from a drawn 16-bit value to one of its keys.
#: The wide keys span all 128 bits but are drawn from the same small pool,
#: so a ``set`` still meets a later ``del`` of the same key.
SPACES = [pytest.param(SPACE, lambda v: v, id="16bit"),
          pytest.param(WIDE_SPACE, lambda v: (v << 112) | v, id="128bit")]


class TestStagingSemantics:
    def test_reads_never_stale_while_pending(self):
        index = ColumnarRingIndex(SPACE)
        index.set(10, "a")
        assert index.get(10) == "a" and 10 in index and len(index) == 1
        index.delete(10)
        assert index.get(10) is None and 10 not in index and len(index) == 0

    def test_add_then_delete_cancels_staging(self):
        index = ColumnarRingIndex(SPACE)
        index.set(20, "kept")
        index.key_values()  # sync
        index.set(10, "a")
        index.delete(10)
        assert index.columns() == ([20], ["kept"])
        assert index.closest_not_past_value(0, 15) is None

    def test_delete_then_reinsert_within_one_epoch(self):
        index = ColumnarRingIndex(SPACE)
        index.set(10, "a")
        index.key_values()  # sync
        index.delete(10)
        index.set(10, "b")
        keys, vals = index.columns()
        assert list(keys) == [10] and vals == ["b"]

    def test_replace_patches_synced_column(self):
        index = ColumnarRingIndex(SPACE)
        index.set(10, "a")
        index.set(20, "b")
        index.columns()  # sync
        index.set(10, "a2")
        keys, vals = index.columns()
        assert vals[list(keys).index(10)] == "a2"

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            ColumnarRingIndex(SPACE).delete(10)

    def test_storm_and_incremental_sync_agree(self):
        # Small batch → per-key insert path; big batch → sort rebuild.
        incremental = ColumnarRingIndex(SPACE)
        storm = ColumnarRingIndex(SPACE)
        values = list(range(0, 4000, 7))
        for v in values:
            storm.set(v, v)
        for v in values:
            incremental.set(v, v)
            incremental.key_values()  # sync after every key
        assert list(storm.key_values()) == list(incremental.key_values())
        assert storm.columns()[1] == incremental.columns()[1]


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["set", "del", "sync"]),
              st.integers(min_value=0, max_value=MAX16)),
    max_size=60)
probes_strategy = st.lists(st.integers(min_value=0, max_value=MAX16),
                           min_size=1, max_size=8)


@pytest.mark.parametrize("space, widen", SPACES)
@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy, probes=probes_strategy)
def test_equivalent_to_sorted_ring_map(space, widen, ops, probes):
    """Any mutation/lookup interleaving answers exactly like SortedRingMap."""
    reference = SortedRingMap(space)
    index = ColumnarRingIndex(space)
    for op, v in ops:
        key = widen(v)
        if op == "set":
            reference.insert(space.make(key), "p{}".format(v))
            index.set(key, "p{}".format(v))
        elif op == "del":
            reference.discard(key)
            if key in index:
                index.delete(key)
        else:
            # Interleaved query: forces a column sync mid-stream so both
            # the incremental and the rebuild paths get exercised.
            assert index.key_values() == reference.key_values()

    assert len(index) == len(reference)
    assert index.key_values() == reference.key_values()
    keys, vals = index.columns()
    assert keys == reference.key_values()
    assert vals == [reference[key] for key in keys]

    probes = [widen(v) for v in probes]
    for probe in probes:
        assert (probe in index) == (probe in reference)
        assert index.get(probe) == (reference[probe] if probe in reference
                                    else None)
    for current, dest in zip(probes, reversed(probes)):
        assert index.closest_not_past_value(current, dest) == \
            reference.closest_not_past_value(current, dest)


@pytest.mark.parametrize("space, widen", SPACES)
def test_wrapping_queries_match_reference(space, widen):
    index = ColumnarRingIndex(space)
    for v in (10, 20, 30, 60000):
        index.set(widen(v), v)
    assert index.key_values() == [widen(v) for v in (10, 20, 30, 60000)]
    assert index.closest_not_past_value(widen(0), widen(25)) == widen(20)
    assert index.closest_not_past_value(widen(20), widen(25)) is None
    # Nothing stored at or below 5: the best match wraps to the top key.
    assert index.closest_not_past_value(widen(40000), widen(5)) == widen(60000)
    assert index.closest_not_past_value(widen(60000), widen(5)) is None


def test_steady_churn_replay_byte_for_byte():
    """Same-seed steady-churn runs must serialise to identical bytes —
    the columnar index may not perturb any tie-break or RNG draw."""
    from repro.workload import builtin_scenario, run_scenario

    a = run_scenario(builtin_scenario("steady-churn", seed=1))
    b = run_scenario(builtin_scenario("steady-churn", seed=1))
    dump_a = json.dumps(a.deterministic_view(), sort_keys=True)
    dump_b = json.dumps(b.deterministic_view(), sort_keys=True)
    assert dump_a == dump_b


def test_package_imports_without_numpy():
    """numpy is no dependency: no network, snapshot or serve import may
    pull it in."""
    script = ("import sys; import repro, repro.snapshot, repro.serve, "
              "repro.inter.network, repro.intra.network; "
              "sys.exit('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", script], env=env,
                          timeout=60).returncode == 0


def test_package_imports_without_networkx(tmp_path):
    """Nor is networkx (a test oracle only since snapshot schema 3): a
    process that builds both kinds of network, joins, sends, hashes, saves
    and loads never imports it."""
    script = """
import sys
import repro, repro.serve
from repro import snapshot
for kind in ("intra", "inter"):
    net = repro.build_network(kind, 1, n_routers=16, n_ases=20, hosts=20)
    net.join_next()
    assert net.send(*net.random_host_pair()).delivered
    path = sys.argv[1] + kind
    assert snapshot.save(net, path) == snapshot.state_hash(net)
    assert snapshot.state_hash(snapshot.load(path, verify=True)) \
        == snapshot.state_hash(net)
sys.exit(any(name.split(".")[0] == "networkx" for name in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", script, str(tmp_path / "s.")],
                          env=env, timeout=60).returncode == 0
