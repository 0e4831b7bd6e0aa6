"""Checkpoint/restore determinism: build → save → load → identical future.

The contract under test (DESIGN.md §10): the canonical state hash is a
pure function of simulation state — same seed gives the same hash across
fresh builds, a loaded snapshot hashes identically to the network it was
saved from, and every random draw after a load replays byte-for-byte
what the original network would have produced.

``tests/golden_state_hashes.json`` pins four state-hash literals — the
tripwire for refactors that must not move a hash.  Never regenerate it
from the current code to make a test pass; a *deliberate* change of the
canonical stream regenerates it in that PR and says so in the file's
``captured`` line (done once so far: snapshot schema 2, PR 20).
"""

import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import snapshot
from repro.inter.network import InterDomainNetwork
from repro.intra.network import IntraDomainNetwork
from repro.sim.engine import EventLoop
from repro.snapshot.codec import state_hash_of
from repro.topology.asgraph import synthetic_as_graph
from repro.topology.isp import synthetic_isp
from repro.util.rng import RngRegistry, derive_rng


def build_intra(seed=3, hosts=60, routers=20):
    net = IntraDomainNetwork(synthetic_isp(n_routers=routers, seed=seed),
                             seed=seed)
    net.join_random_hosts(hosts)
    return net


def build_inter(seed=7, hosts=80, ases=30, **kwargs):
    net = InterDomainNetwork(
        synthetic_as_graph(n_ases=ases, seed=seed, total_hosts=4000),
        seed=seed, **kwargs)
    net.join_random_hosts(hosts)
    return net


# ---------------------------------------------------------------------------
# The canonical codec.
# ---------------------------------------------------------------------------

class TestCanonicalCodec:
    def test_primitives_distinguished(self):
        # 1 / 1.0 / True hash apart (dict keys collide in Python, not here).
        assert state_hash_of(1) != state_hash_of(1.0)
        assert state_hash_of(1) != state_hash_of(True)
        assert state_hash_of("a") != state_hash_of(b"a")
        assert state_hash_of([1, 2]) != state_hash_of((1, 2))

    def test_set_order_independent(self):
        # Equal sets built in different insertion orders hash equal even
        # though their iteration order differs.
        a = set(["r{}".format(i) for i in range(100)])
        b = set(["r{}".format(i) for i in reversed(range(100))])
        assert state_hash_of(a) == state_hash_of(b)

    def test_dict_order_independent(self):
        a = {i: str(i) for i in range(50)}
        b = {i: str(i) for i in reversed(range(50))}
        assert state_hash_of(a) == state_hash_of(b)

    def test_huge_int_encodes(self):
        # Bloom bitfields exceed CPython's int→str digit limit.
        assert state_hash_of(1 << 100_000) != state_hash_of(1 << 100_001)

    def test_cycles_and_shared_refs(self):
        a = []
        a.append(a)
        b = []
        b.append(b)
        assert state_hash_of(a) == state_hash_of(b)
        shared = [1, 2]
        assert (state_hash_of([shared, shared])
                != state_hash_of([[1, 2], [1, 2]]))

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8)
        | st.floats(allow_nan=False),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=12)

    @given(value=json_values)
    @settings(max_examples=60, deadline=None)
    def test_hash_is_pure_and_pickle_stable(self, value):
        # Hashing is a pure function, and a pickle round trip (exactly
        # what save/load does) never changes the hash.
        assert state_hash_of(value) == state_hash_of(value)
        assert state_hash_of(pickle.loads(pickle.dumps(value))) \
            == state_hash_of(value)

    @given(items=st.lists(st.tuples(st.integers(), st.text(max_size=6)),
                          max_size=10, unique_by=lambda kv: kv[0]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_dict_hash_insertion_order_free(self, items, seed):
        shuffled = list(items)
        random.Random(seed).shuffle(shuffled)
        assert state_hash_of(dict(items)) == state_hash_of(dict(shuffled))

    def test_rng_position_is_state(self):
        r1, r2 = random.Random(9), random.Random(9)
        assert state_hash_of(r1) == state_hash_of(r2)
        r1.random()
        assert state_hash_of(r1) != state_hash_of(r2)


# ---------------------------------------------------------------------------
# Same seed, same hash.
# ---------------------------------------------------------------------------

class TestSameSeedSameHash:
    def test_intra_fresh_builds_agree(self):
        assert (snapshot.state_hash(build_intra())
                == snapshot.state_hash(build_intra()))

    def test_inter_fresh_builds_agree(self):
        assert (snapshot.state_hash(build_inter())
                == snapshot.state_hash(build_inter()))

    def test_different_seed_differs(self):
        assert (snapshot.state_hash(build_intra(seed=3))
                != snapshot.state_hash(build_intra(seed=4)))

    def test_hash_tracks_state_changes(self):
        net = build_intra()
        before = snapshot.state_hash(net)
        net.join_random_hosts(1)
        assert snapshot.state_hash(net) != before

    def test_hash_ignores_derived_cache_warmth(self):
        cold = build_intra()
        warm = build_intra()
        for _ in range(30):
            warm.paths.hop_path(*sorted(warm.routers)[:2])
        # SPF trees are rebuild-on-load, so oracle warmth is not state...
        # but the send itself advances RNGs/caches, so only *oracle*
        # queries are transparent.
        assert snapshot.state_hash(cold) == snapshot.state_hash(warm)

        # Interdomain: BGP tables, flushed candidate indexes and the
        # policy-path memos are read-path state too.
        cold = build_inter()
        warm = build_inter()
        warm.bgp.warm()
        warm.flush_indexes()
        for src in warm.ases:
            for dst in warm.ases:
                warm.policy.path_profile(src, dst)
                warm.policy.policy_path(src, dst)
        assert snapshot.state_hash(cold) == snapshot.state_hash(warm)


def _holders(net):
    """Every graph holder of a network."""
    if net.kind == "inter":
        return {"asg": net.asg}
    return {"topology": net.topology, "lsmap": net.lsmap}


def _shape(holder):
    """What a query must not touch and the hash does not see: which
    attributes the holder has, and the insertion order of its adjacency
    (dicts hash sorted, shortest-path ties break by this order)."""
    return (sorted(vars(holder)),
            [(node, list(nbrs)) for node, nbrs in holder.adjacency.items()])


def _pure_reads(net):
    """Reads that change nothing: every query over a graph holder."""
    if net.kind == "inter":
        a, b = sorted(net.asg.ases())[:2]
        return {
            "asg.links": lambda: list(net.asg.links()),
            "asg.validate": net.asg.validate,
            "asg.relationship": lambda: net.asg.relationship(a, b),
            "bgp.shortest_distance": lambda: net.bgp.shortest_distance(a, b)}
    a, b = sorted(net.topology.routers)[:2]
    return {
        "live_routers": net.lsmap.live_routers,
        "reachable": lambda: net.lsmap.reachable(a, b),
        "components": net.lsmap.components,
        "is_link_up": lambda: net.lsmap.is_link_up(a, b),
        "lsmap.links": lambda: list(net.lsmap.links()),
        "paths.hop_dist": lambda: net.paths.hop_dist(a, b),
        "paths.latency_ms": lambda: net.paths.latency_ms(a, b),
        "topology.links": lambda: list(net.topology.links()),
        "topology.diameter": net.topology.diameter,
        "topology.validate": net.topology.validate}


@pytest.mark.parametrize("kind", ["intra", "inter", "disco"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_hash_ignores_networkx_view_warmth(kind, data):
    """The hash is a pure function of state: no interleaving of pure reads
    moves it, or leaves anything behind on a graph holder of any kind.  (The
    name is the bug's: until schema 2 the codec walked ``nx.Graph.__dict__``,
    where networkx parked a view per kind of read.  Since schema 3 the
    holders are plain objects and there is no such place; the property
    stays.)"""
    from repro import build_network

    net = build_network(kind, 3, n_routers=16, n_ases=20, hosts=20)
    cold = snapshot.state_hash(net)
    shapes = {name: _shape(holder) for name, holder in _holders(net).items()}
    reads = _pure_reads(net)
    for name in data.draw(st.lists(st.sampled_from(sorted(reads)),
                                   min_size=1, max_size=6)):
        reads[name]()
        assert snapshot.state_hash(net) == cold, name
    for read in reads.values():
        read()
    assert snapshot.state_hash(net) == cold
    for name, holder in _holders(net).items():
        assert _shape(holder) == shapes[name], name


@pytest.mark.parametrize("kind", ["intra", "disco"])
def test_hash_still_tracks_the_live_map(kind):
    """What the queries show *is* state: a link going down and coming back
    moves the hash each time, whatever has been asked before."""
    from repro import build_network

    net = build_network(kind, 3, n_routers=16, hosts=20)
    for read in _pure_reads(net).values():
        read()
    a, b = sorted(net.topology.links())[0]
    seen = [snapshot.state_hash(net)]
    net.lsmap.fail_link(a, b)
    seen.append(snapshot.state_hash(net))
    net.lsmap.restore_link(a, b)
    seen.append(snapshot.state_hash(net))       # ``generation`` moved on
    assert len(set(seen)) == 3


GOLDEN_HASHES = json.loads(
    (Path(__file__).parent / "golden_state_hashes.json").read_text())


@pytest.mark.parametrize("kind, sizing, scenario", [
    ("intra", {"n_routers": 40}, "steady-churn"),
    ("inter", {"n_ases": 60}, "depeering")])
def test_state_hashes_match_the_parent_capture(kind, sizing, scenario):
    """A 300-host network, freshly built and again after a builtin churn
    and fault scenario ran on it, hashes to the pinned literals (see the
    module docstring before touching them)."""
    from repro import build_network
    from repro.workload import builtin_scenario, run_scenario

    net = build_network(kind, 0, hosts=300, **sizing)
    assert snapshot.state_hash(net) == GOLDEN_HASHES[kind]["fresh"]
    run_scenario(builtin_scenario(scenario), network=net)
    assert snapshot.state_hash(net) == GOLDEN_HASHES[kind]["after " + scenario]


# ---------------------------------------------------------------------------
# Round trips.
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_intra_save_load_hash_equal(self, tmp_path):
        net = build_intra()
        path = str(tmp_path / "intra.snap")
        digest = snapshot.save(net, path)
        loaded = snapshot.load(path, verify=True)
        assert snapshot.state_hash(loaded) == digest

    def test_inter_save_load_hash_equal(self, tmp_path):
        net = build_inter(cache_entries=64)
        path = str(tmp_path / "inter.snap")
        digest = snapshot.save(net, path)
        loaded = snapshot.load(path, verify=True)
        assert snapshot.state_hash(loaded) == digest

    def test_bloom_peering_round_trips(self, tmp_path):
        net = build_inter(hosts=40, peering_mode="bloom")
        path = str(tmp_path / "bloom.snap")
        digest = snapshot.save(net, path)
        loaded = snapshot.load(path, verify=True)
        assert snapshot.state_hash(loaded) == digest
        assert (net.send(*net.random_host_pair())
                == loaded.send(*loaded.random_host_pair()))

    def test_hundred_sends_byte_identical(self, tmp_path):
        net = build_inter()
        path = str(tmp_path / "inter.snap")
        snapshot.save(net, path)
        loaded = snapshot.load(path)
        for _ in range(100):
            pair = net.random_host_pair()
            assert pair == loaded.random_host_pair()
            assert net.send(*pair) == loaded.send(*pair)

    def test_joins_continue_identically_after_load(self, tmp_path):
        net = build_intra()
        path = str(tmp_path / "intra.snap")
        snapshot.save(net, path)
        loaded = snapshot.load(path)
        original = [(r.host_name, r.flat_id, r.router)
                    for r in net.join_random_hosts(15)]
        revived = [(r.host_name, r.flat_id, r.router)
                   for r in loaded.join_random_hosts(15)]
        assert original == revived

    def test_loaded_network_passes_invariant_probes(self, tmp_path):
        net = build_intra()
        path = str(tmp_path / "intra.snap")
        snapshot.save(net, path)
        loaded = snapshot.load(path)
        loaded.check_ring()
        assert snapshot.validate_network(loaded) == []

    def test_failure_injection_state_survives(self, tmp_path):
        net = build_intra(hosts=40)
        dead = sorted(net.routers)[1]
        net.fail_router(dead)
        path = str(tmp_path / "failed.snap")
        digest = snapshot.save(net, path)
        loaded = snapshot.load(path, verify=True)
        assert snapshot.state_hash(loaded) == digest
        assert not loaded.lsmap.is_router_up(dead)


# ---------------------------------------------------------------------------
# The file format.
# ---------------------------------------------------------------------------

class TestFormat:
    def test_header_is_first_line_json(self, tmp_path):
        net = build_intra(hosts=10)
        path = str(tmp_path / "net.snap")
        digest = snapshot.save(net, path, meta={"note": "hi"})
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["magic"] == snapshot.MAGIC
        assert header["schema"] == snapshot.SCHEMA_VERSION
        assert header["state_hash"] == digest
        assert header["kind"] == "IntraDomainNetwork"
        assert header["counts"]["hosts"] == 10
        assert header["meta"]["note"] == "hi"
        assert snapshot.describe(path) == header

    def test_version_mismatch_is_loud(self, tmp_path):
        net = build_intra(hosts=5)
        path = str(tmp_path / "net.snap")
        snapshot.save(net, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        assert snapshot.SCHEMA_VERSION == 3
        # A file from the future, and one from before each change of the
        # canonical stream (schema 1, up to PR 19; schema 2, PRs 20-21):
        # refused before the payload is touched, by the reader that only
        # wants the header too.
        for found in (snapshot.SCHEMA_VERSION + 1, 2, 1):
            header["schema"] = found
            with open(path, "wb") as fh:
                fh.write(json.dumps(header).encode() + b"\n" + payload)
            for read in (snapshot.load, snapshot.describe):
                with pytest.raises(snapshot.SchemaMismatchError) as exc:
                    read(path)
                assert "re-create the snapshot" in str(exc.value)
                assert exc.value.found == found

    def test_not_a_snapshot(self, tmp_path):
        path = str(tmp_path / "noise.bin")
        with open(path, "wb") as fh:
            fh.write(b"\x00\x01\x02 definitely not json\n more noise")
        with pytest.raises(snapshot.SnapshotError):
            snapshot.describe(path)
        with pytest.raises(snapshot.SnapshotError):
            snapshot.load(path)

    def test_corrupt_payload_detected(self, tmp_path):
        net = build_intra(hosts=5)
        path = str(tmp_path / "net.snap")
        snapshot.save(net, path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-20] + b"corruptcorruptcorrup")
        with pytest.raises(snapshot.SnapshotError):
            snapshot.load(path)

    def test_verify_catches_hash_drift(self, tmp_path):
        # A tampered header hash loads fine without verify but fails
        # with it.
        net = build_intra(hosts=5)
        path = str(tmp_path / "net.snap")
        snapshot.save(net, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        header["state_hash"] = "0" * 64
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + payload)
        snapshot.load(path)
        with pytest.raises(snapshot.SnapshotError, match="verification"):
            snapshot.load(path, verify=True)

    @pytest.mark.parametrize("field", ["state_hash", "kind", "counts", "meta"])
    def test_header_missing_a_field_is_a_snapshot_error(self, tmp_path,
                                                        field):
        # Right magic and schema, but a field every reader indexes is
        # gone (or mistyped): a structured error, not a KeyError.
        net = build_intra(hosts=5)
        path = str(tmp_path / "net.snap")
        snapshot.save(net, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        for broken in ({k: v for k, v in header.items() if k != field},
                       dict(header, **{field: 7})):
            with open(path, "wb") as fh:
                fh.write(json.dumps(broken).encode() + b"\n" + payload)
            with pytest.raises(snapshot.SnapshotError, match=field):
                snapshot.describe(path)
            with pytest.raises(snapshot.SnapshotError, match=field):
                snapshot.load(path, verify=True)

    def test_failed_save_keeps_the_previous_snapshot(self, tmp_path,
                                                     monkeypatch):
        from repro.snapshot import store

        net = build_intra(hosts=5)
        path = str(tmp_path / "net.snap")
        digest = snapshot.save(net, path)
        net.join_random_hosts(3)

        class DiskFull:
            """A file that takes the header line and then fails."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(store, "open",
                            lambda *args: DiskFull(open(*args)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            snapshot.save(net, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["net.snap"]
        assert snapshot.state_hash(snapshot.load(path, verify=True)) == digest
        assert snapshot.save(net, path) != digest
        assert [p.name for p in tmp_path.iterdir()] == ["net.snap"]
        snapshot.load(path, verify=True)


# ---------------------------------------------------------------------------
# Workload replay on a loaded network.
# ---------------------------------------------------------------------------

class TestWorkloadReplay:
    def test_scenario_on_loaded_network_is_deterministic(self, tmp_path):
        from repro.workload import builtin_scenario, run_scenario

        net = build_intra(seed=0, hosts=0, routers=40)
        path = str(tmp_path / "base.snap")
        snapshot.save(net, path)
        loaded = snapshot.load(path)

        a = run_scenario(builtin_scenario("steady-churn", seed=0),
                         network=net).deterministic_view()
        b = run_scenario(builtin_scenario("steady-churn", seed=0),
                         network=loaded).deterministic_view()
        assert a == b


# ---------------------------------------------------------------------------
# RNG registry: pickled whole, streams mid-tape.
# ---------------------------------------------------------------------------

class TestRngRegistry:
    def test_derive_is_cached_and_scoped(self):
        reg = RngRegistry(5)
        assert reg.derive("a") is reg.derive("a")
        assert reg.derive("a") is not reg.derive("b")
        assert len(reg) == 2

    def test_matches_bare_derive_rng(self):
        # The registry is a cache over derive_rng, not a new generator:
        # stream identity (and thus every historical tape) is preserved.
        assert (RngRegistry(3).derive("workload", "traffic").random()
                == derive_rng(3, "workload", "traffic").random())

    def test_registry_pickles_with_positions(self):
        reg = RngRegistry(1)
        reg.derive("x").random()
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.derive("x").random() == reg.derive("x").random()

    def test_seed_mismatch_rejected(self):
        from repro.topology.hosts import HostPlan
        with pytest.raises(ValueError):
            HostPlan(attachment_points=["r0"], seed=1,
                     registry=RngRegistry(2))


# ---------------------------------------------------------------------------
# The event loop.
# ---------------------------------------------------------------------------

class TestEventLoopPickle:
    def test_clock_and_pending_queue_survive(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, _Appender(fired, "a"))
        loop.schedule_at(2.0, _Appender(fired, "b"))
        loop.run(until=1.5)
        clone = pickle.loads(pickle.dumps(loop))
        assert clone.now == loop.now
        assert clone.pending == 1
        clone.run(until=3.0)
        assert clone.pending == 0

    def test_queue_is_written_in_firing_order(self):
        """Not in heap layout, which depends on the push history; and the
        sorted list a loaded loop starts from is a heap it can push into."""
        loop = EventLoop(on_event=print)
        fired = []
        for at in (5.0, 3.0, 4.0, 1.0, 2.0):
            loop.schedule_at(at, _Appender(fired, at))
        state = loop.__getstate__()
        assert [event.time for event in state["_heap"]] == [1, 2, 3, 4, 5]
        assert state["on_event"] is None
        clone = pickle.loads(pickle.dumps(loop))
        late = []
        clone.schedule_at(2.5, _Appender(late, 2.5))
        clone.run()
        assert late == [2.5] and clone.events_run == 6 and clone.now == 5.0


class _Appender:
    """A picklable stand-in for the lambdas real callers schedule."""

    def __init__(self, sink, value):
        self.sink, self.value = sink, value

    def __call__(self):
        self.sink.append(self.value)
