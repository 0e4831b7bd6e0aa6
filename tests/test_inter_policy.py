"""Policy view: virtual ASes, join chains, valley-free paths, import rules."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.inter.policy import JoinStrategy, PolicyView, VirtualAS
from repro.topology.asgraph import ASGraph, synthetic_as_graph
from repro.util import perf
from tests.policy_reference import _policy_path_bfs


@pytest.fixture()
def small_internet():
    """Two tier-1s (peered), two tier-2s (peered), three stubs."""
    asg = ASGraph()
    asg.add_as("T1a", tier=1)
    asg.add_as("T1b", tier=1)
    asg.add_as("T2a", tier=2)
    asg.add_as("T2b", tier=2)
    asg.add_as("S1", tier=3, hosts=5)
    asg.add_as("S2", tier=3, hosts=5)
    asg.add_as("S3", tier=3, hosts=5)
    asg.add_peering("T1a", "T1b")
    asg.add_customer_provider("T2a", "T1a")
    asg.add_customer_provider("T2b", "T1b")
    asg.add_peering("T2a", "T2b")
    asg.add_customer_provider("S1", "T2a")
    asg.add_customer_provider("S2", "T2b")
    asg.add_customer_provider("S2", "T2a")      # multihomed
    asg.add_customer_provider("S3", "T2b", backup=False)
    return asg


@pytest.fixture()
def view(small_internet):
    return PolicyView(small_internet)


class TestVirtualAses:
    def test_tier1_clique_becomes_root(self, view):
        assert isinstance(view.root, VirtualAS)
        assert view.root.members == frozenset({"T1a", "T1b"})

    def test_peer_link_gets_virtual_as(self, view):
        assert VirtualAS(frozenset({"T2a", "T2b"})) in view.virtual_ases

    def test_root_subtree_is_everything(self, view, small_internet):
        assert view.subtree(view.root) == set(small_internet.ases())

    def test_virtual_as_subtree_union(self, view):
        vas = VirtualAS(frozenset({"T2a", "T2b"}))
        assert view.subtree(vas) == {"T2a", "T2b", "S1", "S2", "S3"}

    def test_virtual_as_needs_two_members(self):
        with pytest.raises(ValueError):
            VirtualAS(frozenset({"only"}))

    def test_level_containment(self, view):
        vas = VirtualAS(frozenset({"T2a", "T2b"}))
        assert view.level_contained_in("S1", "T2a")
        assert view.level_contained_in("T2a", view.root)
        assert view.level_contained_in(vas, view.root)
        assert not view.level_contained_in("T2a", "T2b")
        assert not view.level_contained_in(view.root, "T2a")


class TestJoinChains:
    def test_ephemeral_chain_is_home_plus_root(self, view):
        chain = view.join_chain("S1", JoinStrategy.EPHEMERAL)
        assert chain == ["S1", view.root]

    def test_single_homed_follows_one_path(self, view):
        chain = view.join_chain("S2", JoinStrategy.SINGLE_HOMED)
        assert chain[0] == "S2"
        # Only one of the two providers appears.
        assert ("T2a" in chain) != ("T2b" in chain)
        assert view.root in chain

    def test_single_homed_via_provider(self, view):
        chain = view.join_chain("S2", JoinStrategy.SINGLE_HOMED,
                                via_provider="T2b")
        assert "T2b" in chain and "T2a" not in chain
        with pytest.raises(ValueError):
            view.join_chain("S2", JoinStrategy.SINGLE_HOMED,
                            via_provider="T1a")

    def test_multihomed_covers_up_hierarchy(self, view):
        chain = view.join_chain("S2", JoinStrategy.MULTIHOMED)
        assert {"S2", "T2a", "T2b", "T1a", "T1b"} - set(chain) in (set(),)
        assert view.root in chain

    def test_peering_adds_adjacent_virtual_ases(self, view):
        chain = view.join_chain("S1", JoinStrategy.PEERING)
        assert VirtualAS(frozenset({"T2a", "T2b"})) in chain

    def test_chain_is_innermost_first(self, view):
        chain = view.join_chain("S1", JoinStrategy.PEERING)
        sizes = [len(view.subtree(lvl)) for lvl in chain]
        assert sizes == sorted(sizes)


class TestValleyFree:
    def test_step_types(self, view):
        assert view.step_type("S1", "T2a") == "up"
        assert view.step_type("T2a", "S1") == "down"
        assert view.step_type("T2a", "T2b") == "peer"
        assert view.step_type("S1", "S2") is None

    def test_route_validity(self, view):
        assert view.route_is_valley_free(("S1", "T2a", "T2b", "S2"))
        assert view.route_is_valley_free(("S1", "T2a", "T1a", "T1b", "T2b"))
        # Down then up is a valley.
        assert not view.route_is_valley_free(("T2a", "S1", "T2a"))
        # Two peer crossings are not allowed.
        assert not view.route_is_valley_free(
            ("S1", "T2a", "T2b", "T2a"))

    def test_policy_path_prefers_short_valid(self, view):
        path = view.policy_path("S1", "S2")
        assert path is not None
        assert view.route_is_valley_free(path)
        assert path[0] == "S1" and path[-1] == "S2"

    def test_scoped_path_stays_in_subtree(self, view):
        path = view.policy_path("S1", "S2", scope="T2a")
        assert path == ("S1", "T2a", "S2")
        # Scope T2b cannot reach S1.
        assert view.policy_path("S1", "S2", scope="T2b") is None

    def test_scoped_path_peer_links_only_in_virtual_as(self, view):
        vas = VirtualAS(frozenset({"T2a", "T2b"}))
        path = view.policy_path("S1", "S3", scope=vas)
        assert path is not None and view.route_is_valley_free(path)
        assert ("T2a", "T2b") in zip(path, path[1:])

    def test_same_as_path(self, view):
        assert view.policy_path("S1", "S1") == ("S1",)


class TestImportRule:
    def test_from_customer_anything_goes(self, view):
        assert view.shortcut_allowed("S1", "T2a", ("T2a", "T1a"))

    def test_from_peer_only_down(self, view):
        assert not view.shortcut_allowed("T2b", "T2a", ("T2a", "T1a"))
        assert view.shortcut_allowed("T2b", "T2a", ("T2a", "S1"))

    def test_from_provider_only_down(self, view):
        assert not view.shortcut_allowed("T1a", "T2a", ("T2a", "T2b", "S2"))
        assert view.shortcut_allowed("T1a", "T2a", ("T2a", "S1"))

    def test_fresh_packet_unrestricted(self, view):
        assert view.shortcut_allowed(None, "T2a", ("T2a", "T1a"))


class TestPathTreeOracle:
    """``policy_path`` answers from one BFS tree per ``(src, scope)``;
    ``tests/policy_reference.py`` is the per-destination early-exit search
    it replaced, kept verbatim as the specification (its ``use_backup``
    is always False: paths never cross backup links)."""

    @settings(max_examples=12, deadline=None)
    @given(n_ases=st.integers(min_value=8, max_value=22),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_every_query_equals_the_early_exit_search(self, n_ases, seed):
        asg = synthetic_as_graph(n_ases=n_ases, seed=seed)
        view = PolicyView(asg)
        ases = asg.ases()
        scopes = [None] + ases + view.virtual_ases
        for scope in scopes:
            for src in ases:
                for dst in ases:
                    assert view.policy_path(src, dst, scope) \
                        == _policy_path_bfs(view, src, dst, scope, False), \
                        (src, dst, scope)

    def test_one_tree_answers_every_destination(self, view):
        trees = perf.value("inter.policy.bfs_trees")
        for dst in ("S1", "S2", "S3", "T2a", "T2b", "T1a", "T1b", "nowhere"):
            view.policy_path("S1", dst)
            view.policy_path("S1", dst, scope="T2a")
        assert perf.value("inter.policy.bfs_trees") == trees + 2

    def test_one_path_object_per_query_key(self, view):
        """The state hash sees which pointers share a route tuple, so a
        key must keep handing out one object — also for ``src == dst``,
        and a different one under a different scope."""
        for dst in ("S1", "S2"):
            assert view.policy_path("S1", dst) is view.policy_path("S1", dst)
            assert view.policy_path("S1", dst, scope="T2a") \
                is not view.policy_path("S1", dst)

    def test_level_route_is_the_scoped_tuple_else_the_unscoped_one(self, view):
        """Every pointer route falls back the same way, and stores the
        memo's own tuple: which pointers share one is hashed state."""
        assert view.level_route("S1", "S2", "T2a") \
            is view.policy_path("S1", "S2", scope="T2a")
        # S3 hangs below T2b only, outside T2a's subtree.
        assert view.policy_path("S1", "S3", scope="T2a") is None
        assert view.level_route("S1", "S3", "T2a") \
            is view.policy_path("S1", "S3")

    def test_memo_adds_no_state_key(self, view):
        """A memo stored under a new attribute would move every state hash
        (``__getstate__`` is what the codec walks)."""
        view.policy_path("S1", "S2")
        state = view.__getstate__()
        assert set(state) == {
            "asg", "hierarchy", "virtual_ases", "_vas_by_member",
            "_subtree_cache", "_policy_path_cache", "_step_cache",
            "_profile_cache", "root"}
        assert state["_policy_path_cache"] == {}
