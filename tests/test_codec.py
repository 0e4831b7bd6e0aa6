"""The compiled canonical encoder against the walker it replaced.

``tests/codec_reference.py`` is the pre-PR-14 ``_Walker``, verbatim: the
byte format every stored snapshot header and CI hash gate is written
against.  The shipped encoder must emit the same *stream* — memo numbering,
back-references and sort order included — so every test here compares
concatenated bytes, not digests.
"""

import collections
import enum
import gc
import itertools
import random
import weakref
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.identifier import FlatId
from repro.snapshot.codec import (CanonicalizationError, canonical_update,
                                  state_hash_of)
from tests.codec_reference import reference_update
from repro.topology.graph import RouterTopology
from tests.test_snapshot import build_inter, build_intra


def stream(update_fn, obj) -> bytes:
    chunks = []
    update_fn(obj, chunks.append)
    return b"".join(chunks)


def outcome(update_fn, obj):
    """The stream, or the type of the exception the walk ended in."""
    try:
        return stream(update_fn, obj)
    except Exception as exc:  # compared, not swallowed
        return type(exc)


def assert_same_stream(obj) -> None:
    assert outcome(canonical_update, obj) == outcome(reference_update, obj)


# ---------------------------------------------------------------------------
# Every kind of value the encoder has a rule for.
# ---------------------------------------------------------------------------

class Color(enum.Enum):
    RED = 1
    BLUE = "b"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class MyInt(int):
    pass


class MyStr(str):
    pass


class MyList(list):
    pass


class MyTuple(tuple):
    pass


Pair = collections.namedtuple("Pair", "left right")


class Table(dict):
    """A dict subclass with an attribute of its own (the encoder sees only
    the items)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.note = "ignored"


class Plain:
    def __init__(self, **attrs):
        self.__dict__.update(attrs)

    def method(self):
        return None


class Slotted:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class SlottedWithDict(Slotted):
    def __init__(self, a, b, c):
        super().__init__(a, b)
        self.c = c


class Stateful:
    """``__getstate__`` mints a fresh dict per call, like the classes that
    drop derived caches."""

    def __init__(self, kept, cache):
        self.kept, self.cache = kept, cache

    def __getstate__(self):
        return {"kept": self.kept, "flush_epoch": 0}


class CustomState:
    def __init__(self, state):
        self.state = state

    def __getstate__(self):
        return self.state


class Invocable:
    def __call__(self):
        return None


class Broken:
    def __getstate__(self):
        raise RuntimeError("no state for you")


def module_function():
    return None


def advanced_rng(seed, draws):
    rng = random.Random(seed)
    for _ in range(draws):
        rng.random()
    return rng


class GraphBuilder:
    """Builds one random object graph from a ``random.Random``.

    Memoised objects go into ``pool`` the moment they exist — mutable
    containers before their children — so later draws can reference
    siblings (shared references) and ancestors (cycles).
    """

    LEAVES = 19
    HASHABLE_CONTAINERS = 3
    CONTAINERS = 14

    def __init__(self, rng):
        self.rng = rng
        self.pool = []
        self.key_pool = []

    def text(self):
        alphabet = "abé中:;0"
        return "".join(self.rng.choice(alphabet)
                       for _ in range(self.rng.randint(0, 5)))

    def leaf(self, pick=None):  # noqa: C901 - a type switch
        rng = self.rng
        pick = rng.randrange(self.LEAVES) if pick is None else pick
        if pick == 0:
            return None
        if pick == 1:
            return rng.random() < 0.5
        if pick == 2:
            return rng.randint(-300, 300)
        if pick == 3:
            return rng.choice((1, -1)) << rng.randint(60, 20000)
        if pick == 4:
            return rng.choice((0.0, -0.0, 1.5, -2.25e300, float("inf"),
                               1e-320, rng.random()))
        if pick == 5:
            return self.text()
        if pick == 6:
            return self.text().encode("utf-8")
        if pick == 7:
            return FlatId(rng.getrandbits(128), bits=rng.choice((16, 128)))
        if pick == 8:
            return rng.choice((Color.RED, Color.BLUE, Level.LOW, Level.HIGH))
        if pick == 9:
            return MyInt(rng.randint(0, 9))
        if pick == 10:
            return MyStr(self.text())
        if pick == 11:
            return rng.choice((len, module_function, Plain, dict.fromkeys,
                               Plain.method, "abc".upper))
        # Unhashable or identity-hashed leaves from here on.
        if pick == 12:
            return bytearray(self.text().encode("utf-8"))
        if pick == 13:
            return array(rng.choice("iLd"),
                         [rng.randint(0, 99) for _ in range(rng.randint(0, 4))])
        if pick == 14:
            return itertools.count(rng.randint(0, 5), rng.randint(1, 3))
        if pick == 15:
            return self.pooled(advanced_rng(rng.randint(0, 3),
                                            rng.randint(0, 2)))
        if pick == 16:
            return Plain(x=1).method
        if pick == 17:
            probe = Invocable()
            if rng.random() < 0.5:
                probe.__qualname__ = "probe"
            return probe
        return self.reference()

    def pooled(self, obj):
        self.pool.append(obj)
        return obj

    def reference(self):
        return self.rng.choice(self.pool) if self.pool else None

    def hashable(self, depth):
        rng = self.rng
        if self.key_pool and rng.random() < 0.15:
            return rng.choice(self.key_pool)
        if depth <= 0 or rng.random() < 0.6:
            return self.leaf(rng.randrange(12))
        size = rng.randint(0, 3)
        pick = rng.randrange(self.HASHABLE_CONTAINERS)
        if pick == 0:
            key = tuple(self.hashable(depth - 1) for _ in range(size))
        elif pick == 1:
            key = frozenset(self.hashable(depth - 1) for _ in range(size))
        else:
            key = Pair(self.hashable(depth - 1), self.hashable(depth - 1))
        self.key_pool.append(key)
        return key

    def attrs(self, depth):
        names = self.rng.sample(("id", "home_as", "route", "level", "kind",
                                 "état"), self.rng.randint(0, 4))
        return {name: self.value(depth) for name in names}

    def items(self, depth):
        return [(self.hashable(2), self.value(depth))
                for _ in range(self.rng.randint(0, 4))]

    def value(self, depth):  # noqa: C901 - a type switch
        rng = self.rng
        if depth <= 0 or rng.random() < 0.35:
            return self.leaf()
        if rng.random() < 0.1:
            return self.hashable(2)
        depth -= 1
        size = rng.randint(0, 4)
        pick = rng.randrange(self.CONTAINERS)
        if pick in (0, 1):
            out = self.pooled([] if pick == 0 else MyList())
            out.extend(self.value(depth) for _ in range(size))
            return out
        if pick == 2:
            return self.pooled(tuple(self.value(depth) for _ in range(size)))
        if pick == 3:
            return self.pooled(MyTuple(self.value(depth)
                                       for _ in range(size)))
        if pick == 4:
            kind = rng.choice((set, frozenset))
            return self.pooled(kind(self.hashable(2) for _ in range(size)))
        if pick in (5, 6, 7):
            kind = (dict, collections.OrderedDict, Table)[pick - 5]
            out = self.pooled(kind())
            out.update(self.items(depth))
            return out
        if pick == 8:
            return self.pooled(collections.Counter(
                self.hashable(1) for _ in range(size)))
        if pick == 9:
            out = self.pooled(Plain())
            out.__dict__.update(self.attrs(depth))
            return out
        if pick == 10:
            out = self.pooled(Slotted(None, None))
            out.a, out.b = self.value(depth), self.value(depth)
            return out
        if pick == 11:
            out = self.pooled(SlottedWithDict(None, None, None))
            out.a, out.c = self.value(depth), self.value(depth)
            return out
        if pick == 12:
            out = self.pooled(Stateful(None, cache=object()))
            out.kept = self.value(depth)
            return out
        state = rng.choice((None, 7, "s"))
        if rng.random() < 0.7:
            state = dict(self.items(depth))
            state.update(self.attrs(depth))
        return self.pooled(CustomState(state))


class TestStreamEquality:
    @given(rng=st.randoms(use_true_random=False), depth=st.integers(1, 5))
    @settings(max_examples=400, deadline=None)
    def test_random_graphs(self, rng, depth):
        assert_same_stream(GraphBuilder(rng).value(depth))

    @pytest.mark.parametrize("pick", range(GraphBuilder.LEAVES))
    def test_every_leaf_kind(self, pick):
        builder = GraphBuilder(random.Random(pick))
        builder.pooled([1])
        value = builder.leaf(pick)
        assert stream(canonical_update, value) \
            == stream(reference_update, value)
        # ... and as a member of each container.
        assert_same_stream([value, (value,), {"k": value}, Plain(v=value)])

    def test_cycles_and_shared_references(self):
        ring = []
        ring.append(ring)
        shared = (1, "a")
        node = Plain(name="n", peers=[shared, shared])
        node.me = node
        node.peers.append(node.__dict__)
        assert_same_stream([ring, shared, node, node, {shared: ring}])

    def test_a_graph_is_its_attributes_nodes_and_adjacency(self):
        """Through the ordinary ``O`` production since schema 3 (schema 2 had
        an ``X`` for ``nx.Graph``): the package's graphs are dicts of dicts
        on plain objects, and a pure query leaves nothing behind on one."""
        def build():
            topo = RouterTopology("isp")
            topo.add_router("a", pop=1)
            topo.add_router("b")
            topo.add_link("a", "b", latency_ms=2.5)
            return topo

        cold = stream(canonical_update, build())
        assert cold == stream(reference_update, build())
        assert cold == (
            b"O35:repro.topology.graph.RouterTopology{"
            b"s4:names3:isp"
            b"s4:pops{i0x1;[s1:a]}"
            b"s5:nodes{s1:a{s3:popi0x1;s4:roles4:edge}"
            b"s1:b{s3:popN;s4:roles4:edge}}"
            b"s9:adjacency{s1:a{s1:bf2.5;}s1:b{s1:af2.5;}}}o")
        asked = build()
        asked.diameter(), asked.is_connected(), list(asked.links())
        asked.routers, asked.n_links, asked.edge_routers(), asked.validate()
        assert stream(canonical_update, asked) == cold
        relinked = build()
        relinked.add_link("a", "b", latency_ms=3.5)
        assert stream(canonical_update, relinked) != cold
        assert_same_stream(relinked)

    def test_container_keys_share_the_memo(self):
        # A tuple key seen first as a value is a back-reference in the
        # sort-key pass, and a key seen first as a key is one as a value.
        key, other = (1, (2, 3)), frozenset([(4,), "x"])
        assert_same_stream([key, {key: 1, other: key}, {other: 2}, other])
        assert_same_stream({(1, (2, 3)): "a", (1, (2, 4)): "b",
                            frozenset([1, 2]): {(1, 2): None}})

    def test_state_keys_are_encoded_by_their_own_type(self):
        # Equal key tuples, different key types: the shape cache must not
        # hand the ``str`` plan to a ``str``-subclass or non-``str`` key.
        plain = CustomState({"a": 1, "b": 2})
        fancy = CustomState({MyStr("a"): 1, "b": 2})
        mixed = CustomState({1: "x", "b": 2})
        truth = CustomState({True: "x", "b": 2})
        assert_same_stream([plain, fancy, plain, mixed, truth])
        assert_same_stream([mixed, truth, fancy, plain])

    def test_one_class_many_shapes(self):
        objs = [Plain(a=1), Plain(b=2, a=1), Plain(a=3, b=4), Plain(),
                Plain(a=None), Plain(**{"é": 1, "e": 2})]
        assert_same_stream(objs + objs)

    def test_invocable_instances_are_judged_one_by_one(self):
        # ``hasattr(obj, "__qualname__")`` is the one instance-level test in
        # the fallback chain: a per-class shortcut must not cover it.
        plain, named = Invocable(), Invocable()
        named.__qualname__ = "named"
        assert_same_stream([plain, named, Invocable(), named])
        assert_same_stream([named, plain])

    def test_equal_encodings_fall_back_to_comparing_values(self):
        # Two distinct keys that encode alike make the pair sort compare
        # the values, as it always has.
        twins = {Plain(): 2, Plain(): 1}
        assert_same_stream(twins)
        clash = {Plain(): {}, Plain(): {1: 2}}
        assert outcome(canonical_update, clash) is TypeError
        assert outcome(reference_update, clash) is TypeError

    def test_long_flat_containers_cross_the_buffer_bound(self):
        assert_same_stream([list(range(5000)),
                            {i: str(i) for i in range(5000)},
                            set(range(3000)),
                            [Plain(i=i) for i in range(3000)]])

    def test_deep_nesting_needs_no_more_stack_than_before(self):
        deep = node = []
        for _ in range(600):
            node.append([])
            node = node[0]
        assert_same_stream(deep)
        chain = link = Plain(next=None)
        for _ in range(150):
            link.next = Plain(next=None)
            link = link.next
        assert_same_stream(chain)


class TestNetworks:
    def test_intra(self):
        assert_same_stream(build_intra(hosts=40))

    def test_inter(self):
        assert_same_stream(build_inter(hosts=50, cache_entries=16))

    def test_bloom_peering(self):
        assert_same_stream(build_inter(hosts=30, peering_mode="bloom"))

    def test_failed_router(self):
        net = build_intra(hosts=40)
        net.fail_router(sorted(net.routers)[1])
        assert_same_stream(net)

    def test_after_churn(self):
        from repro.workload import builtin_scenario, run_scenario

        net = build_intra(seed=0, hosts=0, routers=30)
        run_scenario(builtin_scenario("steady-churn", seed=0), network=net)
        assert_same_stream(net)


class TestErrors:
    @pytest.mark.parametrize("wrap", [
        lambda bad: bad,
        lambda bad: [1, {"k": (bad,)}],
        lambda bad: Plain(inner=bad),
        lambda bad: {(1, bad): 2},
        lambda bad: {frozenset([bad])},
    ])
    def test_unencodable_state_raises(self, wrap):
        with pytest.raises(CanonicalizationError, match="Broken"):
            state_hash_of(wrap(Broken()))
        assert outcome(reference_update, wrap(Broken())) \
            is CanonicalizationError

    def test_sort_key_sink_is_restored_after_an_error(self):
        # The error surfaces from inside a key's private buffer; the walk
        # is over, but nothing may be left pointing at that buffer.
        assert outcome(canonical_update, {(Broken(),): 1}) \
            is CanonicalizationError
        assert_same_stream({(1,): 1})


class Token:
    pass


class MintsTokens:
    """State that exists only while the walk keeps it alive."""

    def __init__(self, minted):
        self.minted = minted

    def __getstate__(self):
        token = Token()
        self.minted.add(token)
        return {"token": token, "again": [token]}


def test_walk_is_freed_by_refcount_alone():
    # ``save`` pickles with the cyclic GC paused right after hashing: a
    # walker caught in a reference cycle would carry its memo (tens of MB
    # at 5k hosts) into the pickle's peak RSS.
    minted = weakref.WeakSet()
    graph = [MintsTokens(minted) for _ in range(3)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        state_hash_of(graph)
        assert len(minted) == 0
        chunks = []
        canonical_update(graph, chunks.append)
        assert len(minted) == 0
        with pytest.raises(CanonicalizationError):
            state_hash_of([graph, Broken()])
        assert len(minted) == 0
    finally:
        if was_enabled:
            gc.enable()
