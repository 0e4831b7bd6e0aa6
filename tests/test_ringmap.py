"""SortedRingMap: the circular index under the interdomain level rings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.idspace.identifier import FlatId, RingSpace
from repro.util.ringmap import SortedRingMap

SPACE = RingSpace(bits=16)
ids16 = st.integers(min_value=0, max_value=(1 << 16) - 1).map(
    lambda v: FlatId(v, bits=16))


def make_map(values):
    ring = SortedRingMap(SPACE)
    for v in values:
        ring.insert(SPACE.make(v), "v{}".format(v))
    return ring


class TestBasics:
    def test_insert_get_remove(self):
        ring = make_map([5, 10])
        assert ring[SPACE.make(5)] == "v5"
        assert len(ring) == 2
        assert ring.remove(SPACE.make(5)) == "v5"
        assert SPACE.make(5) not in ring

    def test_insert_replaces_value(self):
        ring = make_map([5])
        ring.insert(SPACE.make(5), "new")
        assert len(ring) == 1
        assert ring[SPACE.make(5)] == "new"

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            make_map([1]).remove(SPACE.make(2))

    def test_discard_is_silent(self):
        make_map([1]).discard(SPACE.make(2))

    def test_iteration_is_sorted(self):
        ring = make_map([30, 10, 20])
        assert [k.value for k in ring] == [10, 20, 30]


class TestCircularQueries:
    def test_successor_wraps(self):
        ring = make_map([10, 20, 30])
        assert ring.successor(SPACE.make(30)).value == 10
        assert ring.successor(SPACE.make(25)).value == 30

    def test_successor_strictness(self):
        ring = make_map([10, 20])
        assert ring.successor(SPACE.make(10), strict=True).value == 20
        assert ring.successor(SPACE.make(10), strict=False).value == 10

    def test_predecessor_wraps(self):
        ring = make_map([10, 20, 30])
        assert ring.predecessor(SPACE.make(10)).value == 30
        assert ring.predecessor(SPACE.make(25)).value == 20

    def test_predecessor_strictness(self):
        ring = make_map([10, 20])
        assert ring.predecessor(SPACE.make(20), strict=True).value == 10
        assert ring.predecessor(SPACE.make(20), strict=False).value == 20

    def test_empty_map_returns_none(self):
        ring = SortedRingMap(SPACE)
        assert ring.successor(SPACE.make(1)) is None
        assert ring.predecessor(SPACE.make(1)) is None
        assert ring.closest_not_past_value(0, 5) is None

    def test_closest_not_past(self):
        ring = make_map([5, 50, 90])
        assert ring.closest_not_past_value(0, 60) == 50
        assert ring.closest_not_past_value(60, 80) is None


@given(st.sets(st.integers(min_value=0, max_value=(1 << 16) - 1),
               min_size=1, max_size=40), ids16)
def test_successor_matches_brute_force(values, probe):
    ring = make_map(sorted(values))
    expected = min((v for v in values if v > probe.value), default=min(values))
    assert ring.successor(probe).value == expected


@given(st.sets(st.integers(min_value=0, max_value=(1 << 16) - 1),
               min_size=1, max_size=40), ids16)
def test_predecessor_matches_brute_force(values, probe):
    ring = make_map(sorted(values))
    expected = max((v for v in values if v < probe.value), default=max(values))
    assert ring.predecessor(probe).value == expected


@given(st.sets(st.integers(min_value=0, max_value=(1 << 16) - 1),
               min_size=1, max_size=40), ids16)
def test_nonstrict_predecessor_minimises_cw_distance(values, probe):
    ring = make_map(sorted(values))
    best = min(values, key=lambda v: SPACE.distance_cw(SPACE.make(v), probe))
    assert SPACE.distance_cw(
        ring.predecessor(probe, strict=False), probe) == SPACE.distance_cw(
        SPACE.make(best), probe)
