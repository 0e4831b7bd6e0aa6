"""Group identifier (G, x) tests: every member of group G carries G's
prefix, so the group occupies one contiguous arc of the ring."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.idspace.groups import DEFAULT_GROUP_BITS, group_prefix, make_member_id
from repro.idspace.identifier import DEFAULT_BITS, FlatId

SUFFIX_BITS = DEFAULT_BITS - DEFAULT_GROUP_BITS


def in_group(flat_id: FlatId, name: str) -> bool:
    return flat_id.prefix_bits(DEFAULT_GROUP_BITS) == group_prefix(name)


def test_members_share_prefix():
    assert in_group(make_member_id("dns", 1), "dns")
    assert in_group(make_member_id("dns", 99), "dns")


def test_different_groups_different_prefixes():
    assert group_prefix("dns") != group_prefix("web")


def test_suffix_must_fit():
    with pytest.raises(ValueError):
        make_member_id("g", 1 << SUFFIX_BITS)
    with pytest.raises(ValueError):
        make_member_id("g", -1)


def test_group_bits_validation():
    with pytest.raises(ValueError):
        group_prefix("g", bits=128, group_bits=128)
    with pytest.raises(ValueError):
        group_prefix("g", bits=128, group_bits=0)


def test_arc_bounds_cover_exactly_the_group():
    low = make_member_id("metrics", 0)
    high = make_member_id("metrics", (1 << SUFFIX_BITS) - 1)
    assert in_group(low, "metrics") and in_group(high, "metrics")
    # One either side of the arc is a different group prefix.
    assert not in_group(FlatId(low.value - 1), "metrics")
    assert not in_group(FlatId(high.value + 1), "metrics")


def test_flat_id_matches_make_member_id():
    """(G, x) is G's prefix followed by the suffix x."""
    assert make_member_id("svc", 7) == FlatId(
        (group_prefix("svc") << SUFFIX_BITS) | 7)


@given(st.text(min_size=1, max_size=20),
       st.integers(min_value=0, max_value=(1 << SUFFIX_BITS) - 1))
def test_member_ids_parse_back_to_suffix(name, suffix):
    member = make_member_id(name, suffix)
    assert in_group(member, name)
    assert member.value & ((1 << SUFFIX_BITS) - 1) == suffix


@given(st.text(min_size=1, max_size=20))
def test_arc_is_contiguous(name):
    low = make_member_id(name, 0)
    high = make_member_id(name, (1 << SUFFIX_BITS) - 1)
    assert in_group(low, name) and in_group(high, name)
    assert high.value - low.value == (1 << SUFFIX_BITS) - 1
