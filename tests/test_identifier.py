"""Unit + property tests for the flat identifier namespace."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.idspace.identifier import DEFAULT_BITS, FlatId, RingSpace

SPACE = RingSpace(bits=16)  # small space so wrap-around cases are common

ids16 = st.integers(min_value=0, max_value=(1 << 16) - 1).map(
    lambda v: FlatId(v, bits=16))


class TestFlatId:
    def test_value_wraps_into_namespace(self):
        assert FlatId(1 << 16, bits=16).value == 0
        assert FlatId(-1, bits=16).value == (1 << 16) - 1

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            FlatId(1, bits=0)

    def test_from_bytes_is_deterministic(self):
        assert FlatId.from_bytes(b"x") == FlatId.from_bytes(b"x")
        assert FlatId.from_bytes(b"x") != FlatId.from_bytes(b"y")

    def test_default_width_is_128_bits(self):
        assert FlatId.from_bytes(b"x").bits == DEFAULT_BITS == 128

    def test_hex_round_trip(self):
        fid = FlatId.from_bytes(b"round-trip")
        assert FlatId.from_hex(fid.to_hex()) == fid

    def test_hex_is_fixed_width(self):
        assert len(FlatId(1, bits=16).to_hex()) == 4

    def test_ordering_is_numeric(self):
        assert FlatId(3, bits=16) < FlatId(5, bits=16)
        assert sorted([FlatId(9, bits=16), FlatId(2, bits=16)])[0].value == 2

    def test_ids_with_different_bits_are_unequal(self):
        assert FlatId(5, bits=16) != FlatId(5, bits=32)

    def test_hashable_and_usable_in_sets(self):
        assert len({FlatId(1, bits=16), FlatId(1, bits=16)}) == 1

    def test_prefix_bits(self):
        fid = FlatId(0b1010_0000_0000_0000, bits=16)
        assert fid.prefix_bits(4) == 0b1010
        assert fid.prefix_bits(0) == 0
        with pytest.raises(ValueError):
            fid.prefix_bits(17)

    def test_digit_rows(self):
        fid = FlatId(0xABCD, bits=16)
        assert fid.digit(0, 4) == 0xA
        assert fid.digit(3, 4) == 0xD
        with pytest.raises(ValueError):
            fid.digit(4, 4)


class TestRingSpace:
    def test_distance_cw_basic(self):
        a, b = SPACE.make(10), SPACE.make(20)
        assert SPACE.distance_cw(a, b) == 10
        assert SPACE.distance_cw(b, a) == SPACE.size - 10

    def test_distance_to_self_is_zero(self):
        a = SPACE.make(42)
        assert SPACE.distance_cw(a, a) == 0

    def test_progress_rejects_overshoot(self):
        cur, dest = SPACE.make(0), SPACE.make(10)
        assert SPACE.progress(cur, SPACE.make(11), dest) is None
        assert SPACE.progress(cur, SPACE.make(10), dest) == 10
        assert SPACE.progress(cur, SPACE.make(4), dest) == 4

    def test_closest_not_past_picks_max_progress(self):
        cur, dest = SPACE.make(0), SPACE.make(100)
        cands = [SPACE.make(v) for v in (5, 99, 101, 250)]
        assert SPACE.closest_not_past(cur, dest, cands) == SPACE.make(99)

    def test_closest_not_past_none_when_all_overshoot(self):
        cur, dest = SPACE.make(0), SPACE.make(10)
        assert SPACE.closest_not_past(cur, dest,
                                      [SPACE.make(20), SPACE.make(50)]) is None



# -- property tests --------------------------------------------------------------


@given(ids16, ids16, ids16)
def test_distance_triangle_identity(a, b, c):
    """Clockwise distances around the ring compose modulo the ring size."""
    lhs = (SPACE.distance_cw(a, b) + SPACE.distance_cw(b, c)) % SPACE.size
    assert lhs == SPACE.distance_cw(a, c)


@given(ids16, ids16)
def test_distance_antisymmetry(a, b):
    if a != b:
        assert SPACE.distance_cw(a, b) + SPACE.distance_cw(b, a) == SPACE.size
    else:
        assert SPACE.distance_cw(a, b) == 0


@given(ids16, ids16, st.lists(ids16, min_size=1, max_size=20))
def test_closest_not_past_matches_brute_force(cur, dest, candidates):
    expected = None
    best = 0
    for cand in candidates:
        adv = SPACE.progress(cur, cand, dest)
        if adv is not None and adv > best:
            expected, best = cand, adv
    assert SPACE.closest_not_past(cur, dest, candidates) == expected


@given(ids16, ids16, ids16)
def test_progress_never_exceeds_distance_to_dest(cur, cand, dest):
    adv = SPACE.progress(cur, cand, dest)
    if adv is not None:
        assert 0 <= adv <= SPACE.distance_cw(cur, dest)
