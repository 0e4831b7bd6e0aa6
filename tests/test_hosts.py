"""Host population planning (skitter substitute)."""

import pytest

from repro.idspace.crypto import SignatureAuthority
from repro.topology.hosts import HostPlan


def test_plan_is_deterministic():
    a = HostPlan(["r1", "r2", "r3"], seed=4).take(20)
    b = HostPlan(["r1", "r2", "r3"], seed=4).take(20)
    assert [(h.name, h.attach_at, h.flat_id) for h in a] == \
           [(h.name, h.attach_at, h.flat_id) for h in b]


def test_distinct_seeds_give_distinct_populations():
    a = HostPlan(["r1", "r2"], seed=1).take(10)
    b = HostPlan(["r1", "r2"], seed=2).take(10)
    assert [h.flat_id for h in a] != [h.flat_id for h in b]


def test_ids_are_unique():
    hosts = HostPlan(["r"], seed=0).take(200)
    assert len({h.flat_id for h in hosts}) == 200


def test_weighted_attachment():
    plan = HostPlan(["big", "small"], seed=0, weights=[100.0, 1.0])
    hosts = plan.take(200)
    big = sum(1 for h in hosts if h.attach_at == "big")
    assert big > 150


def test_ephemeral_fraction():
    plan = HostPlan(["r"], seed=0, ephemeral_fraction=0.5)
    hosts = plan.take(300)
    eph = sum(1 for h in hosts if h.ephemeral)
    assert 100 < eph < 200


def test_ephemeral_fraction_bounds():
    with pytest.raises(ValueError):
        HostPlan(["r"], ephemeral_fraction=1.5)


def test_validation():
    with pytest.raises(ValueError):
        HostPlan([])
    with pytest.raises(ValueError):
        HostPlan(["a"], weights=[1.0, 2.0])


def test_keys_registered_with_shared_authority():
    authority = SignatureAuthority()
    host = HostPlan(["r"], seed=0, authority=authority).take(1)[0]
    proof = host.key_pair.prove_ownership(b"c")
    from repro.idspace.crypto import authenticate
    assert authenticate(proof, authority) == host.flat_id
