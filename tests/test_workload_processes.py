"""Tests for the workload stochastic processes."""

import random
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import derive_rng
from repro.workload.processes import (DiurnalModulation, FixedLifetime,
                                      FlashCrowd, FlatModulation,
                                      PoissonProcess, SpecError,
                                      UniformPopularity, ZipfPopularity)
from repro.workload.scenario import ScenarioError, process
from tests import workload_reference


def test_poisson_mean_interarrival_matches_rate():
    rng = derive_rng(0, "poisson")
    proc = PoissonProcess(rate=4.0)
    gaps = [proc.next_arrival(rng, 0.0) for _ in range(4000)]
    mean = sum(gaps) / len(gaps)
    assert 0.22 < mean < 0.28  # 1/rate = 0.25


def test_poisson_thinning_follows_flash_crowd():
    mod = FlashCrowd(start=10.0, end=20.0, peak=5.0)
    proc = PoissonProcess(rate=2.0, modulation=mod)
    rng = derive_rng(1, "thinning")
    t, inside, outside = 0.0, 0, 0
    while t < 30.0:
        t += proc.next_arrival(rng, t)
        if t < 30.0:
            if 10.0 <= t < 20.0:
                inside += 1
            else:
                outside += 1
    # 10 units at 5x the rate vs 20 units at 1x: expect ~100 vs ~40.
    assert inside > 1.5 * outside


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(SpecError):
        PoissonProcess(rate=0.0)


def test_flash_crowd_ramp_and_window():
    mod = FlashCrowd(start=10.0, end=20.0, peak=3.0, ramp=2.0)
    assert mod.factor(5.0) == 1.0
    assert mod.factor(9.0) == pytest.approx(2.0)   # halfway up the ramp
    assert mod.factor(15.0) == 3.0
    assert mod.factor(21.0) == pytest.approx(2.0)  # halfway down
    assert mod.factor(25.0) == 1.0
    assert mod.peak_factor() == 3.0


def test_diurnal_factor_stays_in_band():
    mod = DiurnalModulation(period=24.0, low=0.4, high=1.6)
    values = [mod.factor(t / 4.0) for t in range(0, 24 * 4)]
    assert all(0.4 - 1e-9 <= v <= 1.6 + 1e-9 for v in values)
    assert max(values) > 1.5 and min(values) < 0.5
    assert mod.peak_factor() == 1.6


def test_modulation_from_spec_kinds():
    assert process("modulation", None) is None    # PoissonProcess: flat
    assert isinstance(PoissonProcess(rate=1.0).modulation, FlatModulation)
    mod = process("modulation", {"kind": "flash_crowd", "start": 1,
                                 "end": 2.0, "peak": 4.0})
    assert mod == FlashCrowd(start=1.0, end=2.0, peak=4.0, ramp=0.0)
    assert isinstance(mod.start, float)     # a declared float, widened
    # ``flat`` is what ``null`` says, so it is no kind of its own.
    for kind in ({"kind": "square-wave"}, {}, {"kind": ["flat"]},
                 {"kind": "flat"}):
        with pytest.raises(ScenarioError, match="unknown modulation kind"):
            process("modulation", kind)
    with pytest.raises(ScenarioError, match="period must be positive"):
        process("modulation", {"kind": "diurnal", "period": -1.0})
    with pytest.raises(ScenarioError, match="'diurnal' missing 'period'"):
        process("modulation", {"kind": "diurnal"})
    with pytest.raises(ScenarioError, match="unknown key 'peak'"):
        process("modulation", {"kind": "diurnal", "period": 1.0, "peak": 2})


def test_lifetime_from_spec_kinds_and_sampling():
    assert process("lifetime", None) is None
    rng = derive_rng(2, "life")
    fixed = process("lifetime", {"kind": "fixed", "value": 7.0})
    assert isinstance(fixed, FixedLifetime)
    assert fixed.sample(rng) == 7.0
    pareto = process("lifetime", {"kind": "pareto", "shape": 1.5,
                                  "scale": 10.0})
    samples = [pareto.sample(rng) for _ in range(2000)]
    assert min(samples) >= 10.0  # scale is the minimum lifetime
    with pytest.raises(ScenarioError, match="must be positive"):
        process("lifetime", {"kind": "pareto", "shape": -1, "scale": 1})
    for kind in ("lognormal", "exponential"):
        with pytest.raises(ScenarioError, match="unknown lifetime kind"):
            process("lifetime", {"kind": kind, "mean": 5.0})


def test_zipf_popularity_prefers_low_ranks():
    pop = ZipfPopularity(exponent=1.2)
    rng = derive_rng(3, "zipf")
    population = ["h{}".format(i) for i in range(50)]
    picks = [pop.pick(rng, population) for _ in range(3000)]
    head = sum(1 for p in picks if p in population[:5])
    tail = sum(1 for p in picks if p in population[-5:])
    assert head > 3 * tail
    # One prefix column serves every pick: as long as the largest
    # population seen, never one vector per call or per size.
    assert len(pop._cum) == 50


class _IndexOnly(Sequence):
    """A population that can be measured and indexed but counts every
    element read: a ``list(population)`` copy reads all of them."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        self.reads += 1
        return self.items[index]


@given(exponent=st.floats(min_value=0.0, max_value=3.0),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       sizes=st.lists(st.integers(min_value=1, max_value=5000),
                      min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_zipf_pick_matches_the_per_size_reference(exponent, seed, sizes):
    """The raw-weight prefix column against the parent's normalised
    per-size vectors (``tests/workload_reference.py``): populations
    growing and shrinking between picks, same element, and the stream
    left in the same state (one ``random()`` per pick)."""
    new, old = ZipfPopularity(exponent), \
        workload_reference.ZipfPopularity(exponent)
    rng_new, rng_old = random.Random(seed), random.Random(seed)
    hosts = list(range(max(sizes)))
    for n in sizes:
        for _ in range(3):
            assert new.pick(rng_new, hosts[:n]) == old.pick(rng_old, hosts[:n])
        assert rng_new.getstate() == rng_old.getstate()


def test_zipf_column_is_bounded_by_the_largest_population():
    """Noise-free memory guard: 1 000 distinct sizes cost max-n floats
    (the parent kept one normalised vector per size, the sum of them)."""
    pop, rng = ZipfPopularity(exponent=1.0), derive_rng(4, "zipf-sizes")
    hosts = list(range(1500))
    sizes = list(range(500, 1500))
    rng.shuffle(sizes)
    for n in sizes:
        pop.pick(rng, hosts[:n])
    assert len(pop._cum) == max(sizes)


@pytest.mark.parametrize("popularity",
                         [ZipfPopularity(exponent=0.9), UniformPopularity()],
                         ids=["zipf", "uniform"])
def test_pick_reads_one_element_not_a_copy_of_the_population(popularity):
    population = _IndexOnly(["h{}".format(i) for i in range(400)])
    rng = derive_rng(5, "no-copy")
    picks = [popularity.pick(rng, population) for _ in range(50)]
    assert population.reads == 50
    assert set(picks) <= set(population.items)
    with pytest.raises(ValueError):
        popularity.pick(rng, _IndexOnly([]))


def test_uniform_pick_draws_what_the_list_copy_drew():
    population = tuple("h{}".format(i) for i in range(37))
    a, b = derive_rng(6, "uniform"), derive_rng(6, "uniform")
    for _ in range(200):
        assert UniformPopularity().pick(a, population) == \
            b.choice(list(population))
    assert a.getstate() == b.getstate()


def test_popularity_from_spec_and_empty_population():
    assert process("popularity", None) is None    # the driver: uniform
    assert process("popularity", {"kind": "zipf"}) == ZipfPopularity(1.0)
    # ``uniform`` is what ``null`` says, so it is no kind of its own.
    for kind in ("lru", "uniform"):
        with pytest.raises(ScenarioError, match="unknown popularity kind"):
            process("popularity", {"kind": kind})
    rng = derive_rng(0)
    with pytest.raises(ValueError):
        UniformPopularity().pick(rng, [])
    with pytest.raises(ValueError):
        ZipfPopularity().pick(rng, [])


def test_processes_are_deterministic_per_stream():
    proc = PoissonProcess(rate=3.0, modulation=FlashCrowd(5.0, 8.0, 2.0))
    a = [proc.next_arrival(derive_rng(7, "s", i), 0.0) for i in range(20)]
    b = [proc.next_arrival(derive_rng(7, "s", i), 0.0) for i in range(20)]
    assert a == b
