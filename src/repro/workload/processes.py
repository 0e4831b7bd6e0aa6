"""Stochastic processes for the workload engine (arrivals, lifetimes,
rate modulation, destination popularity).

Everything here is *declarative-friendly*: each process is a dataclass
whose fields are the parameters a ``{"kind": ..., ...}`` spec dict may
carry (:data:`PROCESSES` names them; the codec of
:mod:`repro.workload.scenario` checks a spec against the fields and
builds the process) and draws exclusively from an externally-supplied
:class:`random.Random`, so the driver controls the
:func:`repro.util.rng.derive_rng` scoping and determinism.

The distributions mirror the churn literature the paper sits in:
"Scalable Routing on Flat Names" (Singla et al.) drives exactly these
protocols with Poisson arrivals and Pareto session lifetimes; flash
crowds and diurnal load swings are the standard serving-stack stress
shapes.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence


class SpecError(ValueError):
    """A process parameter out of its range."""


# ---------------------------------------------------------------------------
# Rate modulation — multiplies a base arrival/traffic rate over time.
# ---------------------------------------------------------------------------

class RateModulation:
    """Time-varying multiplier applied to a base event rate."""

    def factor(self, t: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def peak_factor(self) -> float:
        """An upper bound on :meth:`factor` (used for thinning)."""
        raise NotImplementedError


@dataclass
class FlatModulation(RateModulation):
    """No modulation: factor 1 at all times."""

    def factor(self, t: float) -> float:
        return 1.0

    def peak_factor(self) -> float:
        return 1.0


@dataclass
class FlashCrowd(RateModulation):
    """A transient spike: rate multiplies by ``peak`` inside a window,
    with linear ramps of ``ramp`` time units on each side."""

    start: float = 0.0
    end: float = 0.0
    peak: float = 2.0
    ramp: float = 0.0

    def __post_init__(self):
        if self.end <= self.start:
            raise SpecError("flash crowd end must follow start")
        if self.peak < 1.0:
            raise SpecError("flash crowd peak must be >= 1")
        if self.ramp < 0:
            raise SpecError("ramp must be non-negative")

    def factor(self, t: float) -> float:
        if self.ramp > 0:
            if self.start - self.ramp <= t < self.start:
                frac = (t - (self.start - self.ramp)) / self.ramp
                return 1.0 + (self.peak - 1.0) * frac
            if self.end <= t < self.end + self.ramp:
                frac = 1.0 - (t - self.end) / self.ramp
                return 1.0 + (self.peak - 1.0) * frac
        if self.start <= t < self.end:
            return self.peak
        return 1.0

    def peak_factor(self) -> float:
        return self.peak


@dataclass
class DiurnalModulation(RateModulation):
    """A day/night sinusoid: factor swings between ``low`` and ``high``
    over one ``period`` (peak at ``period/4``)."""

    period: float
    low: float = 0.5
    high: float = 1.5

    def __post_init__(self):
        if self.period <= 0:
            raise SpecError("period must be positive")
        if not 0 <= self.low <= self.high:
            raise SpecError("need 0 <= low <= high")

    def factor(self, t: float) -> float:
        mid = (self.high + self.low) / 2.0
        amp = (self.high - self.low) / 2.0
        return mid + amp * math.sin(2.0 * math.pi * t / self.period)

    def peak_factor(self) -> float:
        return self.high


# ---------------------------------------------------------------------------
# Arrival processes — sequences of inter-event delays.
# ---------------------------------------------------------------------------

class PoissonProcess:
    """A (possibly modulated) Poisson arrival process.

    Modulation is implemented by thinning: candidate arrivals are drawn
    at the peak rate and accepted with probability
    ``factor(t) / peak_factor`` — the textbook non-homogeneous Poisson
    construction, and deterministic given one RNG stream.
    """

    def __init__(self, rate: float,
                 modulation: Optional[RateModulation] = None):
        if rate <= 0:
            raise SpecError("rate must be positive")
        self.rate = rate
        self.modulation = modulation or FlatModulation()

    def next_arrival(self, rng: random.Random, now: float) -> float:
        """Delay from ``now`` until the next accepted arrival."""
        peak = self.rate * self.modulation.peak_factor()
        t = now
        while True:
            t += rng.expovariate(peak)
            accept = (self.rate * self.modulation.factor(t)) / peak
            if rng.random() < accept:
                return t - now


# ---------------------------------------------------------------------------
# Session lifetimes.
# ---------------------------------------------------------------------------

class LifetimeDistribution:
    """Samples how long a joined host stays before departing."""

    def sample(self, rng: random.Random) -> float:  # pragma: no cover
        raise NotImplementedError


@dataclass
class ParetoLifetime(LifetimeDistribution):
    """Heavy-tailed session lifetime ``scale * Pareto(shape)``.

    ``shape`` near 1 gives the infinite-variance churn the DHT literature
    measures for peer sessions; ``scale`` is the minimum lifetime.
    """

    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise SpecError("pareto shape and scale must be positive")

    def sample(self, rng: random.Random) -> float:
        return self.scale * rng.paretovariate(self.shape)


@dataclass
class WeibullLifetime(LifetimeDistribution):
    """Weibull lifetime (shape < 1: bursty departures; > 1: aging)."""

    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise SpecError("weibull shape and scale must be positive")

    def sample(self, rng: random.Random) -> float:
        return rng.weibullvariate(self.scale, self.shape)


@dataclass
class ExponentialLifetime(LifetimeDistribution):
    """Memoryless lifetime with the given mean."""

    mean: float

    def __post_init__(self):
        if self.mean <= 0:
            raise SpecError("mean lifetime must be positive")

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)


@dataclass
class FixedLifetime(LifetimeDistribution):
    """Deterministic lifetime (useful in tests)."""

    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise SpecError("fixed lifetime must be positive")

    def sample(self, rng: random.Random) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Destination popularity.
# ---------------------------------------------------------------------------

@dataclass
class ZipfPopularity:
    """Zipf destination popularity over an ordered live population.

    Rank is join order (oldest host = rank 1), matching the observation
    that long-lived members accumulate the most inbound traffic.  One
    prefix-sum column of the raw weights ``1/k^s`` serves every
    population size: it grows by appending when a larger population shows
    up, and a pick bisects its first ``n`` entries — the draw
    ``random.choices`` makes (one ``random()``, ``hi = n - 1``) without a
    normalised vector per size; scaling both sides of the comparison by
    the total leaves the chosen index where it was.
    """

    exponent: float = 1.0
    #: ``_cum[k-1]`` = sum of ``1/j^s`` over ``j <= k``.
    _cum: List[float] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if self.exponent < 0:
            raise SpecError("zipf exponent must be non-negative")

    def pick(self, rng: random.Random, population: Sequence[str]) -> str:
        n = len(population)
        if not n:
            raise ValueError("empty population")
        cum = self._cum
        if len(cum) < n:
            total = cum[-1] if cum else 0.0
            for k in range(len(cum) + 1, n + 1):
                total += 1.0 / (k ** self.exponent)
                cum.append(total)
        return population[bisect_right(cum, rng.random() * cum[n - 1],
                                       0, n - 1)]


@dataclass
class UniformPopularity:
    """Every live destination equally likely."""

    def pick(self, rng: random.Random, population: Sequence[str]) -> str:
        if not population:
            raise ValueError("empty population")
        return rng.choice(population)


#: What a scenario may say in a ``lifetime``, ``modulation`` or
#: ``popularity`` spec: kind → the dataclass whose fields are its
#: parameters.  No spec is no departure, no modulation, uniform picks.
PROCESSES = {
    "lifetime": {"pareto": ParetoLifetime, "weibull": WeibullLifetime,
                 "exponential": ExponentialLifetime, "fixed": FixedLifetime},
    "modulation": {"flat": FlatModulation, "flash_crowd": FlashCrowd,
                   "diurnal": DiurnalModulation},
    "popularity": {"uniform": UniformPopularity, "zipf": ZipfPopularity},
}
