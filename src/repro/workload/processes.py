"""Stochastic processes for the workload engine (arrivals, lifetimes,
rate modulation, destination popularity).

Everything here is *declarative-friendly*: each process is built from a
plain ``{"kind": ..., ...}`` spec dict (what :mod:`repro.workload.scenario`
round-trips through JSON) and draws exclusively from an
externally-supplied :class:`random.Random`, so the driver controls the
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
from typing import Dict, List, Optional, Sequence


class SpecError(ValueError):
    """A malformed process spec (unknown kind / bad parameter)."""


def _require_positive(spec: Dict, key: str, default=None) -> float:
    value = spec.get(key, default)
    if value is None:
        raise SpecError("spec {!r} missing {!r}".format(spec, key))
    value = float(value)
    if value <= 0:
        raise SpecError("{!r} must be positive, got {!r}".format(key, value))
    return value


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


class FlatModulation(RateModulation):
    """No modulation: factor 1 at all times."""

    def factor(self, t: float) -> float:
        return 1.0

    def peak_factor(self) -> float:
        return 1.0


class FlashCrowd(RateModulation):
    """A transient spike: rate multiplies by ``peak`` inside a window,
    with linear ramps of ``ramp`` time units on each side."""

    def __init__(self, start: float, end: float, peak: float,
                 ramp: float = 0.0):
        if end <= start:
            raise SpecError("flash crowd end must follow start")
        if peak < 1.0:
            raise SpecError("flash crowd peak must be >= 1")
        if ramp < 0:
            raise SpecError("ramp must be non-negative")
        self.start, self.end, self.peak, self.ramp = start, end, peak, ramp

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


class DiurnalModulation(RateModulation):
    """A day/night sinusoid: factor swings between ``low`` and ``high``
    over one ``period`` (peak at ``period/4``)."""

    def __init__(self, period: float, low: float = 0.5, high: float = 1.5):
        if period <= 0:
            raise SpecError("period must be positive")
        if not 0 <= low <= high:
            raise SpecError("need 0 <= low <= high")
        self.period, self.low, self.high = period, low, high

    def factor(self, t: float) -> float:
        mid = (self.high + self.low) / 2.0
        amp = (self.high - self.low) / 2.0
        return mid + amp * math.sin(2.0 * math.pi * t / self.period)

    def peak_factor(self) -> float:
        return self.high


def modulation_from_spec(spec: Optional[Dict]) -> RateModulation:
    if spec is None:
        return FlatModulation()
    kind = spec.get("kind", "flat")
    if kind == "flat":
        return FlatModulation()
    if kind == "flash_crowd":
        return FlashCrowd(start=float(spec.get("start", 0.0)),
                          end=float(spec.get("end", 0.0)),
                          peak=_require_positive(spec, "peak", 2.0),
                          ramp=float(spec.get("ramp", 0.0)))
    if kind == "diurnal":
        return DiurnalModulation(period=_require_positive(spec, "period"),
                                 low=float(spec.get("low", 0.5)),
                                 high=float(spec.get("high", 1.5)))
    raise SpecError("unknown modulation kind {!r}".format(kind))


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


class ParetoLifetime(LifetimeDistribution):
    """Heavy-tailed session lifetime ``scale * Pareto(shape)``.

    ``shape`` near 1 gives the infinite-variance churn the DHT literature
    measures for peer sessions; ``scale`` is the minimum lifetime.
    """

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise SpecError("pareto shape and scale must be positive")
        self.shape, self.scale = shape, scale

    def sample(self, rng: random.Random) -> float:
        return self.scale * rng.paretovariate(self.shape)


class WeibullLifetime(LifetimeDistribution):
    """Weibull lifetime (shape < 1: bursty departures; > 1: aging)."""

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise SpecError("weibull shape and scale must be positive")
        self.shape, self.scale = shape, scale

    def sample(self, rng: random.Random) -> float:
        return rng.weibullvariate(self.scale, self.shape)


class ExponentialLifetime(LifetimeDistribution):
    """Memoryless lifetime with the given mean."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise SpecError("mean lifetime must be positive")
        self.mean = mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)


class FixedLifetime(LifetimeDistribution):
    """Deterministic lifetime (useful in tests)."""

    def __init__(self, value: float):
        if value <= 0:
            raise SpecError("fixed lifetime must be positive")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        return self.value


def lifetime_from_spec(spec: Optional[Dict]) -> Optional[LifetimeDistribution]:
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "pareto":
        return ParetoLifetime(shape=_require_positive(spec, "shape"),
                              scale=_require_positive(spec, "scale"))
    if kind == "weibull":
        return WeibullLifetime(shape=_require_positive(spec, "shape"),
                               scale=_require_positive(spec, "scale"))
    if kind == "exponential":
        return ExponentialLifetime(mean=_require_positive(spec, "mean"))
    if kind == "fixed":
        return FixedLifetime(value=_require_positive(spec, "value"))
    raise SpecError("unknown lifetime kind {!r}".format(kind))


# ---------------------------------------------------------------------------
# Destination popularity.
# ---------------------------------------------------------------------------

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

    def __init__(self, exponent: float = 1.0):
        if exponent < 0:
            raise SpecError("zipf exponent must be non-negative")
        self.exponent = exponent
        self._cum: List[float] = []  # _cum[k-1] = sum of 1/j^s over j <= k

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


class UniformPopularity:
    """Every live destination equally likely."""

    def pick(self, rng: random.Random, population: Sequence[str]) -> str:
        if not population:
            raise ValueError("empty population")
        return rng.choice(population)


def popularity_from_spec(spec: Optional[Dict]):
    if spec is None:
        return UniformPopularity()
    kind = spec.get("kind", "uniform")
    if kind == "uniform":
        return UniformPopularity()
    if kind == "zipf":
        return ZipfPopularity(exponent=float(spec.get("exponent", 1.0)))
    raise SpecError("unknown popularity kind {!r}".format(kind))
