"""Compact routing on flat names (Disco-style, DESIGN.md §13).

A landmark-based flat-label routing plane with a *provable* worst-case
stretch bound — the counterpoint baseline to ROFL's unbounded tail:

* :mod:`repro.compact.landmarks` — deterministic ``~sqrt(R)`` landmark
  election and Thorup–Zwick vicinity balls;
* :mod:`repro.compact.resolve` — name-independent locator directory
  (flat ID → resolver landmark) and per-router locator caches;
* :mod:`repro.compact.network` — :class:`DiscoNetwork`, the
  :class:`repro.network.Network` kind ``"disco"``, with traced forwarding
  and ``stretch_bound = 3.0``.
"""

from repro.compact.landmarks import (LandmarkPlan, build_plan,
                                     elect_landmarks, landmark_count)
from repro.compact.network import DiscoNetwork
from repro.compact.resolve import (Locator, LocatorCache, ResolverDirectory,
                                   resolver_of)

__all__ = [
    "DiscoNetwork",
    "LandmarkPlan",
    "Locator",
    "LocatorCache",
    "ResolverDirectory",
    "build_plan",
    "elect_landmarks",
    "landmark_count",
    "resolver_of",
]
