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
