"""Generic data structures shared by the ROFL subsystems.

* :mod:`repro.util.bloom` — Bloom filters (plain + counting), used for
  peering shortcuts and pointer-cache isolation (paper Sections 4.1–4.2).
* :mod:`repro.util.ringmap` — a sorted circular map supporting successor /
  predecessor / greedy lookups in ``O(log n)``.
* :mod:`repro.util.rng` — deterministic random helpers (seed derivation,
  Zipf sampling) so every experiment is reproducible.
"""
