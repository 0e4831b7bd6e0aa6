"""The flat identifier namespace ROFL routes on.

ROFL identifiers are flat: they carry no location semantics, only
(optionally) cryptographic content.  This package provides:

* :class:`repro.idspace.identifier.FlatId` — an immutable 128-bit label.
* :class:`repro.idspace.identifier.RingSpace` — circular namespace math
  (clockwise distance, interval membership, greedy progress).
* :mod:`repro.idspace.crypto` — self-certifying identities: an ID is the
  hash of a public key, and joins must prove possession of the private key.
* :mod:`repro.idspace.groups` — ``(G, x)`` group identifiers used for
  anycast, multicast and traffic engineering (Section 5 of the paper).
"""
