"""Host populations (the CAIDA-skitter substitute, DESIGN.md §3.2).

The paper estimates hosts per AS/ISP from skitter traces normalised to a
600 M-host Internet; we reproduce the *shape* (a highly uneven, Zipf-like
spread) with a configurable total, and provide deterministic host
generation: each planned host has a stable seed, so identical experiment
seeds give identical populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.idspace.crypto import KeyPair, SignatureAuthority
from repro.idspace.identifier import FlatId
from repro.util.rng import RngRegistry, derive_rng

#: The Internet size the paper normalises to (Section 6.1).
PAPER_INTERNET_HOSTS = 600_000_000


@dataclass(frozen=True)
class PlannedHost:
    """One host the experiment will join: where it attaches and its keys."""

    name: str
    attach_at: Hashable          # router (intradomain) or AS (interdomain)
    key_pair: KeyPair
    ephemeral: bool = False

    @property
    def flat_id(self) -> FlatId:
        return self.key_pair.flat_id


class HostTable(dict):
    """A ``name → virtual node`` dict with an incrementally maintained
    insertion-order name list.

    ``names`` is kept exactly equal to ``list(table)`` at all times, so
    hot paths that sample random live hosts (``random_host_pair``, every
    open-loop traffic generator) can draw from a ready list instead of
    materialising all N keys per packet — the O(N)-per-send term behind
    the 10k-host interdomain throughput cliff.  Keeping the *same* order
    as ``list(dict)`` (not swap-pop) preserves byte-for-byte same-seed
    replay: identical population, identical ``rng.sample`` draws.
    Removal is O(N) but only churn/failure paths remove hosts.
    """

    __slots__ = ("names",)

    def __init__(self) -> None:
        super().__init__()
        self.names: List[str] = []

    def __setitem__(self, key, value) -> None:
        if key not in self:
            self.names.append(key)
        super().__setitem__(key, value)

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self.names.remove(key)

    def pop(self, key, *default):
        present = key in self
        value = super().pop(key, *default)
        if present:
            self.names.remove(key)
        return value

    def popitem(self):
        key, value = super().popitem()
        self.names.remove(key)
        return key, value

    def clear(self) -> None:
        super().clear()
        self.names.clear()

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
            return default
        return self[key]

    def update(self, *args, **kwargs) -> None:
        for mapping in args:
            items = mapping.items() if hasattr(mapping, "items") else mapping
            for key, value in items:
                self[key] = value
        for key, value in kwargs.items():
            self[key] = value

    def __reduce__(self):
        # The default dict-subclass reduction replays items through
        # ``__setitem__`` *before* ``__setstate__`` assigns the ``names``
        # slot, which crashes on the ``self.names.append`` above.  Rebuild
        # from the item list instead; re-inserting in order reproduces
        # ``names`` exactly (it is always equal to ``list(self)``).
        return (_host_table_from_items, (list(self.items()),))


def _host_table_from_items(items) -> "HostTable":
    table = HostTable()
    for key, value in items:
        table[key] = value
    return table


class HostPlan:
    """Deterministic host population for one experiment.

    ``attachment_points`` is the list of places hosts can live (edge
    routers for intradomain, host-bearing ASes for interdomain) with an
    optional weight per point (e.g. the AS's skitter-style host count).
    """

    def __init__(
        self,
        attachment_points: List[Hashable],
        seed: int = 0,
        weights: Optional[List[float]] = None,
        ephemeral_fraction: float = 0.0,
        authority: Optional[SignatureAuthority] = None,
        registry: Optional[RngRegistry] = None,
    ):
        if not attachment_points:
            raise ValueError("no attachment points")
        if weights is not None and len(weights) != len(attachment_points):
            raise ValueError("weights length mismatch")
        if not 0.0 <= ephemeral_fraction <= 1.0:
            raise ValueError("ephemeral_fraction out of range")
        if registry is not None and registry.seed != seed:
            raise ValueError("registry seed {!r} != plan seed {!r}".format(
                registry.seed, seed))
        self.attachment_points = list(attachment_points)
        self.weights = list(weights) if weights is not None else None
        self.seed = seed
        self.ephemeral_fraction = ephemeral_fraction
        self.authority = authority or SignatureAuthority()
        # Same stream either way ("hostplan" scope under ``seed``); a
        # caller-supplied registry just makes the stream enumerable for
        # snapshot capture/restore.
        self._rng = (registry.derive("hostplan") if registry is not None
                     else derive_rng(seed, "hostplan"))
        self._made = 0

    def next_host(self) -> PlannedHost:
        """Mint the next host deterministically."""
        index = self._made
        self._made += 1
        if self.weights is not None:
            attach = self._rng.choices(self.attachment_points,
                                       weights=self.weights, k=1)[0]
        else:
            attach = self._rng.choice(self.attachment_points)
        name = "h{}".format(index)
        key = KeyPair.generate(
            seed="{}:{}".format(self.seed, name).encode("utf-8"),
            authority=self.authority)
        ephemeral = self._rng.random() < self.ephemeral_fraction
        return PlannedHost(name=name, attach_at=attach, key_pair=key,
                           ephemeral=ephemeral)

    def take(self, n: int) -> List[PlannedHost]:
        return [self.next_host() for _ in range(n)]
