"""The declarative :class:`Scenario` spec (JSON-round-trippable).

A scenario composes three ingredient streams over a bounded run of
virtual time:

* **churn** — per-phase host arrival processes plus session-lifetime
  distributions (hosts depart when their lifetime expires);
* **traffic** — per-phase open-loop packet generators with a destination
  popularity model;
* **faults** — absolutely-timed injections (link cuts, router crashes,
  AS de-peering, PoP partition cycles, host crashes) that drive the
  existing recovery machinery.

``Scenario.to_dict()`` / ``Scenario.from_dict()`` round-trip through
plain JSON types; :data:`BUILTIN_SCENARIOS` names ready-made examples
used by the CLI, the test-suite, and the benchmark sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.network import KINDS
from repro.workload.faults import INJECTORS
from repro.workload.processes import (SpecError, lifetime_from_spec,
                                      modulation_from_spec,
                                      popularity_from_spec)


class ScenarioError(ValueError):
    """A malformed or inconsistent scenario description."""


VALID_DEPARTURES = ("leave", "fail")


def _as_mapping(value, what: str) -> Dict:
    if not isinstance(value, dict):
        raise ScenarioError("{} must be a mapping, got {!r}".format(
            what, type(value).__name__))
    return value


@dataclass
class NetworkSpec:
    """What network the scenario runs against.

    ``kind`` is a :data:`repro.network.KINDS` key: ``"inter"`` (AS-level
    Internet, sized by ``n_ases``) or one of the kinds over one ISP
    (``"intra"`` and the baselines, sized by ``n_routers``).  Sizing knobs
    map straight onto :func:`repro.build_network`.
    """

    kind: str = "intra"
    n_routers: int = 40
    n_ases: int = 60
    name: str = "workload"
    cache_entries: Optional[int] = None
    n_fingers: int = 8

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ScenarioError("network kind must be one of {}, got "
                                "{!r}".format(", ".join(KINDS), self.kind))
        if self.kind == "inter" and self.n_ases < 2:
            raise ScenarioError("need at least 2 ASes")
        if self.kind != "inter" and self.n_routers < 2:
            raise ScenarioError("need at least 2 routers")

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "name": self.name,
                     "n_fingers": self.n_fingers}
        if self.kind == "inter":
            out["n_ases"] = self.n_ases
        else:
            out["n_routers"] = self.n_routers
        if self.cache_entries is not None:
            out["cache_entries"] = self.cache_entries
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "NetworkSpec":
        data = _as_mapping(data, "network")
        spec = cls(kind=data.get("kind", "intra"),
                   n_routers=int(data.get("n_routers", 40)),
                   n_ases=int(data.get("n_ases", 60)),
                   name=data.get("name", "workload"),
                   cache_entries=data.get("cache_entries"),
                   n_fingers=int(data.get("n_fingers", 8)))
        spec.validate()
        return spec


@dataclass
class ChurnSpec:
    """Host arrivals (rate per time unit) and optional session lifetimes."""

    arrival_rate: float
    lifetime: Optional[Dict] = None      # processes.lifetime_from_spec spec
    modulation: Optional[Dict] = None    # processes.modulation_from_spec spec
    departure: str = "leave"             # graceful "leave" or crash "fail"

    def validate(self) -> None:
        if self.arrival_rate < 0:
            raise ScenarioError("arrival_rate must be non-negative")
        if self.departure not in VALID_DEPARTURES:
            raise ScenarioError("departure must be one of {}, got {!r}".format(
                VALID_DEPARTURES, self.departure))
        try:  # fail fast on bad sub-specs rather than mid-run
            lifetime_from_spec(self.lifetime)
            modulation_from_spec(self.modulation)
        except SpecError as exc:
            raise ScenarioError(str(exc)) from exc

    def to_dict(self) -> Dict:
        out: Dict = {"arrival_rate": self.arrival_rate,
                     "departure": self.departure}
        if self.lifetime is not None:
            out["lifetime"] = dict(self.lifetime)
        if self.modulation is not None:
            out["modulation"] = dict(self.modulation)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "ChurnSpec":
        data = _as_mapping(data, "churn")
        if "arrival_rate" not in data:
            raise ScenarioError("churn spec missing 'arrival_rate'")
        spec = cls(arrival_rate=float(data["arrival_rate"]),
                   lifetime=data.get("lifetime"),
                   modulation=data.get("modulation"),
                   departure=data.get("departure", "leave"))
        spec.validate()
        return spec


@dataclass
class TrafficSpec:
    """Open-loop packet generation (rate per time unit) and popularity."""

    rate: float
    popularity: Optional[Dict] = None    # processes.popularity_from_spec spec
    modulation: Optional[Dict] = None

    def validate(self) -> None:
        if self.rate < 0:
            raise ScenarioError("traffic rate must be non-negative")
        try:
            popularity_from_spec(self.popularity)
            modulation_from_spec(self.modulation)
        except SpecError as exc:
            raise ScenarioError(str(exc)) from exc

    def to_dict(self) -> Dict:
        out: Dict = {"rate": self.rate}
        if self.popularity is not None:
            out["popularity"] = dict(self.popularity)
        if self.modulation is not None:
            out["modulation"] = dict(self.modulation)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "TrafficSpec":
        data = _as_mapping(data, "traffic")
        if "rate" not in data:
            raise ScenarioError("traffic spec missing 'rate'")
        spec = cls(rate=float(data["rate"]),
                   popularity=data.get("popularity"),
                   modulation=data.get("modulation"))
        spec.validate()
        return spec


@dataclass
class Phase:
    """One contiguous stretch of the run with its own churn + traffic."""

    name: str
    start: float
    end: float
    churn: Optional[ChurnSpec] = None
    traffic: Optional[TrafficSpec] = None

    def validate(self) -> None:
        if self.end <= self.start:
            raise ScenarioError("phase {!r}: end {} must follow start {}".format(
                self.name, self.end, self.start))
        if self.start < 0:
            raise ScenarioError("phase {!r}: negative start".format(self.name))

    def to_dict(self) -> Dict:
        out: Dict = {"name": self.name, "start": self.start, "end": self.end}
        if self.churn is not None:
            out["churn"] = self.churn.to_dict()
        if self.traffic is not None:
            out["traffic"] = self.traffic.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "Phase":
        data = _as_mapping(data, "phase")
        for key in ("start", "end"):
            if key not in data:
                raise ScenarioError("phase spec missing {!r}".format(key))
        phase = cls(name=data.get("name", "phase"),
                    start=float(data["start"]), end=float(data["end"]),
                    churn=(ChurnSpec.from_dict(data["churn"])
                           if data.get("churn") is not None else None),
                    traffic=(TrafficSpec.from_dict(data["traffic"])
                             if data.get("traffic") is not None else None))
        phase.validate()
        return phase


@dataclass
class FaultSpec:
    """One scheduled injection.

    ``kind`` names the injector (a :data:`repro.workload.faults.INJECTORS`
    key); ``at`` is the absolute virtual time; ``params`` carries
    injector-specific knobs (``count``, ``restore_after``, ``pop``,
    ``stub_only``, explicit victims, ...).
    """

    kind: str
    at: float
    params: Dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in INJECTORS:
            raise ScenarioError("unknown fault kind {!r}; valid: {}".format(
                self.kind, ", ".join(INJECTORS)))
        if self.at < 0:
            raise ScenarioError("fault {!r}: negative time".format(self.kind))

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "at": self.at}
        out.update(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        data = _as_mapping(data, "fault")
        if "kind" not in data or "at" not in data:
            raise ScenarioError("fault spec needs 'kind' and 'at': "
                                "{!r}".format(data))
        params = {k: v for k, v in data.items() if k not in ("kind", "at")}
        spec = cls(kind=data["kind"], at=float(data["at"]), params=params)
        spec.validate()
        return spec


@dataclass
class Scenario:
    """A complete, reproducible workload description."""

    name: str
    seed: int = 0
    duration: float = 60.0
    warmup_hosts: int = 50
    sample_interval: float = 5.0
    network: NetworkSpec = field(default_factory=NetworkSpec)
    phases: List[Phase] = field(default_factory=list)
    faults: List[FaultSpec] = field(default_factory=list)

    def validate(self) -> None:
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        if self.warmup_hosts < 0:
            raise ScenarioError("warmup_hosts must be non-negative")
        if self.sample_interval <= 0:
            raise ScenarioError("sample_interval must be positive")
        self.network.validate()
        kind = self.network.kind

        def need(what: str, operations) -> None:
            # Read off the kind's class, so it fails here and not mid-run.
            missing = KINDS[kind].unsupported(operations)
            if missing:
                raise ScenarioError(
                    "{} needs {}, which {!r} networks do not support".format(
                        what, ", ".join(missing), kind))
        for phase in self.phases:
            phase.validate()
            if phase.start >= self.duration:
                raise ScenarioError(
                    "phase {!r} starts at {} but the run ends at {}".format(
                        phase.name, phase.start, self.duration))
            churn = phase.churn
            if churn is not None and churn.lifetime is not None:
                need("'lifetime' in phase {!r}".format(phase.name),
                     ["fail_host" if churn.departure == "fail"
                      else "leave_host"])
        for fault in self.faults:
            fault.validate()
            if fault.at > self.duration:
                raise ScenarioError(
                    "fault {!r} at {} is past the run end {}".format(
                        fault.kind, fault.at, self.duration))
            need("fault {!r}".format(fault.kind), INJECTORS[fault.kind].needs)

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "duration": self.duration,
            "warmup_hosts": self.warmup_hosts,
            "sample_interval": self.sample_interval,
            "network": self.network.to_dict(),
            "phases": [p.to_dict() for p in self.phases],
            "faults": [f.to_dict() for f in self.faults],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        data = _as_mapping(data, "scenario")
        if "name" not in data:
            raise ScenarioError("scenario missing 'name'")
        scenario = cls(
            name=data["name"],
            seed=int(data.get("seed", 0)),
            duration=float(data.get("duration", 60.0)),
            warmup_hosts=int(data.get("warmup_hosts", 50)),
            sample_interval=float(data.get("sample_interval", 5.0)),
            network=NetworkSpec.from_dict(data.get("network", {})),
            phases=[Phase.from_dict(p) for p in data.get("phases", [])],
            faults=[FaultSpec.from_dict(f) for f in data.get("faults", [])],
        )
        scenario.validate()
        return scenario

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError("invalid scenario JSON: {}".format(exc)) from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path) as fh:
            return cls.from_json(fh.read())


# ---------------------------------------------------------------------------
# Builtin example scenarios.
# ---------------------------------------------------------------------------

def _steady_churn(seed: int = 0) -> Scenario:
    """Poisson joins at rate λ, Pareto lifetimes, a mid-run link-failure
    burst — the acceptance scenario, sized to run in a few seconds."""
    return Scenario(
        name="steady-churn",
        seed=seed,
        duration=60.0,
        warmup_hosts=120,
        sample_interval=5.0,
        network=NetworkSpec(kind="intra", n_routers=40, name="steady-churn"),
        phases=[Phase(
            name="steady", start=0.0, end=60.0,
            churn=ChurnSpec(arrival_rate=2.0,
                            lifetime={"kind": "pareto", "shape": 1.5,
                                      "scale": 12.0}),
            traffic=TrafficSpec(rate=8.0,
                                popularity={"kind": "zipf", "exponent": 0.9}),
        )],
        faults=[
            FaultSpec(kind="link_cut", at=30.0,
                      params={"count": 3, "restore_after": 15.0}),
        ],
    )


def _flash_crowd(seed: int = 0) -> Scenario:
    """A flash-crowd arrival spike over diurnal background traffic, with
    a router crash at the worst possible moment (mid-spike)."""
    return Scenario(
        name="flash-crowd",
        seed=seed,
        duration=90.0,
        warmup_hosts=80,
        sample_interval=5.0,
        network=NetworkSpec(kind="intra", n_routers=40, name="flash-crowd"),
        phases=[Phase(
            name="crowd", start=0.0, end=90.0,
            churn=ChurnSpec(arrival_rate=1.0,
                            lifetime={"kind": "weibull", "shape": 0.8,
                                      "scale": 25.0},
                            modulation={"kind": "flash_crowd", "start": 30.0,
                                        "end": 60.0, "peak": 5.0,
                                        "ramp": 5.0}),
            traffic=TrafficSpec(rate=6.0,
                                popularity={"kind": "zipf", "exponent": 1.1},
                                modulation={"kind": "diurnal", "period": 90.0,
                                            "low": 0.5, "high": 1.5}),
        )],
        faults=[FaultSpec(kind="router_crash", at=45.0, params={"count": 1})],
    )


def _depeering(seed: int = 0) -> Scenario:
    """Interdomain join-only churn with stub-AS de-peering mid-run (the
    Fig 8d failure mode as a standing workload)."""
    return Scenario(
        name="depeering",
        seed=seed,
        duration=60.0,
        warmup_hosts=120,
        sample_interval=5.0,
        network=NetworkSpec(kind="inter", n_ases=60, name="depeering"),
        phases=[Phase(
            name="grow", start=0.0, end=60.0,
            churn=ChurnSpec(arrival_rate=1.5),
            traffic=TrafficSpec(rate=6.0,
                                popularity={"kind": "zipf", "exponent": 0.8}),
        )],
        faults=[
            FaultSpec(kind="as_depeer", at=25.0,
                      params={"stub_only": True, "restore_after": 20.0}),
            FaultSpec(kind="as_depeer", at=40.0, params={"stub_only": True}),
        ],
    )


BUILTIN_SCENARIOS = {
    "steady-churn": _steady_churn,
    "flash-crowd": _flash_crowd,
    "depeering": _depeering,
}


def builtin_scenario(name: str, seed: int = 0) -> Scenario:
    """Instantiate a builtin scenario by name (seed overridable)."""
    factory = BUILTIN_SCENARIOS.get(name)
    if factory is None:
        raise ScenarioError("unknown builtin scenario {!r}; choices: {}".format(
            name, ", ".join(sorted(BUILTIN_SCENARIOS))))
    return factory(seed=seed)
