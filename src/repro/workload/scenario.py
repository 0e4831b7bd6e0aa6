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
plain JSON types.  The schema is declared once, as dataclass fields
(annotation + default): of the six specs here, of the processes in
:data:`repro.workload.processes.PROCESSES` and of the injectors in
:data:`repro.workload.faults.INJECTORS`.  One codec reads them to parse,
check and dump, and refuses what they do not declare (DESIGN.md §6).
:data:`BUILTIN_SCENARIOS` is the one definition of each ready-made
scenario (no file copies one); the CLI, serve's ``workload`` op and the
test-suite read it by name.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from reprlib import repr as short
from typing import Dict, List, Optional, Tuple

from repro.network import KINDS, network_class
from repro.topology.asgraph import MIN_ASES
from repro.topology.isp import MIN_ROUTERS
from repro.workload.faults import INJECTORS
from repro.workload.processes import PROCESSES, SpecError


class ScenarioError(ValueError):
    """A malformed or inconsistent scenario description."""


# ---------------------------------------------------------------------------
# The codec: a dataclass's fields say which keys a mapping may carry, of
# what type, and which may be left out.
# ---------------------------------------------------------------------------

#: Declared type → (the exact types a value may have — ``bool`` is an
#: ``int`` to ``isinstance`` — and what a refusal calls it).
_DECLARABLE = {
    str: ((str,), "a string"), int: ((int,), "an integer"),
    float: ((int, float), "a finite number"), bool: ((bool,), "true or false"),
    dict: ((dict,), "a mapping"), list: ((list, tuple), "a list"),
    tuple: ((list, tuple), "a pair")}


def _checked(hint, value, where: str):
    """``value`` as the declared type ``hint`` (an ``int`` widens to a
    declared ``float``, a pair comes back a tuple), or
    :class:`ScenarioError` naming ``where``."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is typing.Union:              # Optional[X]: X or null
        return None if value is None else _checked(args[0], value, where)
    if is_dataclass(origin):
        return _parse(origin, value, where)
    accepted, expected = _DECLARABLE[origin]
    ok = type(value) in accepted
    if ok and origin is tuple:
        ok = len(value) == len(args)
    if ok and origin is float:  # not NaN, ±Infinity or an integer past 1e308
        ok = abs(value) <= sys.float_info.max
    if not ok:
        raise ScenarioError("{} must be {}, got {}".format(
            where, expected, short(value)))
    if origin in (list, tuple):
        hints = args * len(value) if origin is list else args
        return origin(_checked(hint, item, "{}[{}]".format(where, i))
                      for i, (hint, item) in enumerate(zip(hints, value)))
    return origin(value)        # a copy of a mapping, a float of an integer


def _parse(cls, data, where: str):
    """``cls(**data)`` once ``data`` is a mapping whose every key is a
    field of dataclass ``cls`` with a value of the declared type, and no
    field without a default is left out.  A field marked ``rest`` takes
    the keys no field names (how a fault carries its parameters)."""
    hints = typing.get_type_hints(cls)
    known = {f.name: f for f in fields(cls) if f.init}
    rest = next((name for name, f in known.items()
                 if f.metadata.get("rest")), None)
    kwargs, extra = {}, {}
    for key, value in _checked(dict, data, where).items():
        if key in known and key != rest:
            kwargs[key] = _checked(hints[key], value,
                                   "{}.{}".format(where, key))
        else:
            extra[key] = value
    if rest is not None:
        kwargs[rest] = extra
    elif extra:
        raise ScenarioError("{}: unknown key {} (valid: {})".format(
            where, ", ".join(map(repr, extra)), ", ".join(known)))
    for name, f in known.items():
        if (name not in kwargs and f.default is MISSING
                and f.default_factory is MISSING):
            raise ScenarioError("{} missing {!r}".format(where, name))
    try:
        return cls(**kwargs)
    except SpecError as exc:                # a parameter out of its range
        raise ScenarioError("{}: {}".format(where, exc)) from exc


def _built(what: str, kinds: Dict, kind, params: Dict):
    """``kinds[kind](**params)``, the parameters checked against its
    fields; ``what`` is what a refusal calls it."""
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioError("unknown {} kind {}; valid: {}".format(
            what, short(kind), ", ".join(kinds)))
    return _parse(kinds[kind], params, "{} {!r}".format(what, kind))


def process(what: str, spec: Optional[Dict]):
    """The process a ``lifetime``, ``modulation`` or ``popularity`` spec
    (``{"kind": ..., **parameters}``) describes; None for no spec."""
    if spec is None:
        return None
    params = _checked(dict, spec, what)
    return _built(what, PROCESSES[what], params.pop("kind", None), params)


class Spec:
    """Base of the six spec dataclasses: parsed, checked and dumped by
    their fields.  ``validate`` holds what the fields cannot say."""

    @classmethod
    def from_dict(cls, data: Dict):
        spec = _parse(cls, data, cls.__name__)
        spec.validate()
        return spec

    def to_dict(self) -> Dict:
        """Field by field; None is left out, ``rest`` is spread."""
        out: Dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata.get("rest"):
                out.update(value)
            elif isinstance(value, Spec):
                out[f.name] = value.to_dict()
            elif isinstance(value, list):
                out[f.name] = [item.to_dict() for item in value]
            elif isinstance(value, dict):
                out[f.name] = dict(value)
            elif value is not None:
                out[f.name] = value
        return out


#: The smallest value of each :class:`NetworkSpec` bound.
_SMALLEST = {"n_ases": MIN_ASES, "n_routers": MIN_ROUTERS,
             "cache_entries": 0, "n_fingers": 0}


@dataclass
class NetworkSpec(Spec):
    """What network the scenario runs against.

    ``kind`` is a :data:`repro.network.KINDS` key: ``"inter"`` (AS-level
    Internet, sized by ``n_ases``) or one of the kinds over one ISP
    (``"intra"`` and the baselines, sized by ``n_routers``).  The one
    statement of the sizing defaults: :func:`repro.build_network` and the
    CLI's flags fill these fields, each kind's ``build`` reads them.
    """

    kind: str = "intra"
    n_routers: int = 40
    n_ases: int = 60
    #: Names the ISP topology, which seeds its RNG streams.
    name: str = "workload"
    #: None is each kind's own default (TCAM-sized intra, no cache inter).
    cache_entries: Optional[int] = None
    n_fingers: int = 8

    def sizing(self) -> Tuple[str, ...]:
        """The sizing fields this kind's ``build`` reads, its size first
        (the one statement of which): only the ROFL kinds have a pointer
        cache, and only ``inter`` fingers."""
        return {"inter": ("n_ases", "cache_entries", "n_fingers"),
                "intra": ("n_routers", "cache_entries")}.get(
                    self.kind, ("n_routers",))

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ScenarioError("network kind must be one of {}, got "
                                "{!r}".format(", ".join(KINDS), self.kind))
        # The size bound is the generator's own, so a size it would refuse
        # fails here in one line, not mid-build.
        for name in self.sizing():
            value, low = getattr(self, name), _SMALLEST[name]
            if value is not None and value < low:
                raise ScenarioError("{} must be at least {}, got {}".format(
                    name, low, value))

    def to_dict(self) -> Dict:
        """The size this kind does not read is left out."""
        out = super().to_dict()
        del out["n_ases" if self.sizing()[0] == "n_routers" else "n_routers"]
        return out

    def build(self, seed: int):
        """A fresh, empty network of this kind and size."""
        self.validate()
        return network_class(self.kind).build(seed, self)


@dataclass
class ChurnSpec(Spec):
    """Host arrivals (rate per time unit) and optional session lifetimes."""

    arrival_rate: float
    lifetime: Optional[Dict] = None      # a PROCESSES["lifetime"] spec
    modulation: Optional[Dict] = None    # a PROCESSES["modulation"] spec
    departure: str = "leave"             # graceful "leave" or crash "fail"

    def validate(self) -> None:
        if self.arrival_rate < 0:
            raise ScenarioError("arrival_rate must be non-negative")
        if self.departure not in ("leave", "fail"):
            raise ScenarioError("departure must be 'leave' or 'fail', got "
                                "{!r}".format(self.departure))
        process("lifetime", self.lifetime)   # bad sub-specs fail here,
        process("modulation", self.modulation)      # not mid-run


@dataclass
class TrafficSpec(Spec):
    """Open-loop packet generation (rate per time unit) and popularity."""

    rate: float
    popularity: Optional[Dict] = None    # a PROCESSES["popularity"] spec
    modulation: Optional[Dict] = None

    def validate(self) -> None:
        if self.rate < 0:
            raise ScenarioError("traffic rate must be non-negative")
        process("popularity", self.popularity)
        process("modulation", self.modulation)


@dataclass
class Phase(Spec):
    """One contiguous stretch of the run with its own churn + traffic."""

    start: float
    end: float
    name: str = "phase"
    churn: Optional[ChurnSpec] = None
    traffic: Optional[TrafficSpec] = None

    def validate(self) -> None:
        if self.end <= self.start:
            raise ScenarioError("phase {!r}: end {} must follow start {}".format(
                self.name, self.end, self.start))
        for part in (self.churn, self.traffic):
            if part is not None:
                part.validate()


@dataclass
class FaultSpec(Spec):
    """One scheduled injection.

    ``kind`` names the injector (a :data:`repro.workload.faults.INJECTORS`
    key); ``at`` is the absolute virtual time; ``params`` carries the
    parameters that injector declares as its fields (``count``,
    ``restore_after``, ``pop``, ``stub_only``, explicit victims, ...),
    which JSON spells beside ``kind`` and ``at``.
    """

    kind: str
    at: float
    params: Dict = field(default_factory=dict, metadata={"rest": True})

    def validate(self) -> None:
        self.injector()

    def injector(self):
        """The injector this spec describes, its parameters checked."""
        return _built("fault", INJECTORS, self.kind,
                      dict(self.params, at=self.at))


@dataclass
class Scenario(Spec):
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
        network, kind = self.network, self.network.kind
        network.validate()
        # A field the kind never reads holds its default (what ``to_dict``
        # writes).  Not in NetworkSpec.validate: build_network's callers
        # may pass every size.
        for f in fields(network):
            value = getattr(network, f.name)
            if (f.name in _SMALLEST and f.name not in network.sizing()
                    and value != f.default):
                raise ScenarioError("network.{}: {!r} networks do not read "
                                    "it, got {}".format(f.name, kind, value))

        def need(what: str, operations) -> None:
            # Read off the kind's class, so it fails here and not mid-run.
            missing = network_class(kind).unsupported(operations)
            if missing:
                raise ScenarioError(
                    "{} needs {}, which {!r} networks do not support".format(
                        what, ", ".join(missing), kind))
        for phase in self.phases:
            phase.validate()
            if not 0 <= phase.start < self.duration:
                raise ScenarioError(
                    "phase {!r} starts at {} but the run is 0 to {}".format(
                        phase.name, phase.start, self.duration))
            churn = phase.churn
            if churn is not None and churn.lifetime is not None:
                need("'lifetime' in phase {!r}".format(phase.name),
                     ["fail_host" if churn.departure == "fail"
                      else "leave_host"])
        for fault in self.faults:
            fault.validate()
            if not 0 <= fault.at <= self.duration:
                raise ScenarioError(
                    "fault {!r} at {} is outside the run, 0 to {}".format(
                        fault.kind, fault.at, self.duration))
            need("fault {!r}".format(fault.kind), INJECTORS[fault.kind].needs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: deep nesting blows the decoder's stack.
            raise ScenarioError("invalid scenario JSON: {}".format(exc)) from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "Scenario":
        with open(path) as fh:
            return cls.from_json(fh.read())


# ---------------------------------------------------------------------------
# Builtin example scenarios: scenario mappings like any file's, less the
# name (their key) and the seed.
# ---------------------------------------------------------------------------

BUILTIN_SCENARIOS: Dict[str, Dict] = {
    # Poisson joins at rate λ, Pareto lifetimes, a mid-run link-failure
    # burst — the acceptance scenario, sized to run in a few seconds.
    "steady-churn": {
        "duration": 60.0, "warmup_hosts": 120,
        "network": {"kind": "intra", "name": "steady-churn"},
        "phases": [{
            "name": "steady", "start": 0.0, "end": 60.0,
            "churn": {"arrival_rate": 2.0,
                      "lifetime": {"kind": "pareto", "shape": 1.5,
                                   "scale": 12.0}},
            "traffic": {"rate": 8.0,
                        "popularity": {"kind": "zipf", "exponent": 0.9}}}],
        "faults": [{"kind": "link_cut", "at": 30.0, "count": 3,
                    "restore_after": 15.0}]},
    # A flash-crowd arrival spike over diurnal background traffic, with a
    # router crash at the worst possible moment (mid-spike).
    "flash-crowd": {
        "duration": 90.0, "warmup_hosts": 80,
        "network": {"kind": "intra", "name": "flash-crowd"},
        "phases": [{
            "name": "crowd", "start": 0.0, "end": 90.0,
            "churn": {"arrival_rate": 1.0,
                      "lifetime": {"kind": "weibull", "shape": 0.8,
                                   "scale": 25.0},
                      "modulation": {"kind": "flash_crowd", "start": 30.0,
                                     "end": 60.0, "peak": 5.0, "ramp": 5.0}},
            "traffic": {"rate": 6.0,
                        "popularity": {"kind": "zipf", "exponent": 1.1},
                        "modulation": {"kind": "diurnal", "period": 90.0,
                                       "low": 0.5, "high": 1.5}}}],
        "faults": [{"kind": "router_crash", "at": 45.0, "count": 1}]},
    # Interdomain join-only churn with stub-AS de-peering mid-run (the
    # Fig 8d failure mode as a standing workload).
    "depeering": {
        "duration": 60.0, "warmup_hosts": 120,
        "network": {"kind": "inter", "name": "depeering"},
        "phases": [{
            "name": "grow", "start": 0.0, "end": 60.0,
            "churn": {"arrival_rate": 1.5},
            "traffic": {"rate": 6.0,
                        "popularity": {"kind": "zipf", "exponent": 0.8}}}],
        "faults": [{"kind": "as_depeer", "at": 25.0, "stub_only": True,
                    "restore_after": 20.0},
                   {"kind": "as_depeer", "at": 40.0, "stub_only": True}]},
}


def builtin_scenario(name: str, seed: int = 0) -> Scenario:
    """Instantiate a builtin scenario by name (seed overridable)."""
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError("unknown builtin scenario {!r}; choices: {}".format(
            name, ", ".join(sorted(BUILTIN_SCENARIOS))))
    return Scenario.from_dict(dict(BUILTIN_SCENARIOS[name], name=name,
                                   seed=seed))
