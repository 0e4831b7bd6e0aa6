"""``repro.workload`` — a declarative churn, traffic, and fault engine.

The paper's whole evaluation (Section 6) is about behaviour *under load
and churn*: join overhead under host arrivals, recovery after router and
link failures (Fig 7), stub de-peering (Fig 8d).  This package turns the
hand-rolled churn loops of ``repro.harness.experiments`` into a reusable
load-generator + chaos harness:

* :mod:`repro.workload.processes` — seeded arrival / lifetime / traffic
  generators (Poisson, Pareto, Weibull, flash-crowd, diurnal, Zipf).
* :mod:`repro.workload.faults` — scheduled fault injectors (link cut,
  router crash, AS de-peering, PoP partition, host crash) driving the
  existing recovery machinery.
* :mod:`repro.workload.scenario` — the declarative, JSON-round-trippable
  :class:`Scenario` spec plus builtin example scenarios.
* :mod:`repro.workload.driver` — binds a scenario to a network of any
  kind on the :class:`repro.sim.engine.EventLoop`.
* :mod:`repro.workload.metrics` — periodic time-series sampling of
  delivery rate, stretch, control overhead, and routing-state size.

Determinism contract: every random draw flows through
:func:`repro.util.rng.derive_rng` scopes keyed on the scenario seed, so
two runs of the same scenario are byte-for-byte identical (same metric
time series, same fault victims, same packet endpoints).
"""

from repro.workload.driver import WorkloadDriver, WorkloadResult, run_scenario
from repro.workload.scenario import (BUILTIN_SCENARIOS, Scenario,
                                     ScenarioError, builtin_scenario)

__all__ = [
    "BUILTIN_SCENARIOS",
    "Scenario",
    "ScenarioError",
    "WorkloadDriver",
    "WorkloadResult",
    "builtin_scenario",
    "run_scenario",
]
