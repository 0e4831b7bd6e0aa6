"""Binds a :class:`Scenario` to a network on the discrete-event loop.

The network is any :class:`repro.network.Network` kind, driven through
that contract alone.  The driver owns one
:class:`repro.sim.engine.EventLoop` and schedules three event families
against a churning membership:

* **arrivals** — per-phase Poisson (optionally modulated) host joins,
  each with an optional sampled session lifetime that schedules the
  departure (graceful leave or crash, per the churn spec);
* **traffic** — an open-loop packet generator picking a uniform source
  and a popularity-weighted destination among *currently live* hosts;
* **faults** — the scheduled injectors of :mod:`repro.workload.faults`.

Every random draw comes from a cached ``derive_rng`` stream keyed on
``(seed, "workload", *scope)``, so adding a new consumer never perturbs
existing streams and a scenario replays byte-for-byte from its seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.engine import EventLoop
from repro.util.rng import RngRegistry
from repro.workload.metrics import MetricsRecorder
from repro.workload.processes import PoissonProcess, UniformPopularity
from repro.workload.scenario import Phase, Scenario, process


# ---------------------------------------------------------------------------
# Result.
# ---------------------------------------------------------------------------

@dataclass
class WorkloadResult:
    """Everything one run produced.

    ``samples``, ``summary``, ``totals``, and ``fault_log`` are pure
    functions of (scenario, seed) — the determinism contract.
    ``wall_seconds`` / ``events_per_sec`` are wall-clock throughput and
    vary run to run; they feed the benchmark sweep, never assertions.
    """

    scenario: Dict
    samples: List[Dict] = field(default_factory=list)
    summary: Dict = field(default_factory=dict)
    totals: Dict = field(default_factory=dict)
    fault_log: List[Dict] = field(default_factory=list)
    #: Structured invariant-probe violations (empty unless probes ran).
    violations: List[Dict] = field(default_factory=list)
    wall_seconds: float = 0.0
    events_per_sec: float = 0.0

    def deterministic_view(self) -> Dict:
        """The seed-reproducible portion, JSON-ready (for equality checks
        and for ``--json`` CLI output)."""
        return {
            "scenario": self.scenario,
            "samples": self.samples,
            "summary": self.summary,
            "totals": self.totals,
            "fault_log": self.fault_log,
            "violations": self.violations,
        }

    def blocks(self) -> List:
        """The run as :mod:`repro.obs.report` blocks (what ``python -m
        repro workload`` prints): headline, per-sample table, fault log,
        summary."""
        from repro.obs.report import Note, cell, window_table
        scenario, totals, summary = self.scenario, self.totals, self.summary
        notes = ["fault @{:>6.1f}: {}".format(
            record["at"], {k: v for k, v in record.items() if k != "at"})
            for record in self.fault_log]
        notes.append(
            "joins {} (+{} warmup), departures {}, delivery {}, "
            "min-window delivery {}".format(
                totals["joins"], totals["warmup_hosts"], totals["departures"],
                cell(summary["delivery_rate"], "{:.4f}", "-"),
                cell(summary["min_window_delivery_rate"], "{:.4f}", "-")))
        if "stretch" in summary:
            notes.append("stretch mean {:.2f} p95 {:.2f}; control messages {}"
                         .format(summary["stretch"]["mean"],
                                 summary["stretch"]["p95"],
                                 summary["control_messages"]))
        return [
            Note(["scenario {!r} (seed {}): {} virtual time units, {} events "
                  "({:.0f} events/sec wall)".format(
                      scenario["name"], scenario["seed"],
                      scenario["duration"], totals["events_run"],
                      self.events_per_sec)]),
            window_table(self.samples),
            Note(notes)]


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

class WorkloadDriver:
    """One scenario bound to one network on one event loop."""

    def __init__(self, scenario: Scenario, network=None, tracer=None,
                 probes: bool = False):
        scenario.validate()
        self.scenario = scenario
        self.net = (network if network is not None
                    else scenario.network.build(scenario.seed))
        self._injectors = [fault.injector() for fault in scenario.faults]
        for injector in self._injectors:
            injector.check(self.net)
        self.loop = EventLoop()
        self.fault_log: List[Dict] = []
        self.rngs = RngRegistry(scenario.seed)
        self._live: List[str] = []       # join-ordered live host names
        self._live_set = set()
        self._skipped_sends = 0
        self._failed_joins = 0
        self.metrics: Optional[MetricsRecorder] = None
        #: Optional ``repro.obs`` wiring.  The tracer's clock is re-bound
        #: to this loop's virtual time so records replay byte-for-byte;
        #: probes tick on the sampling cadence and their violations land
        #: in the result's deterministic view.
        self.tracer = tracer
        self.probes = None
        if tracer is not None:
            tracer.clock = lambda: self.loop.now
        if probes:
            from repro.obs.probes import ProbeSet
            self.probes = ProbeSet.for_network(self.net, tracer=tracer)

    # -- randomness ---------------------------------------------------------

    def rng(self, *scope):
        """The cached ``derive_rng`` stream for one consumer scope."""
        return self.rngs.derive("workload", *scope)

    # -- membership ---------------------------------------------------------

    def live_hosts(self) -> List[str]:
        """Join-ordered live hosts.  O(1): the list is kept current where
        hosts go (:meth:`_departure`, :meth:`fault_done`), not re-checked
        against ``net.hosts`` per packet."""
        return self._live

    def note_join(self, host_name: str) -> None:
        if host_name not in self._live_set:
            self._live.append(host_name)
            self._live_set.add(host_name)

    def _drop(self, host_name: str) -> None:
        if host_name in self._live_set:
            self._live_set.discard(host_name)
            self._live.remove(host_name)

    def note_departure(self, host_name: str) -> None:
        self._drop(host_name)
        if self.metrics is not None:
            self.metrics.record_departure()

    def fault_done(self, record: Dict) -> None:
        """Log one finished injection or scheduled restore.  Only inside
        one can hosts leave ``net.hosts`` behind the driver's back (a
        crash or de-peering it was not told of, a re-homing that finds
        no live router), so the live list is reconciled here, once."""
        hosts = self.net.hosts
        for name in [name for name in self._live if name not in hosts]:
            self._drop(name)
        self.fault_log.append(record)

    # -- event handlers -----------------------------------------------------

    def _arrival(self, phase: Phase, index: int, process: PoissonProcess,
                 lifetime) -> None:
        if self.loop.now >= phase.end:
            return
        joined = self.net.join_next()
        if joined is not None:
            name, messages, _latency = joined
            self.note_join(name)
            self.metrics.record_join(messages)
            if lifetime is not None:
                dt = lifetime.sample(self.rng("lifetime", index))
                mode = phase.churn.departure
                self.loop.schedule(dt, lambda: self._departure(name, mode))
        else:
            self._failed_joins += 1
        delay = process.next_arrival(self.rng("arrivals", index),
                                     self.loop.now)
        if self.loop.now + delay < phase.end:
            self.loop.schedule(delay,
                               lambda: self._arrival(phase, index, process,
                                                     lifetime))

    def _departure(self, host_name: str, mode: str) -> None:
        if host_name in self.net.hosts:  # else crashed or de-peered away
            depart = (self.net.fail_host if mode == "fail"
                      else self.net.leave_host)
            depart(host_name)
            self.metrics.record_departure()
        self._drop(host_name)

    def _packet(self, phase: Phase, index: int, process: PoissonProcess,
                popularity) -> None:
        if self.loop.now < phase.end:
            live = self.live_hosts()
            if len(live) >= 2:
                rng = self.rng("traffic", index)
                src = rng.choice(live)
                dst = popularity.pick(rng, live)
                for _ in range(8):
                    if dst != src:
                        break
                    dst = popularity.pick(rng, live)
                if dst != src:
                    self.metrics.record_packet(self.net.send(src, dst))
                else:
                    self._skipped_sends += 1
            else:
                self._skipped_sends += 1
            delay = process.next_arrival(self.rng("traffic-times", index),
                                         self.loop.now)
            if self.loop.now + delay < phase.end:
                self.loop.schedule(delay,
                                   lambda: self._packet(phase, index, process,
                                                        popularity))

    def _sample(self) -> None:
        self.metrics.sample(self.loop.now, len(self.live_hosts()),
                            pending_events=self.loop.pending)
        if self.probes is not None:
            self.probes.tick(self.loop.now)
        nxt = self.loop.now + self.scenario.sample_interval
        if nxt <= self.scenario.duration:
            self.loop.schedule_at(nxt, self._sample)

    # -- setup & run --------------------------------------------------------

    def _schedule_phase(self, phase: Phase, index: int) -> None:
        # Bind loop-local objects as lambda defaults: the two branches
        # reuse names, and a late-binding closure would hand the arrival
        # chain the traffic process.
        if phase.churn is not None and phase.churn.arrival_rate > 0:
            arrivals = PoissonProcess(
                phase.churn.arrival_rate,
                process("modulation", phase.churn.modulation))
            lifetime = process("lifetime", phase.churn.lifetime)
            first = phase.start + arrivals.next_arrival(
                self.rng("arrivals", index), phase.start)
            if first < phase.end:
                self.loop.schedule_at(
                    first,
                    lambda p=arrivals, l=lifetime: self._arrival(
                        phase, index, p, l))
        if phase.traffic is not None and phase.traffic.rate > 0:
            packets = PoissonProcess(
                phase.traffic.rate,
                process("modulation", phase.traffic.modulation))
            popularity = (process("popularity", phase.traffic.popularity)
                          or UniformPopularity())
            first = phase.start + packets.next_arrival(
                self.rng("traffic-times", index), phase.start)
            if first < phase.end:
                self.loop.schedule_at(
                    first,
                    lambda p=packets, pop=popularity: self._packet(
                        phase, index, p, pop))

    def _warmup(self) -> int:
        joined = 0
        for _ in range(self.scenario.warmup_hosts):
            result = self.net.join_next()
            if result is not None:
                self.note_join(result[0])
                joined += 1
        return joined

    def run(self) -> WorkloadResult:
        scenario = self.scenario
        started = time.perf_counter()

        warmed = self._warmup()
        # The recorder baselines its control-overhead window *after*
        # warmup so sample 1 reports churn-era overhead, not setup cost.
        self.metrics = MetricsRecorder(
            self.net.stats,
            lambda: sum(self.net.state_entries().values()))

        for index, phase in enumerate(scenario.phases):
            self._schedule_phase(phase, index)
        for injector in self._injectors:
            self.loop.schedule_at(injector.at,
                                  lambda inj=injector: inj.fire(self))
        first_sample = min(scenario.sample_interval, scenario.duration)
        self.loop.schedule_at(first_sample, self._sample)

        self.loop.run(until=scenario.duration)
        if not self.metrics.samples or \
                self.metrics.samples[-1]["t"] < scenario.duration:
            self.metrics.sample(scenario.duration, len(self.live_hosts()),
                                pending_events=self.loop.pending)
        wall = time.perf_counter() - started
        totals = {
            "warmup_hosts": warmed,
            "joins": self.metrics.total_joins,
            "departures": self.metrics.total_departures,
            "packets_sent": self.metrics.total_sent,
            "packets_delivered": self.metrics.total_delivered,
            "packets_skipped": self._skipped_sends,
            "failed_joins": self._failed_joins,
            "faults_fired": len(self.fault_log),
            "events_run": self.loop.events_run,
            "final_live_hosts": len(self.live_hosts()),
        }
        return WorkloadResult(
            scenario=scenario.to_dict(),
            samples=list(self.metrics.samples),
            summary=self.metrics.summary(),
            totals=totals,
            fault_log=list(self.fault_log),
            violations=(self.probes.summary() if self.probes is not None
                        else []),
            wall_seconds=round(wall, 4),
            events_per_sec=round(self.loop.events_run / wall, 1) if wall > 0
            else 0.0,
        )


def run_scenario(scenario: Scenario, network=None, tracer=None,
                 probes: bool = False) -> WorkloadResult:
    """Convenience one-shot: build a driver, run it, return the result."""
    return WorkloadDriver(scenario, network=network, tracer=tracer,
                          probes=probes).run()
