"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

    python3 -m pytest bench/tests -q          # about a minute

They run the real command at ``--smoke`` size and check what the contract
in BENCHMARK.json promises: the names printed, the span files, the
degradation of an unresolvable wrapper target, and determinism.
"""

import json
import os
import re
import subprocess
import sys
import warnings

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import compare, inputs, run as bench_run  # noqa: E402
from bench.spec import OUT_DIR, load_spec  # noqa: E402
from bench.trace import BOUNDARIES, Boundary, Tracer  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args):
    """bench/run.py as the driver starts it; returns (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py")] + list(args),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run per workload: the result line, the stored
    record and the span file of each."""
    out = {}
    for workload in WORKLOADS:
        path = str(tmp_path_factory.mktemp("bench") / "out.json")
        code, stdout = run_bench("--workload", workload, "--seed", "5",
                                 "--smoke", "--trace", "1", "--out", path)
        assert code == 0, stdout
        with open(path) as fh:
            record = json.load(fh)["runs"][0]
        with open(os.path.join(
                OUT_DIR, "trace-{}.jsonl".format(workload))) as fh:
            spans = [json.loads(line) for line in fh]
        out[workload] = (json.loads(stdout.splitlines()[-1]), record, spans)
    return out


# -- BENCHMARK.json ---------------------------------------------------------

def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_every_metric_has_unit_direction_and_bound():
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_names_are_used_once_and_whys_fit():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert set(WORKLOADS) == set(inputs.SIZES)


# -- what the command prints -------------------------------------------------

def test_untraced_run_prints_every_end_to_end_metric():
    code, stdout = run_bench("--workload", "churn_inter", "--seed", "5",
                             "--seconds", "1", "--trace", "0")
    assert code == 0, stdout
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: got["unit"] for name, got in result["metrics"].items()} \
        == expected
    assert all(got["value"] > 0 for got in result["metrics"].values())
    for name in expected:
        assert re.search(r"^  {}\s".format(re.escape(name)), stdout, re.M)


def test_traced_run_prints_every_per_layer_metric(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, (result, record, _) in traced.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, workload
        assert {name: got["unit"] for name, got
                in result["metrics"].items()} == expected
        missing = [name for name, got in result["metrics"].items()
                   if got["value"] is None]
        assert not missing, (workload, missing)
        # End-to-end numbers still come from the untraced child.
        assert set(record["metrics"]) == {m["name"]
                                          for m in SPEC["end_to_end"]}


def test_each_workload_loads_its_own_layers(traced):
    layers = {workload: record["layers"]
              for workload, (_, record, _) in traced.items()}
    assert layers["inter_5k"]["inter.routing.route.calls"] > 0
    assert layers["inter_5k"]["intra.forwarding.route.calls"] == 0
    assert layers["intra_5k"]["intra.forwarding.route.calls"] > 0
    assert layers["intra_5k"]["inter.routing.route.calls"] == 0
    assert layers["churn_intra"]["sim.engine.step.calls"] > 0
    assert layers["churn_intra"]["intra.failure.link_failure.calls"] > 0
    assert layers["churn_inter"]["workload.events"] > 0
    # The traced server is wrapped too: its layers show behind the socket.
    assert layers["serve_session"]["intra.forwarding.route.calls"] > 0
    assert layers["serve_session"]["serve.op.send.calls"] > 0
    for workload in WORKLOADS:
        assert layers[workload]["util.ringmap.columnar.lookup_us"] > 0


def test_same_seed_same_digest(traced):
    _, record, _ = traced["churn_inter"]
    code, stdout = run_bench("--workload", "churn_inter", "--seed", "5",
                             "--smoke", "--out",
                             os.path.join(OUT_DIR, "test-digest.json"))
    assert code == 0
    assert "sim_digest {}".format(record["sim_digest"]) in stdout


def test_no_program_no_result(tmp_path):
    """In a directory with only BENCHMARK.json and bench/, the command
    fails without printing a result."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "inter_5k",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- spans -------------------------------------------------------------------

def test_span_trees_are_well_formed(traced):
    for workload, (_, _, lines) in traced.items():
        spans = [line for line in lines if "span" in line]
        assert spans, workload
        by_id = {span["span"]: span for span in spans}
        children = {}
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["op"] == span["op"]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
                children.setdefault(span["parent"], []).append(span)
        self_time = {}
        for span in spans:
            covered = sum(c["end"] - c["start"]
                          for c in children.get(span["span"], ()))
            self_time[span["span"]] = span["end"] - span["start"] - covered
            assert self_time[span["span"]] >= -1e-9
        for root in (s for s in spans if s["parent"] is None):
            total = sum(self_time[s["span"]] for s in spans
                        if s["op"] == root["op"])
            assert total == pytest.approx(root["end"] - root["start"],
                                          rel=0.01)


def test_tracer_self_time_is_duration_minus_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    metrics = tracer.metrics()
    assert metrics["outer.calls"] == 1 and metrics["inner.calls"] == 2
    assert metrics["outer.self_s"] == pytest.approx(
        metrics["outer.busy_s"] - metrics["inner.busy_s"])
    assert metrics["inner.self_s"] == pytest.approx(metrics["inner.busy_s"])
    assert tracer.ops == 1


def test_unresolvable_target_degrades_to_null():
    from repro.sim.engine import EventLoop

    original = EventLoop.step
    tracer = Tracer()
    table = (Boundary("gone.layer", ("repro.sim.engine:EventLoop.renamed",)),
             Boundary("gone.module", ("repro.no_such_module:f",)),
             Boundary("sim.engine.step", ("repro.sim.engine:EventLoop.step",)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install(table)
    try:
        assert tracer.unresolved == ["gone.layer", "gone.module"]
        assert len(caught) == 2
        loop = EventLoop()
        loop.schedule(0.0, lambda: None)
        loop.run()
        assert tracer.metrics()["sim.engine.step.calls"] == 1
    finally:
        tracer.uninstall()
    assert EventLoop.step is original
    layers = tracer.metrics()
    assert bench_run.layer_value("gone.layer.busy_s", layers,
                                 tracer.unresolved) is None
    assert bench_run.layer_value("sim.engine.step.calls", layers,
                                 tracer.unresolved) == 1
    assert bench_run.layer_value("intra.join.calls", layers,
                                 tracer.unresolved) == 0


def test_the_boundary_table_resolves_today():
    tracer = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracer.install(BOUNDARIES)
    tracer.uninstall()
    assert tracer.unresolved == []


# -- inputs and comparison ---------------------------------------------------

def test_inputs_come_from_the_seed():
    assert inputs.serve_tape(3, 500) == inputs.serve_tape(3, 500)
    assert inputs.serve_tape(3, 500) != inputs.serve_tape(4, 500)
    assert inputs.churn_scenario("inter", 3, 1.0) \
        == inputs.churn_scenario("inter", 3, 1.0)
    assert inputs.churn_scenario("inter", 3, 1.0)["seed"] \
        != inputs.churn_scenario("inter", 4, 1.0)["seed"]


def test_fault_victims_never_partition_the_isp():
    # A ring of six routers with one chord, and a leaf hanging off r0:
    # the leaf's only link and r0 itself must never be chosen.
    routers = ["r{}".format(i) for i in range(6)] + ["leaf"]
    links = [("r{}".format(i), "r{}".format((i + 1) % 6)) for i in range(6)]
    links += [("r0", "r3"), ("r0", "leaf")]
    for seed in range(20):
        cut, crash = inputs.connected_victims(routers, links, seed)
        assert (cut, crash) == inputs.connected_victims(routers, links, seed)
        assert ["r0", "leaf"] not in cut and ["leaf", "r0"] not in cut
        assert crash != ["r0"] and len(crash) == 1
        assert len(cut) == 2      # a third cut would split the ring
        spec = inputs.churn_scenario("intra", seed, 1.0, (cut, crash))
        assert spec["faults"][0]["links"] == cut


def test_compare_flags_regressions_and_digest_changes(tmp_path, capsys):
    def result(path, join_rate, digest):
        metrics = {m["name"]: {"value": 1.0, "n": 1}
                   for m in SPEC["end_to_end"]}
        metrics["join_per_s"] = {"value": join_rate, "n": 1}
        runs = [{"workload": "inter_5k", "seed": seed, "sim_digest": digest,
                 "metrics": metrics} for seed in range(3)]
        with open(path, "w") as fh:
            json.dump({"scale": 1.0, "runs": runs}, fh)
        return str(path)

    base = result(tmp_path / "a.json", 1000.0, "d0")
    assert compare.main([base, result(tmp_path / "b.json", 990.0, "d0")]) == 0
    assert compare.main([base, result(tmp_path / "c.json", 700.0, "d0")]) == 1
    assert "OUT" in capsys.readouterr().out
    assert compare.main([base, result(tmp_path / "d.json", 1000.0, "d1")]) == 1
    assert "MISMATCH" in capsys.readouterr().out
