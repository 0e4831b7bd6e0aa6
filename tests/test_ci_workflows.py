"""The CI definition itself, and the gates CI once ran as workflow text.

A workflow file that does not parse runs no gate at all, and nothing else
notices.  Every step is a command line: what a step checks lives in a
tier-1 test (here, or beside the code it checks) or in a checked-in
program the step runs, so no check has a second copy in the workflow.
The two tests that start a child process run the real entry point, with
no bytecode written."""

import ast
import contextlib
import functools
import importlib.util
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro import build_network, snapshot
from repro.__main__ import main
from repro.intra.pointercache import PointerCache
from tests.conftest import CHILD_ENV

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.y*ml"))


def _benchmark(name):
    """``benchmarks/<name>.py`` as a module, run in this process."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "benchmarks" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_smoke_steps():
    [path] = [p for p in WORKFLOWS if p.name == "ci.yml"]
    return yaml.safe_load(path.read_text())["jobs"]["bench-smoke"]["steps"]


def _bench_smoke_step(marker):
    [step] = [step for step in _bench_smoke_steps()
              if marker in step.get("run", "")]
    return step["run"]


def _entry_point(argv, tmp_path):
    """``python -m repro`` as a user's shell runs it, under a timeout
    (``Infinity`` once made a run that never returned)."""
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=tmp_path, env=CHILD_ENV, capture_output=True,
                          text=True, timeout=60)


def test_workflows_exist():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_workflow_parses_into_jobs_of_steps(path):
    doc = yaml.safe_load(path.read_text())
    assert doc["jobs"]
    for job in doc["jobs"].values():
        assert job["steps"]
        for step in job["steps"]:
            assert "run" in step or "uses" in step, step


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda path: path.name)
def test_inline_scripts_import_only_what_perf_trajectory_defines(path):
    """No step carries a program, so none can import a helper a script
    dropped (a heredoc once imported ``perf_trajectory``'s scaling-cliff
    gate, long after the uncalibrated gate was deleted): no
    heredoc, no program piped into ``python -`` or passed with ``-c``,
    and every script or test path a ``python`` / ``pytest`` command
    names exists.  The children this file starts write no bytecode into
    the checkout (it made ``src/`` import faster and benchmark runs read
    better)."""
    doc = yaml.safe_load(path.read_text())
    for job in doc["jobs"].values():
        for step in job["steps"]:
            run = step.get("run", "")
            assert "<<" not in run, step["name"]
            for line in run.replace("\\\n", " ").splitlines():
                words = shlex.split(line, comments=True)
                for at, word in enumerate(words):
                    if not re.fullmatch(r"python3?|pytest", word):
                        continue
                    assert words[at + 1:at + 2] != ["-"], line
                    assert "-c" not in words[at + 1:], line
                    for arg in words[at + 1:]:
                        if not arg.startswith("-") and (
                                "/" in arg or arg.endswith(".py")):
                            assert (ROOT / arg.split("::")[0]).exists(), line
    assert CHILD_ENV["PYTHONDONTWRITEBYTECODE"] == "1"
    calls = [node for node in ast.walk(ast.parse(Path(__file__).read_text()))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).startswith("subprocess.")]
    assert calls
    for call in calls:
        env = {kw.arg: ast.unparse(kw.value) for kw in call.keywords}
        assert env.get("env") == "CHILD_ENV", ast.unparse(call)


def test_pinned_digests_cover_every_benchmark_workload():
    golden = json.loads((ROOT / "tests" / "golden_bench_digests.json")
                        .read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(golden["sim_digest"]) == {w["name"] for w in spec["workloads"]}
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest)
               for digest in golden["sim_digest"].values())


@pytest.mark.parametrize("moved", [None, "churn_intra"])
def test_digest_step_passes_on_the_pinned_run_and_fails_on_a_moved_one(
        tmp_path, capsys, moved):
    """The step right after the smoke run is ``benchmarks/check_digests.py``
    on the ``result.json`` that run wrote.  Here it reads a made-up one,
    once as pinned and once with one workload's digest moved (LRU order
    under ``churn_intra``'s small cache is what a forwarding "speed-up"
    moves first)."""
    steps = [step.get("run", "").strip() for step in _bench_smoke_steps()]
    at = steps.index("python3 benchmarks/check_digests.py")
    assert steps[at - 1].startswith("python3 bench/run.py --smoke")
    golden = json.loads((ROOT / "tests" / "golden_bench_digests.json")
                        .read_text())
    result = tmp_path / "result.json"
    result.write_text(json.dumps({
        "runs": [{"workload": name, "seed": golden["seed"],
                  "scale": golden["scale"],
                  "sim_digest": digest if name != moved else "0" * 64}
                 for name, digest in golden["sim_digest"].items()]}))
    assert _benchmark("check_digests").main([str(result)]) == (
        0 if moved is None else 1)
    err = capsys.readouterr().err
    assert (err == "") == (moved is None), err
    if moved:
        assert err.startswith("check_digests: {}: ".format(moved))


def _spare_link(net, cut, taken=()):
    """Cut the first link (sorted) whose loss leaves the ISP whole."""
    for link in sorted(net.lsmap.links()):
        if link not in taken:
            cut(*link)
            if len(net.lsmap.components()) == 1:
                return link
            net.restore_link(*link)


def _shared_routes(net):
    """Cached routes that are a ring pointer's own path tuple."""
    paths = {id(ptr.path) for router in net.routers.values()
             for vn in router.vn_table.values()
             for ptr in [vn.predecessor, *vn.successors,
                         *vn.ephemeral_children.values()]
             if ptr is not None}
    return sum(id(route) in paths for router in net.routers.values()
               for route in router.cache._lru.values())


def _hosting_stub(net, taken=()):
    """The first live stub AS (sorted) that hosts IDs."""
    for asn in sorted(net.asg.stubs(), key=str):
        if asn not in taken and net.as_is_up(asn) and net.ases[asn].hosted:
            return asn


def _shared_as_routes(net):
    """Cached AS routes that are a ring pointer's own route."""
    routes = {id(ptr.as_route) for node in net.ases.values()
              for vn in node.hosted.values()
              for ptr in [*vn.succ_by_level.values(),
                          *vn.pred_by_level.values(), *vn.fingers]}
    return sum(id(route) in routes for node in net.ases.values()
               for route in node.cache._lru.values())


def _both(op, net, twin):
    assert op(net) == op(twin), "the saved and the loaded twin diverged"


def test_the_evicting_snapshot_gate_passes(tmp_path, monkeypatch):
    """The snapshot determinism gate at 2k hosts with 64-entry caches.
    First a fresh build hashes as its loaded snapshot and both replay 200
    sends identically.  Then, with a cut before the save, the saved
    network and its loaded twin go on (restore, joins, sends, another
    cut) and must still hash alike — the intern tables of the router
    caches are derived state.  Then the same over 64-entry AS
    caches, with a failed hosting stub before the save and a second one
    after.  It catches a table not rebuilt on load, one shared across
    caches, and a cache that adopts a handed tuple."""
    # The gate must reach repairs, not only evictions: count the replaces
    # that refresh an ID the cache holds.
    refreshed = []
    replace = PointerCache.replace

    def counting(cache, iv, route):
        refreshed.append(iv in cache._lru)
        replace(cache, iv, route)

    monkeypatch.setattr(PointerCache, "replace", counting)

    net = build_network(kind="intra", seed=0, n_routers=40, hosts=2000,
                        cache_entries=64, name="serve")
    # A fresh build and its loaded twin (``verify=True``: it hashes as the
    # saved build) replay the same 200 sends.  A query on the twin alone
    # must leave nothing behind that the replay could see.
    snapshot.save(net, str(tmp_path / "built.snap"))
    loaded = snapshot.load(str(tmp_path / "built.snap"), verify=True)
    routers = loaded.lsmap.live_routers()
    assert loaded.lsmap.reachable(routers[0], routers[-1])
    for _ in range(200):
        pair = net.random_host_pair()
        assert pair == loaded.random_host_pair()
        assert net.send(*pair) == loaded.send(*pair), \
            "replay diverged after snapshot load"
    del loaded

    # A bare link-state cut: every route over the link, cached ones
    # included, is repaired when a packet commits to it.
    first = _spare_link(net, net.lsmap.fail_link)
    for _ in range(300):
        assert net.send(*net.random_host_pair()).delivered
    assert sum(r.cache.evictions for r in net.routers.values()) > 0
    assert any(refreshed), "no cached route was repaired before the save"
    snapshot.save(net, str(tmp_path / "evicting2k.snap"))
    twin = snapshot.load(str(tmp_path / "evicting2k.snap"), verify=True)
    # ``verify=True`` again: the twin hashes as ``net`` did at the save.
    # The saved network's intern tables remember routes its caches
    # dropped; the loaded twin's hold only what its caches hold.
    _both(lambda n: n.restore_link(*first), net, twin)
    for _ in range(50):
        _both(lambda n: n.join_next(), net, twin)
    for _ in range(300):
        _both(lambda n: n.send(*n.random_host_pair()), net, twin)
    _both(lambda n: _spare_link(n, n.fail_link, taken={first}), net, twin)
    for _ in range(100):
        _both(lambda n: n.send(*n.random_host_pair()), net, twin)
    assert snapshot.state_hash(twin) == snapshot.state_hash(net), \
        "saved and loaded twins hash apart after evictions and repairs"
    assert _shared_routes(net) == _shared_routes(twin) == 0, \
        "a router cache adopted a ring pointer's path"
    del net, twin

    # The same gate over AS caches: routes of AS numbers, interned per
    # cache, never a ring pointer's own route.
    inter = build_network(kind="inter", seed=0, n_ases=60, hosts=300,
                          cache_entries=64, name="serve")
    stub = _hosting_stub(inter)
    inter.fail_as(stub)
    used = sum(inter.send(*inter.random_host_pair()).used_cache
               for _ in range(300))
    assert used and sum(node.cache.evictions
                        for node in inter.ases.values()) > 0
    snapshot.save(inter, str(tmp_path / "evicting-inter.snap"))
    twin = snapshot.load(str(tmp_path / "evicting-inter.snap"), verify=True)
    for _ in range(50):
        _both(lambda n: n.join_next(), inter, twin)
    for _ in range(300):
        _both(lambda n: n.send(*n.random_host_pair()), inter, twin)
    _both(lambda n: n.fail_as(_hosting_stub(n, taken={stub})), inter, twin)
    for _ in range(100):
        _both(lambda n: n.send(*n.random_host_pair()), inter, twin)
    assert snapshot.state_hash(twin) == snapshot.state_hash(inter), \
        "saved and loaded AS-cache twins hash apart"
    assert _shared_as_routes(inter) == _shared_as_routes(twin) == 0, \
        "an AS cache adopted a ring pointer's route"


def test_snapshot_round_trip_step_saves_and_verifies_both_rofl_kinds(
        tmp_path, capsys):
    """A 500-host file of each ROFL kind is saved, inspected and verified
    through ``main``: the interdomain file holds the ``ASPointer`` records
    the intradomain one does not."""
    for name, sizes, kind in (
            ("net500.snap", ["--hosts", "500", "--routers", "40"],
             "IntraDomainNetwork"),
            ("inter500.snap", ["--kind", "inter", "--ases", "60",
                               "--hosts", "500"], "InterDomainNetwork")):
        path = str(tmp_path / name)
        assert main(["snapshot", "save", path] + sizes) == 0
        assert main(["snapshot", "info", path]) == 0
        assert main(["snapshot", "verify", path]) == 0
        out = capsys.readouterr().out
        assert "verify: {} OK".format(path) in out
        assert re.search(r"^kind +{}$".format(kind), out, re.M), out


def test_malformed_scenario_step_expects_exit_2_and_one_line(tmp_path):
    """``Infinity`` parsed once and the run never returned: through the
    real entry point it exits 2 in time, with nothing on stdout and one
    ``workload:`` line naming the key.  ``tests/test_cli.py`` holds the
    rest of the matrix in-process (every malformed file, every unknown
    fault victim).  The fuzz step runs the tier-1 test under the
    10⁴-example profile ``tests/conftest.py`` registers."""
    (tmp_path / "duration.json").write_text(
        '{"name": "bad", "duration": Infinity}\n')
    done = _entry_point(["workload", "duration.json"], tmp_path)
    assert done.returncode == 2 and done.stdout == "", done.stderr
    assert re.fullmatch(r"workload: .*duration.*\n", done.stderr), done.stderr
    fuzz = _bench_smoke_step("tests/test_workload_scenario.py")
    assert "--hypothesis-profile fuzz" in fuzz and "-k fuzz" in fuzz
    from hypothesis import settings
    assert settings.get_profile("fuzz").max_examples == 10 ** 4


def test_unopenable_path_and_bad_port_step_expects_exit_2_and_one_line(
        tmp_path):
    """A port past 65535 was an ``OverflowError`` from ``bind()`` after
    the build: through the real entry point it is a usage error, exit 2,
    nothing on stdout and one line under argparse's synopsis.
    ``tests/test_cli.py`` holds every unopenable path and every transport
    flag out of range in-process."""
    done = _entry_point(["serve", "--hosts", "5", "--tcp", "70000"], tmp_path)
    assert done.returncode == 2 and done.stdout == "", done.stderr
    [line] = [line for line in done.stderr.splitlines()
              if not line.startswith(("usage: ", "  "))]
    assert line.startswith("repro serve: error: argument --tcp: "), line


def test_probe_gate_step_passes():
    """``steady-churn --seed 2`` (its link cuts split the ISP) and
    ``crash-then-partition.json`` (a PoP cycle after a crash that cut
    routers off), each run under probes fed by a tracer as ``workload
    --probes`` runs them, end with no violation."""
    from repro.obs.trace import NullSink, Tracer, tracing
    from repro.workload.driver import run_scenario
    from repro.workload.scenario import Scenario, builtin_scenario

    split = builtin_scenario("steady-churn")
    split.seed = 2
    crash = Scenario.load(str(ROOT / "examples" / "scenarios"
                              / "crash-then-partition.json"))
    for scenario in (split, crash):
        tracer = Tracer(sink=NullSink())
        with tracing(tracer):
            result = run_scenario(scenario, tracer=tracer, probes=True)
        tracer.close()
        assert result.violations == [], (scenario.name,
                                          result.violations[:3])


@functools.lru_cache(maxsize=None)
def _ring_sweep_run():
    """``ring_sweep.main`` over the two seeds past the ones the goldens
    pin, in this process; run once for both kinds' tests."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = _benchmark("ring_sweep").main(["--seeds", "58-59"])
    return status, out.getvalue()


def test_ring_sweep_step_passes():
    """The step runs all 60 sweep seeds of both kinds and fails on a
    non-zero exit; here they are seeds 58-59 — the pinned ones run in
    ``tests/test_ring_sweep.py`` and ``tests/test_inter_sweep.py``, and
    all 60 take ~25 s."""
    assert _bench_smoke_step("benchmarks/ring_sweep.py").strip() \
        == "python benchmarks/ring_sweep.py --seeds 0-59"
    status, out = _ring_sweep_run()
    assert status == 0, out
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["intra", "58"], ["inter", "58"], ["intra", "59"], ["inter", "59"]]


def test_inter_sweep_step_passes():
    """The interdomain sweep has no step of its own: the ring-sweep step
    runs it, one ``inter seed hash`` line per seed past the ones
    ``tests/golden_inter_sweep.json`` pins."""
    [path] = [p for p in WORKFLOWS if p.name == "ci.yml"]
    assert "inter_sweep.py" not in path.read_text()
    status, out = _ring_sweep_run()
    assert status == 0, out
    inter = [line.split() for line in out.splitlines()
             if line.startswith("inter ")]
    assert [fields[1] for fields in inter] == ["58", "59"]
    assert all(re.fullmatch(r"[0-9a-f]{16}", fields[2]) for fields in inter)


def test_compare_stretch_step_passes_no_flag_but_json():
    """The gate is the command's own exit status (non-zero on any bound,
    probe, attribution, undelivered or all-pairs breach): the step runs
    the registry's head-to-head at the registry's sizes, the command
    having no size flags, and writes the file the report step reads.
    ``tests/test_cli.py::test_compare_stretch_gate`` runs it."""
    step = _bench_smoke_step("repro compare-stretch")
    assert step.strip() == ("PYTHONPATH=src python -m repro compare-stretch "
                            "--json compare_stretch.json")


def test_examples_step_runs_every_file_in_examples():
    """An example no job runs rots unseen: bench-smoke runs each one."""
    step = _bench_smoke_step("examples/quickstart.py")
    examples = sorted((ROOT / "examples").glob("*.py"))
    assert examples
    for example in examples:
        assert "python examples/{}\n".format(example.name) in step + "\n"


def test_twin_engine_step_runs_both_reference_engines_at_the_twins_profile():
    """Tier-1 runs each twin-engine tape test at 4 examples; bench-smoke
    runs both ``TestReferenceEngine`` classes at the ``twins`` profile's
    budget, which ``tests/conftest.py`` registers."""
    step = _bench_smoke_step("--hypothesis-profile twins")
    for expected in ("tests/test_intra_forwarding.py",
                     "tests/test_inter_routing.py", "-k TestReferenceEngine"):
        assert expected in step
    from hypothesis import settings
    assert settings.get_profile("twins").max_examples > 4


def test_twin_engine_step_runs_both_stateful_machines_at_the_twins_profile():
    """The same step runs both tape machines at the ``twins`` profile's
    budget; tier-1 runs them at 25 and 12 examples."""
    step = _bench_smoke_step("--hypothesis-profile twins")
    [command] = [line for line in step.replace("\\\n", " ").splitlines()
                 if "tests/test_stateful_ring.py" in line]
    for expected in ("tests/test_stateful_internet.py",
                     "--hypothesis-profile twins"):
        assert expected in command
    assert " -k " not in command
    from tests.conftest import profile_examples
    from tests.test_stateful_internet import TestInternetMachine
    from tests.test_stateful_ring import TestRingMachine
    assert (TestRingMachine.settings.max_examples,
            TestInternetMachine.settings.max_examples) == (
                profile_examples(25), profile_examples(12))


def test_twin_engine_step_runs_the_finger_twin_at_the_twins_profile():
    """The same step runs finger selection against its verbatim reference
    at the ``twins`` profile's budget per strategy and peering mode;
    tier-1 runs it at 2."""
    step = _bench_smoke_step("--hypothesis-profile twins")
    [command] = [line for line in step.replace("\\\n", " ").splitlines()
                 if "tests/test_inter_fingers.py" in line]
    for expected in ("-k TestReferenceTwin", "--hypothesis-profile twins"):
        assert expected in command
    from hypothesis import settings
    assert settings.get_profile("twins").max_examples > 2


def test_codec_step_runs_the_stream_equality_property_at_the_fuzz_profile():
    """Tier-1 draws 400 random graphs for the codec's stream-equality
    property; bench-smoke draws the ``fuzz`` profile's 10⁴."""
    step = _bench_smoke_step("tests/test_codec.py")
    for expected in ("-k test_random_graphs", "--hypothesis-profile fuzz"):
        assert expected in step
    from hypothesis import settings
    assert settings.get_profile("fuzz").max_examples == 10 ** 4


def test_snapshot_step_runs_the_damaged_file_property_at_the_fuzz_profile():
    """Tier-1 draws 100 damaged snapshot files; bench-smoke draws the
    ``fuzz`` profile's 10⁴."""
    step = _bench_smoke_step("tests/test_snapshot.py")
    for expected in ("-k test_fuzz_a_damaged_file", "--hypothesis-profile fuzz"):
        assert expected in step
    from hypothesis import settings
    assert settings.get_profile("fuzz").max_examples == 10 ** 4
