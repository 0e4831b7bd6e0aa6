"""The CI definition itself: a workflow file that does not parse runs no
gate at all, and nothing else notices."""

import ast
import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = sorted((Path(__file__).resolve().parent.parent
                    / ".github" / "workflows").glob("*.y*ml"))


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
    """Steps run ``from perf_trajectory import …`` in heredocs nothing
    else parses: deleting a helper there (the uncalibrated scaling-cliff
    gate went in PR 16) must not leave a step importing it."""
    source = (path.parent.parent.parent / "benchmarks"
              / "perf_trajectory.py").read_text()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    doc = yaml.safe_load(path.read_text())
    for job in doc["jobs"].values():
        for step in job["steps"]:
            for names in re.findall(r"from perf_trajectory import ([\w, ]+)",
                                    step.get("run", "")):
                assert set(names.replace(",", " ").split()) <= defined, step


def _digest_step():
    """The inline script of the bench-smoke step that holds the smoke run's
    ``sim_digest``s against ``tests/golden_bench_digests.json``; it must
    directly follow the smoke run whose ``result.json`` it reads."""
    [path] = [p for p in WORKFLOWS if p.name == "ci.yml"]
    steps = yaml.safe_load(path.read_text())["jobs"]["bench-smoke"]["steps"]
    [at] = [i for i, step in enumerate(steps)
            if "golden_bench_digests.json" in step.get("run", "")]
    assert "bench/run.py --smoke" in steps[at - 1]["run"]
    return re.search(r"<<'EOF'\n(.*)\nEOF", steps[at]["run"], re.S).group(1)


def test_pinned_digests_cover_every_benchmark_workload():
    root = Path(__file__).resolve().parent.parent
    golden = json.loads((root / "tests" / "golden_bench_digests.json").read_text())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert set(golden["sim_digest"]) == {w["name"] for w in spec["workloads"]}
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest)
               for digest in golden["sim_digest"].values())


@pytest.mark.parametrize("moved", [None, "churn_intra"])
def test_digest_step_passes_on_the_pinned_run_and_fails_on_a_moved_one(
        tmp_path, moved):
    """The step is a heredoc nothing else executes: run it over a made-up
    ``bench/out/result.json``, once as pinned and once with one workload's
    digest moved (LRU order under ``churn_intra``'s small cache is what a
    forwarding "speed-up" moves first)."""
    golden_path = Path(__file__).resolve().parent / "golden_bench_digests.json"
    golden = json.loads(golden_path.read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / golden_path.name).write_text(golden_path.read_text())
    (tmp_path / "bench" / "out").mkdir(parents=True)
    (tmp_path / "bench" / "out" / "result.json").write_text(json.dumps({
        "runs": [{"workload": name, "seed": golden["seed"],
                  "scale": golden["scale"],
                  "sim_digest": digest if name != moved else "0" * 64}
                 for name, digest in golden["sim_digest"].items()]}))
    done = subprocess.run([sys.executable, "-c", _digest_step()],
                          cwd=tmp_path, capture_output=True, text=True)
    assert (done.returncode == 0) == (moved is None), done.stderr
    if moved:
        assert moved in done.stderr


def _bench_smoke_step(marker):
    [path] = [p for p in WORKFLOWS if p.name == "ci.yml"]
    steps = yaml.safe_load(path.read_text())["jobs"]["bench-smoke"]["steps"]
    [step] = [step for step in steps if marker in step.get("run", "")]
    return step["run"]


def test_the_evicting_snapshot_gate_passes(tmp_path):
    """The 2k-host twin gate with 64-entry caches and a cut before the
    save, run as CI runs it: the saved network and its loaded twin go on
    (restore, joins, sends, another cut) and must still hash alike — the
    intern tables of the router caches are derived state.  Then the same
    over 64-entry AS caches, with a failed hosting stub before the save
    and a second one after (~4 s)."""
    script = re.search(r"<<'EOF'\n(.*)\nEOF", _bench_smoke_step(
        "evicting 2k-host gate OK"), re.S).group(1)
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "evicting 2k-host gate OK" in done.stdout


def test_snapshot_round_trip_step_saves_and_verifies_both_rofl_kinds(
        tmp_path):
    """A 500-host file of each ROFL kind is saved, inspected and verified,
    run here as CI runs it (``bash -e``, ~2 s), in a scratch directory:
    the interdomain file holds the ``ASPointer`` records the intradomain
    one does not."""
    script = _bench_smoke_step("snapshot save inter500.snap")
    for expected in ("snapshot save net500.snap", "snapshot info net500.snap",
                     "snapshot verify net500.snap",
                     "--kind inter --ases 60 --hosts 500",
                     "snapshot info inter500.snap",
                     "snapshot verify inter500.snap"):
        assert expected in script
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        ["bash", "-e", "-c", script.replace("PYTHONPATH=src", "PYTHONPATH="
                                            + str(src))
         .replace("python -m", sys.executable + " -m")],
        cwd=tmp_path, capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stdout + done.stderr
    for name, kind in (("net500.snap", "IntraDomainNetwork"),
                       ("inter500.snap", "InterDomainNetwork")):
        assert "verify: {} OK".format(name) in done.stdout
        assert re.search(r"^kind +{}$".format(kind), done.stdout, re.M)


def test_malformed_scenario_step_expects_exit_2_and_one_line(tmp_path):
    """Four malformed files, each under ``timeout`` (``Infinity`` used to
    parse and never return; five ASes failed mid-build), each expected to
    exit 2 with one ``workload:`` line naming the key; then three faults
    naming a router, PoP or AS the network does not have (the PoP and the
    AS were ``KeyError`` tracebacks mid-run), each expected to exit 2 with
    one ``repro: fault '<kind>' at …: unknown …`` line.  The step is run
    here as CI runs it (``bash -e``).  The fuzz step beside it runs the
    tier-1 test under the 10⁴-example profile ``tests/conftest.py``
    registers."""
    script = _bench_smoke_step("Infinity")
    for expected in ('"seed": "abc"', '"lifetime": 5', '"n_ases": 5',
                     '"routers": ["nope"]', '"pop": 999', '"asn": "nope"',
                     "timeout 20",
                     "test $status -eq 2", 'wc -l < $dir/err)" -eq 1'):
        assert expected in script
    done = subprocess.run(
        ["bash", "-e", "-c", script.replace("python -m", sys.executable
                                            + " -m")],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True,
        text=True, env={"TMPDIR": str(tmp_path), "PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("workload: ") == 4
    assert done.stdout.count("repro: fault '") == 3
    for kind in ("router_crash", "pop_partition", "as_depeer"):
        assert re.search(r"^repro: fault '{}' at [0-9.]+: unknown ".format(kind),
                         done.stdout, re.M), done.stdout
    fuzz = _bench_smoke_step("tests/test_workload_scenario.py")
    assert "--hypothesis-profile fuzz" in fuzz and "-k fuzz" in fuzz
    from hypothesis import settings
    assert settings.get_profile("fuzz").max_examples == 10 ** 4


def test_unopenable_path_and_bad_port_step_expects_exit_2_and_one_line(
        tmp_path):
    """A snapshot that is not there, a metrics stream in a directory that
    is not there (a traceback after the build) and a port past 65535 (an
    ``OverflowError`` from ``bind()`` after the build): each exits 2 with
    nothing on stdout and one line on stderr, run here as CI runs it."""
    script = _bench_smoke_step("--tcp 70000")
    for expected in ("snapshot info $dir/missing.snap",
                     "--metrics-out $dir/no/m.jsonl", "test $status -eq 2",
                     "test ! -s $dir/out"):
        assert expected in script
    done = subprocess.run(
        ["bash", "-e", "-c", script.replace("python -m", sys.executable
                                            + " -m")],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True,
        text=True, env={"TMPDIR": str(tmp_path), "PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("repro: ") == 2
    assert done.stdout.count("repro serve: error: argument --tcp: ") == 1


def test_probe_gate_step_passes(tmp_path):
    """``steady-churn --seed 2`` (its link cuts split the ISP) and
    ``crash-then-partition.json`` (a PoP cycle after a crash that cut
    routers off) under ``--probes``: the step fails on a non-zero exit or
    a non-empty ``violations``, and runs here as CI runs it (~2 s)."""
    script = _bench_smoke_step("probe gate OK")
    for expected in ("steady-churn --seed 2", "--probes",
                     "examples/scenarios/crash-then-partition.json"):
        assert expected in script
    done = subprocess.run(
        ["bash", "-e", "-c", script.replace("python ", sys.executable + " ")],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True,
        text=True, env={"TMPDIR": str(tmp_path), "PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stdout + done.stderr
    assert "probe gate OK: 2 runs, no violations" in done.stdout


@functools.lru_cache(maxsize=None)
def _ring_sweep_step_run():
    """The ring-sweep step as CI runs it (``bash -e``, a bare environment)
    over the two seeds past the ones the goldens pin; run once for both
    kinds' tests."""
    script = _bench_smoke_step("benchmarks/ring_sweep.py")
    assert script.strip() == "python benchmarks/ring_sweep.py --seeds 0-59"
    return subprocess.run(
        ["bash", "-e", "-c", script.replace("python ", sys.executable + " ")
         .replace("0-59", "58-59")],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True,
        text=True, env={"PATH": "/usr/bin:/bin"})


def test_ring_sweep_step_passes():
    """The step runs all 60 sweep seeds of both kinds and fails on a
    non-zero exit; here it runs over seeds 58-59 — the pinned ones run in
    ``tests/test_ring_sweep.py`` and ``tests/test_inter_sweep.py``, and all
    60 take ~25 s."""
    done = _ring_sweep_step_run()
    assert done.returncode == 0, done.stdout + done.stderr
    assert [line.split()[:2] for line in done.stdout.splitlines()] == [
        ["intra", "58"], ["inter", "58"], ["intra", "59"], ["inter", "59"]]


def test_inter_sweep_step_passes():
    """The interdomain sweep has no step of its own: the ring-sweep step
    runs it, one ``inter seed hash`` line per seed past the ones
    ``tests/golden_inter_sweep.json`` pins."""
    [path] = [p for p in WORKFLOWS if p.name == "ci.yml"]
    assert "inter_sweep.py" not in path.read_text()
    done = _ring_sweep_step_run()
    assert done.returncode == 0, done.stdout + done.stderr
    inter = [line.split() for line in done.stdout.splitlines()
             if line.startswith("inter ")]
    assert [fields[1] for fields in inter] == ["58", "59"]
    assert all(re.fullmatch(r"[0-9a-f]{16}", fields[2]) for fields in inter)


def test_compare_stretch_step_passes_no_flag_but_json(tmp_path):
    """The gate runs the registry's head-to-head at the registry's sizes
    (the command has no size flags), and its inline asserts hold on the
    file that run writes."""
    step = _bench_smoke_step("repro compare-stretch")
    [command] = [line.split() for line in step.splitlines()
                 if "repro compare-stretch" in line]
    assert command[command.index("compare-stretch") + 1:] == [
        "--json", "compare_stretch.json"]
    from repro.__main__ import main
    assert main(["compare-stretch", "--json",
                 str(tmp_path / "compare_stretch.json")]) == 0
    script = re.search(r"<<'EOF'\n(.*)\nEOF", step, re.S).group(1)
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "compare-stretch gate OK" in done.stdout


def test_examples_step_runs_every_file_in_examples():
    """An example no job runs rots unseen: bench-smoke runs each one."""
    step = _bench_smoke_step("examples/quickstart.py")
    examples = sorted((Path(__file__).resolve().parent.parent
                       / "examples").glob("*.py"))
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
