"""The CI definition itself: a workflow file that does not parse runs no
gate at all, and nothing else notices."""

import ast
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


def test_malformed_scenario_step_expects_exit_2_and_one_line(tmp_path):
    """Three malformed files, each under ``timeout`` (``Infinity`` used to
    parse and never return), each expected to exit 2 with one
    ``workload:`` line naming the key; the step is run here as CI runs it
    (``bash -e``).  The fuzz step beside it runs the tier-1 test under the
    10⁴-example profile ``tests/conftest.py`` registers."""
    script = _bench_smoke_step("Infinity")
    for expected in ('"seed": "abc"', '"lifetime": 5', "timeout 20",
                     "test $status -eq 2", 'wc -l < $dir/err)" -eq 1'):
        assert expected in script
    done = subprocess.run(
        ["bash", "-e", "-c", script.replace("python -m", sys.executable
                                            + " -m")],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True,
        text=True, env={"TMPDIR": str(tmp_path), "PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("workload: ") == 3
    fuzz = _bench_smoke_step("--hypothesis-profile fuzz")
    assert "tests/test_workload_scenario.py" in fuzz and "-k fuzz" in fuzz
    from hypothesis import settings
    assert settings.get_profile("fuzz").max_examples == 10 ** 4


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
