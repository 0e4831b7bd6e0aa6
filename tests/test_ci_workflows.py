"""The CI definition itself: a workflow file that does not parse runs no
gate at all, and nothing else notices."""

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
