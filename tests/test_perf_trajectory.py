"""``benchmarks/perf_trajectory.py``'s row check on canned rows: the file
the sweep writes is what ``repro report --bench`` reads, so ``validate``
refuses a row it would misread — without running the sweep."""

import importlib.util
from pathlib import Path

import pytest

_PATH = (Path(__file__).resolve().parent.parent / "benchmarks"
         / "perf_trajectory.py")
_SPEC = importlib.util.spec_from_file_location("perf_trajectory", _PATH)
perf_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_trajectory)


def row(**changed):
    base = {"hosts": 100, "join_seconds": 0.5, "joins_per_sec": 200.0,
            "send_seconds": 0.1, "sends_per_sec": 20000.0,
            "perf": {"counters": {}, "timers": {"inter.join": {"calls": 1}}}}
    return dict(base, **changed)


def data(bad=None):
    return {"interdomain": [row()], "intradomain": [row(), bad or row()]}


def test_a_sweep_of_whole_rows_validates():
    perf_trajectory.validate(data())


@pytest.mark.parametrize("bad, message", [
    (row(joins_per_sec=0.0), "joined at 0.0 per s"),
    (row(perf={"counters": {}, "timers": {}}), "has no phase timers"),
    (row(perf={"counters": {}}), "has no phase timers"),
    ({"hosts": 100}, "row lacks"),
], ids=["no-joins", "empty-timers", "no-timers", "missing-keys"])
def test_a_row_without_joins_or_timers_is_refused(bad, message):
    with pytest.raises(ValueError, match=message):
        perf_trajectory.validate(data(bad))


def test_an_empty_section_is_refused():
    with pytest.raises(ValueError, match="'intradomain' is empty"):
        perf_trajectory.validate({"interdomain": [row()], "intradomain": []})
