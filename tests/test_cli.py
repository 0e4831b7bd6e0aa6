"""The ``python -m repro`` command-line interface."""

import json
import os
import runpy
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ROFL" in out and "SIGCOMM 2006" in out


def test_figures_single(capsys):
    assert main(["figures", "--only", "fig6b"]) == 0
    out = capsys.readouterr().out
    assert "Fig 6b" in out and "paper:" in out


def test_figures_unknown_prefix(capsys):
    assert main(["figures", "--only", "fig99"]) == 2
    assert "no figure matches" in capsys.readouterr().err


def test_figures_and_reproduce_paper_run_the_same_registry(monkeypatch,
                                                          capsys):
    """``repro figures`` is the example's blocks — same ids, same
    parameters, same order — followed by the head-to-head."""
    from repro.harness import report as R
    from tests import golden_figures
    calls = []
    for figure_id, figure in list(R.FIGURES.items()):
        def driver(_id=figure_id, **kwargs):
            calls.append((_id, kwargs))
            return golden_figures.RESULTS[_id]
        monkeypatch.setitem(R.FIGURES, figure_id,
                            figure._replace(driver=driver))

    assert main(["figures"]) == 0
    cli_calls, cli_out = list(calls), capsys.readouterr().out
    del calls[:]
    monkeypatch.setattr(sys, "argv", ["reproduce_paper.py"])
    runpy.run_path(str(Path(__file__).resolve().parent.parent / "examples"
                       / "reproduce_paper.py"), run_name="__main__")
    example_out = capsys.readouterr().out

    assert [figure_id for figure_id, _ in cli_calls] == list(R.FIGURES)
    assert cli_calls[-1][0] == "headtohead"
    assert calls == cli_calls[:-1]
    for figure_id, text in golden_figures.TEXT.items():
        assert text in cli_out
        assert (text in example_out) == (figure_id != "headtohead")


def test_quickstart(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "ring consistent" in out
    assert "reconverged" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("figures", "workload", "quickstart", "info",
                    "serve", "snapshot", "compare-stretch", "report"):
        assert command in out


def test_compare_stretch_gate(tmp_path, capsys):
    out_path = tmp_path / "compare_stretch.json"
    assert main(["compare-stretch", "--hosts", "30", "--packets", "40",
                 "--ases", "20", "--inter-hosts", "30",
                 "--inter-packets", "30", "--all-pairs-hosts", "10",
                 "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Head-to-head" in out and "disco all-pairs sweep" in out
    data = json.loads(out_path.read_text())
    assert data["intra"]["disco"]["bound_violations"] == 0
    assert data["disco_all_pairs"]["violations"] == []


def test_report_compare_section(tmp_path, capsys):
    compare_path = tmp_path / "cmp.json"
    compare_path.write_text(json.dumps({
        "profile": "T", "intra": {"disco": {
            "sent": 1, "delivered": 1, "mean": 1.0, "p99": 1.0,
            "worst": 1.0, "stretch_bound": 3.0, "bound_violations": 0,
            "probe_violations": [], "attribution_mismatches": 0,
            "tail_attribution": {}}},
        "disco_all_pairs": {"pairs": 2, "max_stretch": 1.0, "bound": 3.0,
                            "undelivered": 0, "violations": []}}))
    assert main(["report", "--compare", str(compare_path)]) == 0
    out = capsys.readouterr().out
    assert "Stretch head-to-head" in out
    assert "| disco | 1 | 1 |" in out
    assert "all-pairs sweep: 2 pairs" in out


def test_workload_list(capsys):
    assert main(["workload", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("steady-churn", "flash-crowd", "depeering"):
        assert name in out


def test_workload_requires_scenario(capsys):
    assert main(["workload"]) == 2
    assert "need a scenario" in capsys.readouterr().err


def test_workload_unknown_scenario(capsys):
    assert main(["workload", "no-such-thing"]) == 2
    err = capsys.readouterr().err
    assert "no such builtin or file" in err


def test_workload_malformed_scenario_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    assert main(["workload", str(path)]) == 2
    assert "invalid scenario JSON" in capsys.readouterr().err


def test_workload_invalid_scenario_contents(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "duration": 5.0,
                                "faults": [{"kind": "meteor", "at": 1.0}]}))
    assert main(["workload", str(path)]) == 2
    assert "unknown fault kind" in capsys.readouterr().err


@pytest.mark.parametrize("command, label", [
    (["workload"], "workload: "), (["trace", "--scenario"], "trace: ")],
    ids=["workload", "trace"])
@pytest.mark.parametrize("content", [
    '{"name": "bad", "seed": "abc"}',
    '{"name": "bad", "phases": [{"start": 0, "end": 1, "churn": '
    '{"arrival_rate": 1, "lifetime": 5}}]}',
    '{"name": "bad", "duration": Infinity}',
    '{"name": "bad", "sample_intervall": 1}',
    b"\xff\xfe not text",
    None,
], ids=["wrong-type", "number-for-mapping", "infinity", "misspelt-key",
        "not-text", "a-directory"])
def test_a_scenario_that_cannot_be_read_or_parsed_exits_2_with_one_line(
        tmp_path, capsys, command, label, content):
    """Never a traceback, never a hang (``Infinity`` parsed and the run
    never returned), never a silent default (the misspelt key was
    dropped); a path that exists but cannot be read (``IsADirectoryError``,
    ``UnicodeDecodeError``) is reported like a missing one."""
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert main(command + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(label) and err.count("\n") == 1
    assert err.endswith("\n") and "Traceback" not in err


@pytest.mark.parametrize("fault", [
    {"kind": "link_cut", "at": 0.5, "links": [["r0", "nope"]]},
    {"kind": "link_restore", "at": 0.5, "links": [["r0", "nope"]]},
    {"kind": "router_crash", "at": 0.5, "routers": ["nope"]}],
    ids=lambda fault: fault["kind"])
def test_workload_fault_naming_an_unknown_victim_exits_2(tmp_path, capsys,
                                                         fault):
    """It used to print ``fault @ 0.5: {'links': [['r0', 'nope']], ...`` as
    done and exit 0."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "duration": 2.0, "warmup_hosts": 5,
        "sample_interval": 1.0,
        "network": {"kind": "intra", "n_routers": 12},
        "phases": [{"name": "p", "start": 0.0, "end": 2.0,
                    "traffic": {"rate": 3.0}}],
        "faults": [fault]}))
    assert main(["workload", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(
        "repro: fault '{}' at 0.5: unknown ".format(fault["kind"]))
    assert "'nope'" in captured.err


def test_workload_builtin_runs_and_reports(capsys):
    assert main(["workload", "steady-churn"]) == 0
    out = capsys.readouterr().out
    assert "scenario 'steady-churn'" in out
    assert "delivery" in out
    assert "fault @" in out


def test_workload_json_output(tmp_path, capsys):
    scenario_path = tmp_path / "tiny.json"
    scenario_path.write_text(json.dumps({
        "name": "tiny", "duration": 10.0, "warmup_hosts": 20,
        "sample_interval": 5.0,
        "network": {"kind": "intra", "n_routers": 12},
        "phases": [{"name": "p", "start": 0.0, "end": 10.0,
                    "churn": {"arrival_rate": 1.0},
                    "traffic": {"rate": 3.0}}],
    }))
    out_path = tmp_path / "result.json"
    assert main(["workload", str(scenario_path),
                 "--json", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert set(data) == {"scenario", "samples", "summary", "totals",
                         "fault_log", "violations"}
    assert data["scenario"]["name"] == "tiny"
    assert data["totals"]["warmup_hosts"] == 20


def test_workload_seed_override_changes_result(tmp_path, capsys):
    args = ["workload", "steady-churn", "--json", "-"]
    assert main(args) == 0
    base = json.loads(capsys.readouterr().out)
    assert main(args + ["--seed", "9"]) == 0
    reseeded = json.loads(capsys.readouterr().out)
    assert base["scenario"]["seed"] == 0
    assert reseeded["scenario"]["seed"] == 9
    assert base["samples"] != reseeded["samples"]


def test_seed_zero_overrides_a_scenario_file_seed(tmp_path, capsys):
    """``--seed 0`` is an override like any other, for ``workload`` and
    for ``trace --scenario``."""
    def scenario_file(seed):
        path = tmp_path / "seed{}.json".format(seed)
        path.write_text(json.dumps({
            "name": "tiny", "seed": seed, "duration": 10.0,
            "warmup_hosts": 20, "sample_interval": 5.0,
            "network": {"kind": "intra", "n_routers": 12},
            "phases": [{"name": "p", "start": 0.0, "end": 10.0,
                        "churn": {"arrival_rate": 1.0},
                        "traffic": {"rate": 3.0}}]}))
        return str(path)

    assert main(["workload", scenario_file(5), "--seed", "0",
                 "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"]["seed"] == 0
    assert main(["workload", scenario_file(5), "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"]["seed"] == 5

    assert main(["trace", "--scenario", scenario_file(0)]) == 0
    seeded_zero = capsys.readouterr().out
    assert main(["trace", "--scenario", scenario_file(5)]) == 0
    assert capsys.readouterr().out != seeded_zero
    assert main(["trace", "--scenario", scenario_file(5),
                 "--seed", "0"]) == 0
    assert capsys.readouterr().out == seeded_zero


def test_snapshot_save_info_verify_cycle(tmp_path, capsys):
    path = tmp_path / "net.snap"
    assert main(["snapshot", "save", str(path), "--hosts", "30",
                 "--routers", "16", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "state_hash=" in out and "30 hosts" in out

    assert main(["snapshot", "info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "IntraDomainNetwork" in out
    assert "hosts        30" in out

    assert main(["snapshot", "verify", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_snapshot_info_rejects_non_snapshot(tmp_path, capsys):
    noise = tmp_path / "noise.bin"
    noise.write_bytes(b"\x00 not a snapshot")
    assert main(["snapshot", "info", str(noise)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: ") and captured.out == ""
    assert "not a repro snapshot" in captured.err


def _saved_with_header(tmp_path, edit):
    """A 5-host snapshot whose JSON header went through ``edit``."""
    path = tmp_path / "net.snap"
    assert main(["snapshot", "save", str(path), "--hosts", "5",
                 "--routers", "16"]) == 0
    head, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return path


@pytest.mark.parametrize("action", ["info", "verify"])
def test_snapshot_cli_rejects_header_without_state_hash(tmp_path, capsys,
                                                        action):
    path = _saved_with_header(tmp_path, lambda h: h.pop("state_hash"))
    capsys.readouterr()
    assert main(["snapshot", action, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: ") and "state_hash" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command", [
    ["snapshot", "info"], ["snapshot", "verify"],
    ["serve", "--requests", os.devnull, "--snapshot"]],
    ids=["info", "verify", "serve"])
def test_a_schema_1_snapshot_is_refused_with_exit_2(tmp_path, capsys,
                                                    command):
    """What a user holding a pre-PR-20 file (schema 1) meets, and one
    holding a PR 20-21 file (schema 2): one line saying which schema the
    file has, which one this build reads and what to do."""
    for old in (1, 2):
        path = _saved_with_header(tmp_path, lambda h: h.update(schema=old))
        capsys.readouterr()
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("repro: snapshot ")
        for part in ("schema version {}".format(old), "reads version 3",
                     "re-create"):
            assert part in captured.err


def test_serve_requests_file_session(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join(json.dumps(r) for r in (
        {"op": "ping", "id": 0},
        {"op": "info", "id": 1},
        {"op": "send", "n": 5, "id": 2},
        {"op": "shutdown", "id": 3},
    )) + "\n")
    assert main(["serve", "--hosts", "25", "--routers", "16",
                 "--requests", str(requests)]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["ok"] for r in lines] == [True] * 4
    assert lines[1]["hosts"] == 25
    assert lines[2]["delivered"] == 5
    assert "answered 4 scripted request(s)" in captured.err


def test_serve_warm_loads_snapshot(tmp_path, capsys):
    path = tmp_path / "warm.snap"
    assert main(["snapshot", "save", str(path), "--hosts", "20",
                 "--routers", "16"]) == 0
    capsys.readouterr()
    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"op": "info"}\n{"op": "shutdown"}\n')
    assert main(["serve", "--snapshot", str(path), "--verify",
                 "--requests", str(requests)]) == 0
    captured = capsys.readouterr()
    info = json.loads(captured.out.splitlines()[0])
    assert info["hosts"] == 20
    assert "loaded" in captured.err


def test_workload_metrics_out_streams_windows(tmp_path, capsys):
    path, result = tmp_path / "metrics.jsonl", tmp_path / "result.json"
    assert main(["workload", "steady-churn", "--metrics-out", str(path),
                 "--json", str(result)]) == 0
    captured = capsys.readouterr()
    assert "metrics: 12 window(s)" in captured.err
    # The stream is the --json samples, row for row.
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == json.loads(result.read_text())["samples"]
    # Deterministic stream: re-running the same seed reproduces it.
    again = tmp_path / "metrics-again.jsonl"
    assert main(["workload", "steady-churn",
                 "--metrics-out", str(again)]) == 0
    assert again.read_bytes() == path.read_bytes()


def test_report_requires_an_input(capsys):
    assert main(["report"]) == 2
    assert "nothing to render" in capsys.readouterr().err


def test_report_rejects_unreadable_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", "--perf", str(bad)]) == 2
    assert "report:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, payload, complaint", [
    ("--compare", {"intra": {"rofl": {}}}, "missing key 'sent'"),
    ("--compare", [1, 2], "expected a JSON object, got list"),
    ("--perf", [1, 2], "expected a JSON object, got list"),
    ("--bench", [1, 2], "expected a JSON object, got list"),
    ("--bench", {"interdomain": [1]}, "'int' object"),
    ("--perf", {"timers": {"a": 5}}, "'int' object"),
    ("--metrics", {"window": 0}, "missing key 't'"),
    # A workload --json result carries no registry dump.
    ("--perf", {"samples": [], "totals": {}}, "no perf snapshot"),
    # A line of the exporter format --metrics-out wrote until PR 23.
    ("--metrics", {"t": 5.0, "window": 0, "counters": {"joins": 3},
                   "gauges": {}, "histograms": {}, "timers": {}},
     "missing key 'live_hosts'"),
])
def test_report_rejects_json_of_the_wrong_shape(tmp_path, capsys, flag,
                                                payload, complaint):
    """Well-formed JSON that is not the artifact: exit 2 and one line
    naming the file and what is wrong with it, never a traceback."""
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(payload))
    assert main(["report", flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("report: {}: ".format(path))
    assert complaint in captured.err
    assert len(captured.err.splitlines()) == 1


def test_report_markdown_to_stdout(tmp_path, capsys):
    metrics = tmp_path / "m.jsonl"
    assert main(["workload", "steady-churn",
                 "--metrics-out", str(metrics)]) == 0
    capsys.readouterr()
    assert main(["report", "--metrics", str(metrics),
                 "--title", "Smoke"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Smoke")
    assert "## Metrics stream" in out
    assert "12 windows over t = 5 .. 60." in out
    assert "| t | hosts | sent | delivery | stretch | ctrl msgs | state |" \
        in out


def test_report_writes_html_file(tmp_path, capsys):
    metrics = tmp_path / "m.jsonl"
    assert main(["workload", "steady-churn",
                 "--metrics-out", str(metrics)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "report.html"
    assert main(["report", "--metrics", str(metrics),
                 "--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    html = out_path.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert html.count("<svg") == 3
    for series in ("delivery_rate", "mean_stretch", "control_messages"):
        assert "{} per window".format(series) in html
