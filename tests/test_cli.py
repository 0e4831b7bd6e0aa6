"""The ``python -m repro`` command-line interface."""

import json
import os
from pathlib import Path

import pytest

from repro.__main__ import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ROFL" in out and "SIGCOMM 2006" in out


def test_info_names_every_subpackage(capsys):
    """``repro info``'s subsystem list is the package tree, as DESIGN.md
    §4's is (``tests/test_design_doc.py``)."""
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    listed = out[out.index("Subsystems:"):out.index("Docs:")]
    named = set(listed.replace("Subsystems:", "").replace(",", " ").split())
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    assert named == {init.parent.name for init in src.glob("*/__init__.py")}


def test_figures_single(capsys):
    assert main(["figures", "--only", "fig6b"]) == 0
    out = capsys.readouterr().out
    assert "Fig 6b" in out and "paper:" in out


def test_figures_unknown_prefix(capsys):
    assert main(["figures", "--only", "fig99"]) == 2
    assert "no figure matches" in capsys.readouterr().err


def test_figures_runs_the_whole_registry_in_order(monkeypatch, capsys):
    """``repro figures`` runs every registered block — each id once, in
    registry order, at its ``k = 1`` parameters — with the head-to-head
    last, and prints each block's golden text."""
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
    out = capsys.readouterr().out

    assert calls == [(figure_id, figure.params(1))
                     for figure_id, figure in R.FIGURES.items()]
    assert calls[-1][0] == "headtohead"
    for text in golden_figures.TEXT.values():
        assert text in out


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
    for command in ("figures", "workload", "trace", "info",
                    "serve", "snapshot", "compare-stretch", "report"):
        assert command in out


def test_compare_stretch_gate(tmp_path, capsys):
    """The registry's head-to-head at its own sizes (``figures`` prints
    the same block), gated."""
    out_path = tmp_path / "compare_stretch.json"
    assert main(["compare-stretch", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Head-to-head" in out and "disco all-pairs sweep" in out
    data = json.loads(out_path.read_text())
    assert data["intra"]["disco"]["bound_violations"] == 0
    assert data["disco_all_pairs"]["violations"] == []
    assert (data["n_hosts"], data["n_packets"]) == (150, 300)


def test_compare_stretch_json_to_stdout_is_only_json(capsys):
    """``--json -`` used to print the table and then the JSON on stdout,
    so piping it into a JSON reader failed; the table goes to stderr."""
    assert main(["compare-stretch", "--json", "-"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["disco_all_pairs"]["undelivered"] == 0
    assert "Head-to-head" in captured.err


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
@pytest.mark.parametrize("content, key", [
    ('{"name": "bad", "seed": "abc"}', "seed"),
    ('{"name": "bad", "phases": [{"start": 0, "end": 1, "churn": '
     '{"arrival_rate": 1, "lifetime": 5}}]}', "lifetime"),
    ('{"name": "bad", "duration": Infinity}', "duration"),
    ('{"name": "bad", "sample_intervall": 1}', "sample_intervall"),
    (b"\xff\xfe not text", None),
    (None, None),
    ('{"name": "bad", "network": {"kind": "inter", "n_ases": 5}}', "n_ases"),
    ('{"name": "bad", "network": {"kind": "cmu", "cache_entries": 5}}',
     "cache_entries"),
    ('{"name": "bad", "network": {"kind": "cmu", "n_fingers": 3}}',
     "n_fingers"),
    ('{"name": "bad", "network": {"kind": "intra", "n_fingers": 16}}',
     "n_fingers"),
    ('{"name": "bad", "network": {"kind": "inter", "n_routers": 12}}',
     "n_routers"),
    ('{"name": "bad", "network": {"kind": "disco", "cache_entries": 0}}',
     "cache_entries"),
], ids=["wrong-type", "number-for-mapping", "infinity", "misspelt-key",
        "not-text", "a-directory", "too-few-ases", "cmu-cache", "cmu-fingers",
        "intra-fingers", "inter-routers", "disco-cache"])
def test_a_scenario_that_cannot_be_read_or_parsed_exits_2_with_one_line(
        tmp_path, capsys, command, label, content, key):
    """Never a traceback, never a hang (``Infinity`` parsed and the run
    never returned), never a silent default (the misspelt key was
    dropped, and a sizing field the kind never reads, like a cache on a
    baseline, ran as if unset); the line names the key at fault.  A path that exists but
    cannot be read (``IsADirectoryError``, ``UnicodeDecodeError``) is
    reported like a missing one."""
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
    assert key is None or key in err


@pytest.mark.parametrize("fault", [
    {"kind": "link_cut", "at": 0.5, "links": [["r0", "nope"]]},
    {"kind": "router_crash", "at": 0.5, "routers": ["nope"]},
    {"kind": "pop_partition", "at": 0.5, "pop": 999},
    {"kind": "as_depeer", "at": 0.5, "asn": "nope"}],
    ids=lambda fault: fault["kind"])
def test_workload_fault_naming_an_unknown_victim_exits_2(tmp_path, capsys,
                                                         fault):
    """It used to print ``fault @ 0.5: {'links': [['r0', 'nope']], ...`` as
    done and exit 0; ``pop_partition`` and
    ``as_depeer`` ended in a ``KeyError`` traceback mid-run."""
    inter = fault["kind"].startswith("as_")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "duration": 2.0, "warmup_hosts": 5,
        "sample_interval": 1.0,
        "network": ({"kind": "inter", "n_ases": 20} if inter
                    else {"kind": "intra", "n_routers": 12}),
        "phases": [{"name": "p", "start": 0.0, "end": 2.0,
                    "traffic": {"rate": 3.0}}],
        "faults": [fault]}))
    assert main(["workload", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(
        "repro: fault '{}' at 0.5: unknown ".format(fault["kind"]))
    assert ("999" if fault["kind"] == "pop_partition" else "'nope'") \
        in captured.err


@pytest.mark.parametrize("argv, field", [
    (["snapshot", "save", "{tmp}/s.snap", "--kind", "inter", "--ases", "5"],
     "n_ases"),
    (["snapshot", "save", "{tmp}/s.snap", "--cache-entries", "-1"],
     "cache_entries"),
    (["serve", "--kind", "inter", "--ases", "3", "--requests",
      "{tmp}/none.jsonl"], "n_ases"),
], ids=["save-5-ases", "save-negative-cache", "serve-3-ases"])
def test_a_network_size_the_builder_refuses_exits_2_with_one_line(
        tmp_path, capsys, argv, field):
    """Each was a traceback (tier fractions no caller can set) or a
    network built with a negative cache."""
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("repro: {} must be".format(field))


@pytest.mark.parametrize("argv, flag", [
    (["trace", "--hosts", "1"], "--hosts"),
    (["trace", "--packets", "-2"], "--packets"),
    (["trace", "--packets", "0"], "--packets"),
    (["serve", "--hosts", "-3", "--requests", os.devnull], "--hosts"),
    (["snapshot", "save", "{tmp}/s.snap", "--hosts", "-7"], "--hosts"),
    (["serve", "--kind", "inter", "--routers", "9", "--requests", os.devnull],
     "--routers"),
    (["serve", "--kind", "cmu", "--cache-entries", "5", "--requests",
      os.devnull], "--cache-entries"),
    (["serve", "--kind", "intra", "--ases", "7", "--requests", os.devnull],
     "--ases"),
    (["snapshot", "save", "{tmp}/s.snap", "--kind", "inter", "--routers",
      "9"], "--routers"),
    (["snapshot", "save", "{tmp}/s.snap", "--kind", "disco",
      "--cache-entries", "0"], "--cache-entries"),
    (["snapshot", "save", "{tmp}/s.snap", "--ases", "7"], "--ases"),
    (["serve", "--snapshot", "{tmp}/s.snap", "--seed", "3"], "--seed"),
    (["serve", "--snapshot", "{tmp}/s.snap", "--routers", "9"], "--routers"),
    (["serve", "--snapshot", "{tmp}/s.snap", "--ases", "12"], "--ases"),
    (["serve", "--snapshot", "{tmp}/s.snap", "--hosts", "5"], "--hosts"),
    (["serve", "--snapshot", "{tmp}/s.snap", "--cache-entries", "3"],
     "--cache-entries"),
    (["serve", "--verify", "--hosts", "5", "--requests", os.devnull],
     "--verify"),
    (["trace", "--inter", "--routers", "99"], "--routers"),
    (["trace", "--ases", "3"], "--ases"),
    (["trace", "--scenario", "steady-churn", "--inter"], "--inter"),
    (["trace", "--scenario", "steady-churn", "--routers", "99"], "--routers"),
    (["trace", "--scenario", "steady-churn", "--ases", "30"], "--ases"),
    (["trace", "--scenario", "steady-churn", "--hosts", "5"], "--hosts"),
], ids=["hosts", "negative-packets", "no-packets", "serve-negative-hosts",
        "save-negative-hosts", "serve-inter-routers", "serve-cmu-cache",
        "serve-intra-ases", "save-inter-routers", "save-disco-cache",
        "save-intra-ases", "snapshot-seed", "snapshot-routers",
        "snapshot-ases", "snapshot-hosts", "snapshot-cache",
        "verify-without-snapshot", "trace-inter-routers", "trace-intra-ases",
        "trace-scenario-inter", "trace-scenario-routers",
        "trace-scenario-ases", "trace-scenario-hosts"])
def test_a_tracing_flag_out_of_range_is_a_usage_error(tmp_path, capsys,
                                                      argv, flag):
    """``trace --hosts 1`` was a ``ValueError`` traceback from the host
    sampler; ``--packets -2`` exited 0 having explained nothing.  The
    host count of ``serve`` and ``snapshot save`` is range-checked the
    same way: a negative one built (and saved) a network with no hosts
    and exited 0.  So is a sizing flag the kind does not read (``inter``
    no router count, the kinds over one ISP no AS count, a baseline no
    pointer cache), which built the network without it and exited 0, and
    so is a flag ``serve`` would not read: a seed, host count or size
    beside ``--snapshot`` (the network is the file's), or ``--verify``
    with no snapshot to verify; each was ignored.  ``trace`` likewise
    refuses a size its kind does not read and, beside ``--scenario``
    (which names its own network), any network flag."""
    with pytest.raises(SystemExit) as exited:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument {}: ".format(flag) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["workload", "steady-churn", "--json", "{missing}/v.json"],
    ["workload", "steady-churn", "--trace-out", "{missing}/t.jsonl"],
    ["snapshot", "save", "{missing}/s.snap", "--hosts", "20"],
    ["snapshot", "info", "{missing}/s.snap"],
    ["serve", "--snapshot", "{missing}/s.snap"],
    ["serve", "--hosts", "5", "--requests", "{missing}/r.jsonl"],
    ["report", "--metrics", "{view}", "--out", "{missing}/r.md"],
], ids=["json", "trace-out", "snapshot-save", "snapshot-info",
        "serve-snapshot", "serve-requests", "report-out"])
def test_a_path_that_cannot_be_opened_exits_2_with_one_line(tmp_path, capsys,
                                                            argv):
    """Each was a ``FileNotFoundError`` traceback with exit 1 (``--json``
    and ``snapshot save`` only after the whole run or build)."""
    missing, view = tmp_path / "no", tmp_path / "view.json"
    view.write_text('{"samples": []}')
    assert main([arg.format(missing=missing, view=view)
                 for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("repro: ") and str(missing) in err


@pytest.mark.parametrize("argv, flag", [
    (["--tcp", "99999"], "--tcp"),
    (["--tcp", "-1"], "--tcp"),
    (["--tcp-timeout", "0"], "--tcp-timeout"),
    (["--tcp-timeout", "-5"], "--tcp-timeout"),
    (["--tcp-timeout", "nan"], "--tcp-timeout"),
    (["--tcp-timeout", "inf"], "--tcp-timeout"),
], ids=["port-too-high", "negative-port", "zero-timeout", "negative-timeout",
        "nan-timeout", "infinite-timeout"])
def test_a_transport_flag_out_of_range_is_a_usage_error(capsys, argv, flag):
    """The port was an ``OverflowError`` traceback from ``bind()`` after
    the whole build, and a timeout no socket takes was accepted (both
    exited 0 here, where ``--requests`` takes the session off TCP)."""
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--hosts", "5", "--requests", os.devnull] + argv)
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument {}: ".format(flag) in err
    assert "Traceback" not in err


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
    holding a schema-2 file, a schema-3 one from before the per-ID records
    were slotted, a schema-4 one that still stores the state schema 5
    retired, a schema-5 one whose router caches hold a ``Pointer`` per
    entry, a schema-6 one whose AS caches still do, a schema-7 one whose
    pointers still store their role, or a schema-8 one whose pointers are
    slotted dataclasses: one line saying which schema the file has, which
    one this build reads and what to do."""
    for old in (1, 2, 3, 4, 5, 6, 7, 8):
        path = _saved_with_header(tmp_path, lambda h: h.update(schema=old))
        capsys.readouterr()
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("repro: snapshot ")
        for part in ("schema version {}".format(old), "reads version 9",
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


def test_serve_snapshot_takes_its_own_kind_alone(tmp_path, capsys):
    """``--kind intra --snapshot PATH`` is the argv the bench's
    ``serve_session`` starts every server with; another kind was
    ignored."""
    path = tmp_path / "warm.snap"
    assert main(["snapshot", "save", str(path), "--hosts", "5",
                 "--routers", "16"]) == 0
    assert main(["serve", "--kind", "intra", "--snapshot", str(path),
                 "--requests", os.devnull]) == 0
    assert "loaded" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exited:
        main(["serve", "--kind", "cmu", "--snapshot", str(path),
              "--requests", os.devnull])
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "repro serve: error: argument --kind: {} holds IntraDomainNetwork, "
        "not a 'cmu' network\n".format(path))


@pytest.mark.parametrize("action", ["info", "verify"])
@pytest.mark.parametrize("flag, value", [
    ("--kind", "cmu"), ("--seed", "3"), ("--routers", "9"), ("--ases", "12"),
    ("--hosts", "5"), ("--cache-entries", "3")])
def test_snapshot_info_and_verify_take_no_network_flag(tmp_path, capsys,
                                                        action, flag, value):
    """They read a file and build nothing; the flags were accepted and
    read by no one (exit 0).  Only ``save`` has them."""
    with pytest.raises(SystemExit) as exited:
        main(["snapshot", action, str(tmp_path / "s.snap"), flag, value])
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    [line] = [line for line in err.splitlines()
              if not line.startswith(("usage: ", "  "))]
    assert out == "" and line == (
        "repro: error: unrecognized arguments: {} {}".format(flag, value))


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
    ("--metrics", {"samples": [{"window": 0}]}, "missing key 't'"),
    # A workload --json result carries no registry dump.
    ("--perf", {"samples": [], "totals": {}}, "no perf snapshot"),
    # Rows of the retired per-window exporter format.
    ("--metrics", {"samples": [{"t": 5.0, "window": 0,
                                "counters": {"joins": 3}, "gauges": {},
                                "histograms": {}, "timers": {}}]},
     "missing key 'live_hosts'"),
    # A window row on its own is not a workload view.
    ("--metrics", {"t": 5.0, "window": 0}, "missing key 'samples'"),
    ("--metrics", {"samples": 5}, "'int' has no len()"),
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


def test_report_refuses_a_window_row_stream(tmp_path, capsys):
    """A file of one JSON window row per line, what ``workload
    --metrics-out`` wrote, is not a workload view: one line, exit 2."""
    path = tmp_path / "m.jsonl"
    path.write_text('{"t": 5.0}\n{"t": 10.0}\n')
    assert main(["report", "--metrics", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("report: {}: Extra data".format(path))


def test_report_markdown_to_stdout(tmp_path, capsys):
    metrics = tmp_path / "view.json"
    assert main(["workload", "steady-churn", "--json", str(metrics)]) == 0
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
    metrics = tmp_path / "view.json"
    assert main(["workload", "steady-churn", "--json", str(metrics)]) == 0
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
