"""``benchmarks/pairs.py`` on canned result files: the table, which way a
metric wins, and the refusal of a moved ``sim_digest`` — without running
the benchmark."""

import importlib.util
from pathlib import Path

import pytest

from repro.obs.report import emit_markdown

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

SPEC = {"workloads": [{"name": "inter_5k"}, {"name": "intra_5k"}],
        "end_to_end": [{"name": "traffic_per_s", "better": "higher"},
                       {"name": "traffic_ms_p50", "better": "lower"}]}


def run(workload, traffic, p50, digest="d" * 64, failed=0, correct=True):
    return {"workload": workload, "seed": 3, "sim_digest": digest,
            "attempted": 100, "failed": failed, "correct": correct,
            "metrics": {"traffic_per_s": {"value": traffic},
                        "traffic_ms_p50": {"value": p50}}}


def canned(n=10):
    """``n`` pairs where the change is faster on inter_5k in all but the
    first pair, and intra_5k does not move."""
    return [([run("inter_5k", 100.0 + i, 0.030), run("intra_5k", 50.0, 0.02)],
             [run("inter_5k", 99.0 if i == 0 else 140.0 + i, 0.020),
              run("intra_5k", 50.0, 0.02)])
            for i in range(n)]


def test_one_row_per_workload_and_metric_with_median_quartiles_and_pairs_won():
    rows = pairs.rows(SPEC, canned())
    assert [row[:2] for row in rows] == [
        ["inter_5k", "traffic_per_s"], ["inter_5k", "traffic_ms_p50"],
        ["intra_5k", "traffic_per_s"], ["intra_5k", "traffic_ms_p50"]]
    workload, metric, parent, change, ratio, won = rows[0]
    assert parent == "104.5 [101.8, 107.2]"   # exclusive quartiles
    assert change == "144.5" and ratio == pytest.approx(144.5 / 104.5)
    assert won == "9/10"
    assert pairs._num(26480.4) == "26480" and pairs._num(0.034871) == "0.03487"
    # Lower is better for a latency: every pair is a win; a tie never is.
    assert rows[1][5] == "10/10" and rows[2][5] == rows[3][5] == "0/10"


def test_markdown_table_through_the_report_blocks():
    text = emit_markdown(pairs.report(SPEC, canned(2), "2 pairs"))
    assert text.splitlines()[:3] == [
        "## 2 pairs", "",
        "| workload | metric | parent median [q1, q3] | change median "
        "| change / parent | pairs won |"]
    assert "| inter_5k | traffic_per_s | 100.5 [99.75, 101.2] | 120 | 1.194 " \
           "| 1/2 |" in text
    # No note: no failed op, no moved digest.
    assert not any(line.startswith("- ") for line in text.splitlines())


def test_a_moved_digest_is_refused_and_listed():
    moved = canned(3)
    moved[1][1][0] = run("inter_5k", 140.0, 0.02, digest="e" * 64)
    assert pairs.digest_mismatches(canned(3)) == []
    [line] = pairs.digest_mismatches(moved)
    assert line == "sim_digest MISMATCH inter_5k seed 3: {} != {}".format(
        "d" * 16, "e" * 16)
    assert "- " + line in emit_markdown(pairs.report(SPEC, moved, "t"))


def test_failed_ops_and_checks_are_noted():
    bad = canned(1)
    bad[0][0][1] = run("intra_5k", 50.0, 0.02, failed=2, correct=False)
    text = emit_markdown(pairs.report(SPEC, bad, "t"))
    assert "- parent run 1: 2 of 100 ops failed, output checks FAILED" in text


def test_scrub_deletes_bytecode_caches_only(tmp_path):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__pycache__" / "m.pyc").write_bytes(b"")
    (tmp_path / "src" / "pkg" / "m.py").write_text("")
    (tmp_path / ".git" / "__pycache__").mkdir(parents=True)
    pairs.scrub(str(tmp_path))
    assert not (tmp_path / "src" / "pkg" / "__pycache__").exists()
    assert (tmp_path / "src" / "pkg" / "m.py").exists()
    assert (tmp_path / ".git" / "__pycache__").exists()
