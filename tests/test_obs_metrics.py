"""The report builder over window rows, perf snapshots and sweeps
(``repro.obs.report``), and its reader of ``--metrics-out`` streams."""

import json

import pytest

from repro.obs.report import (Heading, ReportError, build_timer_tree,
                              emit_html, emit_markdown,
                              extract_perf_snapshot, generate_report,
                              read_metrics_jsonl, render_timer_tree,
                              report_blocks)


def _document(title: str, **artifacts):
    """The blocks ``generate_report`` emits, from artifacts in memory."""
    return [Heading(title, 1)] + report_blocks(**artifacts)


def _window(t: float, **overrides):
    """One window row as ``MetricsRecorder.sample()`` closes it."""
    row = {"t": t, "live_hosts": 30, "sent": 20, "delivered": 19,
           "delivery_rate": 0.95, "mean_stretch": 1.25, "p95_stretch": 2.0,
           "control_messages": 140, "state_entries": 900, "joins": 4,
           "departures": 2, "queue_depth": 7}
    row.update(overrides)
    return row


class TestReader:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("\n{}\n\n   \n{}\n".format(
            json.dumps(_window(5.0)), json.dumps(_window(10.0))))
        assert read_metrics_jsonl(str(path)) == [_window(5.0), _window(10.0)]

    def test_a_malformed_line_is_a_report_error_naming_the_file(
            self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(_window(5.0)) + "\n{not json\n")
        with pytest.raises(ReportError) as caught:
            generate_report("T", metrics_path=str(path))
        assert str(caught.value).startswith(str(path) + ": ")


class TestReport:
    # The second window sent nothing: no rate, no stretch.
    METRICS = [_window(5.0),
               _window(10.0, sent=0, delivered=0, delivery_rate=None,
                       mean_stretch=None, p95_stretch=None)]
    TIMERS = {
        "inter.join": {"calls": 4, "seconds": 2.0, "mean": 0.5, "max": 1.0},
        "inter.join.fingers": {"calls": 4, "seconds": 1.5, "mean": 0.375,
                               "max": 0.9},
        "spf.rebuild": {"calls": 1, "seconds": 0.2, "mean": 0.2, "max": 0.2},
    }

    def test_timer_tree_nests_dotted_names(self):
        tree = build_timer_tree(self.TIMERS)
        inter = tree["children"]["inter"]
        assert inter["row"] is None
        join = inter["children"]["join"]
        assert join["row"]["calls"] == 4
        assert join["children"]["fingers"]["row"]["seconds"] == 1.5

    def test_render_timer_tree_orders_heaviest_first(self):
        lines = "\n".join(render_timer_tree(self.TIMERS))
        assert lines.index("inter") < lines.index("spf")
        assert "fingers" in lines

    def test_markdown_report_sections(self):
        doc = emit_markdown(_document(
            "Title", metrics_rows=self.METRICS,
            perf_snapshot={"timers": self.TIMERS}))
        assert doc.startswith("# Title")
        assert "## Metrics stream" in doc
        assert "2 windows over t = 5 .. 10." in doc
        assert "## Timer tree" in doc
        assert "| 5.0 | 30 | 20 | 0.950 | 1.25 | 140 | 900 |" in doc
        assert "| 10.0 | 30 | 0 | - | - | 140 | 900 |" in doc

    def test_html_report_is_self_contained(self):
        doc = emit_html(_document(
            "T&T", metrics_rows=self.METRICS,
            perf_snapshot={"timers": self.TIMERS},
            bench={"interdomain": [
                {"hosts": 100, "join_seconds": 1.0, "joins_per_sec": 100.0,
                 "send_seconds": 0.5, "sends_per_sec": 200.0,
                 "peak_rss_mb": 50.0, "perf": {"timers": {}}}]}))
        assert doc.startswith("<!DOCTYPE html>")
        assert "T&amp;T" in doc
        assert "<style>" in doc and doc.count("<svg") == 3
        assert "mean_stretch per window (peak 1.25)" in doc
        assert "Scaling trajectory" in doc
        assert "http" not in doc.split("</style>")[1]  # no external assets

    def test_markdown_and_html_emit_the_same_tables(self):
        """One build, two emitters: every table cell of the markdown
        document is in the HTML document, in the same order — and the
        markdown head-to-head is what the parent commit rendered."""
        import html
        import re
        from tests import golden_figures
        artifacts = dict(
            compare=golden_figures.RESULTS["headtohead"],
            metrics_rows=self.METRICS,
            bench={"interdomain": [
                {"hosts": 100, "join_seconds": 1.5, "joins_per_sec": 66.7,
                 "send_seconds": 0.5, "sends_per_sec": 200.0,
                 "peak_rss_mb": 50.0}]})
        blocks = _document("Golden", **artifacts)
        markdown = emit_markdown(blocks)
        assert markdown.startswith(golden_figures.HEADTOHEAD_MARKDOWN)
        md_cells = [cell for line in markdown.splitlines()
                    if line.startswith("| ") and not line.startswith("| ---")
                    for cell in line[2:-2].split(" | ")]
        html_cells = [html.unescape(cell) for cell in re.findall(
            r"<t[hd]>(.*?)</t[hd]>", emit_html(blocks))]
        assert len(md_cells) > 100
        assert md_cells == html_cells

    def test_extract_perf_snapshot_shapes(self):
        assert extract_perf_snapshot({"timers": self.TIMERS}) == {
            "timers": self.TIMERS}
        assert extract_perf_snapshot(
            {"perf": {"timers": self.TIMERS}}) == {"timers": self.TIMERS}
        bench = {"interdomain": [
            {"hosts": 10, "perf": {"timers": {}}},
            {"hosts": 100, "perf": {"timers": self.TIMERS}}]}
        assert extract_perf_snapshot(bench) == {"timers": self.TIMERS}
        assert extract_perf_snapshot({"nothing": True}) is None
