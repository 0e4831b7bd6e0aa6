"""The streaming metrics exporter, Prometheus renderer, and report
builder (``repro.obs.metrics`` / ``repro.obs.report``)."""

import io
import json

import pytest

from repro.obs.metrics import (MetricsExporter, read_metrics_jsonl,
                               render_prometheus)
from repro.obs.report import (build_timer_tree, extract_perf_snapshot,
                              render_html, render_markdown,
                              render_timer_tree, summarize_metrics)
from repro.util.perf import PerfRegistry


def _rows(buffer: io.StringIO):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestExporter:
    def test_counter_deltas_per_window(self):
        reg = PerfRegistry()
        out = io.StringIO()
        exporter = MetricsExporter(reg, out)
        reg.counter("pkts", 5)
        exporter.emit_window(1.0)
        reg.counter("pkts", 3)
        reg.counter("drops", 1)
        exporter.emit_window(2.0)
        exporter.emit_window(3.0)
        rows = _rows(out)
        assert rows[0]["counters"] == {"pkts": 5}
        assert rows[1]["counters"] == {"pkts": 3, "drops": 1}
        # Zero deltas are omitted entirely.
        assert rows[2]["counters"] == {}
        assert [row["window"] for row in rows] == [0, 1, 2]
        assert [row["t"] for row in rows] == [1.0, 2.0, 3.0]

    def test_deterministic_mode_drops_wall_clock_timer_fields(self):
        reg = PerfRegistry()
        out = io.StringIO()
        exporter = MetricsExporter(reg, out)
        with reg.timed("work"):
            pass
        exporter.emit_window(1.0)
        row = _rows(out)[0]
        assert row["timers"]["work"] == {"calls": 1}

    def test_non_deterministic_mode_keeps_seconds(self):
        reg = PerfRegistry()
        out = io.StringIO()
        exporter = MetricsExporter(reg, out, deterministic=False)
        with reg.timed("work"):
            pass
        exporter.emit_window(1.0)
        row = _rows(out)[0]
        timer = row["timers"]["work"]
        assert timer["calls"] == 1
        assert "seconds" in timer and "mean" in timer and "max" in timer

    def test_counters_fn_folds_external_source(self):
        reg = PerfRegistry()
        out = io.StringIO()
        external = {"messages.join": 0}
        exporter = MetricsExporter(reg, out, counters_fn=lambda: external)
        external["messages.join"] = 7
        exporter.emit_window(1.0)
        external["messages.join"] = 9
        exporter.emit_window(2.0)
        rows = _rows(out)
        assert rows[0]["counters"] == {"messages.join": 7}
        assert rows[1]["counters"] == {"messages.join": 2}

    def test_histogram_rows_report_cumulative_and_new(self):
        reg = PerfRegistry()
        out = io.StringIO()
        exporter = MetricsExporter(reg, out)
        for v in (1, 2, 3):
            reg.observe("lat", v)
        exporter.emit_window(1.0)
        reg.observe("lat", 10)
        exporter.emit_window(2.0)
        rows = _rows(out)
        assert rows[0]["histograms"]["lat"]["count"] == 3
        assert rows[0]["histograms"]["lat"]["new"] == 3
        assert rows[1]["histograms"]["lat"]["count"] == 4
        assert rows[1]["histograms"]["lat"]["new"] == 1
        assert rows[1]["histograms"]["lat"]["max"] == 10
        for key in ("p50", "p95", "p99"):
            assert key in rows[1]["histograms"]["lat"]

    def test_identical_update_sequences_are_byte_identical(self):
        def run() -> str:
            reg = PerfRegistry()
            out = io.StringIO()
            exporter = MetricsExporter(reg, out, source="det")
            for window in range(4):
                reg.counter("a", window + 1)
                reg.gauge("depth", 10 - window)
                reg.observe("lat", window * 0.5)
                with reg.timed("t"):
                    pass
                exporter.emit_window(float(window))
            return out.getvalue()

        assert run() == run()

    def test_extra_fields_and_source_stamped(self):
        reg = PerfRegistry()
        out = io.StringIO()
        exporter = MetricsExporter(reg, out, source="scenario-x")
        exporter.emit_window(1.0, extra={"live_hosts": 12})
        row = _rows(out)[0]
        assert row["source"] == "scenario-x"
        assert row["live_hosts"] == 12

    def test_file_path_roundtrip_and_close(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        reg = PerfRegistry()
        with MetricsExporter(reg, path) as exporter:
            reg.counter("x")
            exporter.emit_window(1.0)
        rows = read_metrics_jsonl(path)
        assert rows[0]["counters"] == {"x": 1}
        with pytest.raises(ValueError):
            exporter.emit_window(2.0)


class TestPrometheus:
    def test_sections_and_name_mangling(self):
        reg = PerfRegistry()
        reg.counter("fwd.packets", 12)
        reg.gauge("ring.depth", 3)
        with reg.timed("spf.rebuild"):
            pass
        reg.observe("lat", 2.0)
        text = render_prometheus(reg)
        assert "# TYPE repro_fwd_packets_total counter" in text
        assert "repro_fwd_packets_total 12" in text
        assert "repro_ring_depth 3" in text
        assert "repro_spf_rebuild_calls_total 1" in text
        assert "repro_spf_rebuild_seconds_total" in text
        assert 'repro_lat{quantile="0.5"} 2' in text
        assert "repro_lat_count 1" in text
        assert text.endswith("\n")

    def test_accepts_snapshot_dict_and_sorts_deterministically(self):
        snap = {"counters": {"b": 2, "a": 1}, "gauges": {}}
        text = render_prometheus(snap, prefix="x")
        assert text.index("x_a_total") < text.index("x_b_total")
        assert render_prometheus(snap, prefix="x") == text


class TestReport:
    METRICS = [
        {"t": 1.0, "window": 0, "counters": {"pkts": 5, "joins": 2},
         "gauges": {}, "timers": {}, "histograms": {}},
        {"t": 2.0, "window": 1, "counters": {"pkts": 7},
         "gauges": {}, "timers": {}, "histograms": {}},
    ]
    TIMERS = {
        "inter.join": {"calls": 4, "seconds": 2.0, "mean": 0.5, "max": 1.0},
        "inter.join.fingers": {"calls": 4, "seconds": 1.5, "mean": 0.375,
                               "max": 0.9},
        "spf.rebuild": {"calls": 1, "seconds": 0.2, "mean": 0.2, "max": 0.2},
    }

    def test_summarize_metrics_totals(self):
        info = summarize_metrics(self.METRICS)
        assert info["windows"] == 2
        assert info["t_start"] == 1.0 and info["t_end"] == 2.0
        assert info["counter_totals"] == {"pkts": 12, "joins": 2}

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
        doc = render_markdown("Title", metrics_rows=self.METRICS,
                              perf_snapshot={"timers": self.TIMERS})
        assert doc.startswith("# Title")
        assert "## Metrics stream" in doc
        assert "## Timer tree" in doc
        assert "| window | t |" in doc

    def test_html_report_is_self_contained(self):
        doc = render_html("T&T", metrics_rows=self.METRICS,
                          perf_snapshot={"timers": self.TIMERS},
                          bench={"interdomain": [
                              {"hosts": 100, "join_seconds": 1.0,
                               "joins_per_sec": 100.0, "send_seconds": 0.5,
                               "sends_per_sec": 200.0, "peak_rss_mb": 50.0,
                               "perf": {"timers": {}}}]})
        assert doc.startswith("<!DOCTYPE html>")
        assert "T&amp;T" in doc
        assert "<style>" in doc and "<svg" in doc
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
                 "peak_rss_mb": 50.0}],
                "workload": [{"scenario": "s", "rate_multiplier": 2,
                              "events_run": 9, "events_per_sec": 4.5,
                              "delivery_rate": None}]})
        markdown = render_markdown("Golden", **artifacts)
        assert markdown.startswith(golden_figures.HEADTOHEAD_MARKDOWN)
        md_cells = [cell for line in markdown.splitlines()
                    if line.startswith("| ") and not line.startswith("| ---")
                    for cell in line[2:-2].split(" | ")]
        html_cells = [html.unescape(cell) for cell in re.findall(
            r"<t[hd]>(.*?)</t[hd]>", render_html("Golden", **artifacts))]
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
