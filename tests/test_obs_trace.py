"""The ``repro.obs`` tracer core: records, sinks, spans, install."""

import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import trace
from repro.obs.trace import (JsonlSink, NullSink, RingBufferSink, Tracer,
                             dump_jsonl)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    trace.uninstall()


class TestRecords:
    def test_emit_assigns_monotonic_seq_and_clock_time(self):
        times = iter([0.5, 1.25, 2.0])
        tracer = Tracer(clock=lambda: next(times))
        tracer.emit("a")
        tracer.emit("b")
        tracer.emit("c")
        records = tracer.sink.records()
        assert [r.seq for r in records] == [1, 2, 3]
        assert [r.t for r in records] == [0.5, 1.25, 2.0]


class TestSinks:
    def test_ring_buffer_keeps_every_record(self):
        """Past the 65 536 records a sinkless tracer used to drop from."""
        tracer = Tracer()
        assert isinstance(tracer.sink, RingBufferSink)
        for _ in range(65537):
            tracer.emit("x")
        kept = tracer.sink.records()
        assert len(kept) == 65537 and kept[0].seq == 1

    def test_null_sink_discards_but_counts(self):
        tracer = Tracer(sink=NullSink())
        tracer.emit("x")
        assert tracer.records_emitted == 1

    def test_jsonl_is_deterministic_and_readable(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        tracer = Tracer(sink=JsonlSink(path))
        tracer.emit("decision", span=1, parent=-1, rule="successor", b=2, a=1)
        tracer.close()
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        # Sorted keys + compact separators: the byte-stability contract.
        assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True,
                                      separators=(",", ":"))
        assert json.loads(lines[0])["data"] == {"rule": "successor", "a": 1,
                                                "b": 2}

    def test_dump_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.emit("a", x=1)
        tracer.emit("b", y=2)
        path = str(tmp_path / "dump.jsonl")
        dump_jsonl(tracer.sink.records(), path)
        with open(path) as fh:
            assert [json.loads(line) for line in fh] \
                == [record.to_dict() for record in tracer.sink.records()]


class TestSpans:
    def test_hop_records_parent_their_committing_decision(self):
        tracer = Tracer()
        span = tracer.span("intra.packet", start="r1")
        d1 = span.decision(rule="successor")
        h1 = span.hop(frm="r1", to="r2")
        d2 = span.decision(rule="cache")
        h2 = span.hop(frm="r2", to="r3")
        span.end(delivered=True)
        by_seq = {r.seq: r for r in tracer.sink.records()}
        assert by_seq[h1].parent == d1
        assert by_seq[h2].parent == d2
        assert by_seq[d1].parent == span.root
        assert by_seq[span.root].parent == -1

    def test_every_span_is_kept(self):
        tracer = Tracer()
        spans = [tracer.span("p") for _ in range(64)]
        assert [span.id for span in spans] == list(range(1, 65))
        assert tracer.spans_started == 64
        assert [r.span for r in tracer.sink.records()] == list(range(1, 65))


class TestInstall:
    def test_enabled_flag_tracks_install(self):
        assert trace.ENABLED is False
        tracer = trace.install(Tracer())
        assert trace.ENABLED is True and trace._TRACER is tracer
        trace.uninstall()
        assert trace.ENABLED is False and trace._TRACER is None

    def test_tracing_contextmanager_scopes_install(self):
        with trace.tracing() as tracer:
            assert trace._TRACER is tracer
        assert trace.ENABLED is False

    def test_a_nested_tracing_block_hands_back_to_the_outer_tracer(self):
        """The inner block used to uninstall to no tracer at all, so the
        outer sink lost every record emitted after it."""
        outer = Tracer()
        with trace.tracing(outer):
            with trace.tracing(Tracer()) as inner:
                trace.packet_span("inner")
            assert trace.ENABLED is True and trace._TRACER is outer
            trace.packet_span("after")
        assert trace.ENABLED is False and trace._TRACER is None
        assert [r.kind for r in outer.sink.records()] == ["after"]
        assert [r.kind for r in inner.sink.records()] == ["inner"]

    def test_event_in_current_attaches_to_open_packet_span(self):
        with trace.tracing() as tracer:
            span = trace.packet_span("intra.packet")
            trace.event_in_current("cache.hit", router="r1")
            trace.close_span(span)
            trace.event_in_current("cache.hit", router="r2")  # no span: dropped
        kinds = [(r.kind, r.span) for r in tracer.sink.records()]
        assert kinds == [("intra.packet", span.id), ("cache.hit", span.id)]


class TestObservers:
    def test_observers_see_records_after_sink(self):
        seen = []
        tracer = Tracer()
        tracer.add_observer(seen.append)
        tracer.emit("x")
        assert [r.kind for r in seen] == ["x"]

    def test_observer_emits_reach_sink_but_are_not_redispatched(self):
        tracer = Tracer()

        def probe(record):
            if record.kind != "probe.violation":
                tracer.emit("probe.violation", about=record.kind)

        tracer.add_observer(probe)
        tracer.emit("hop")
        kinds = [r.kind for r in tracer.sink.records()]
        # The violation landed in the sink exactly once (no recursion).
        assert kinds == ["hop", "probe.violation"]

    def test_remove_observer(self):
        seen = []
        tracer = Tracer()
        tracer.add_observer(seen.append)
        tracer.remove_observer(seen.append)
        tracer.emit("x")
        assert seen == []


GOLDEN_TRACES = json.loads(
    (Path(__file__).parent / "golden_trace_digests.json").read_text())


@pytest.mark.parametrize("label", ["intra", "inter"])
def test_trace_bytes_match_the_parent_capture(tmp_path, label):
    """``repro trace --trace-out`` of 50 packets on each ROFL kind, byte
    for byte (~0.5 s each): the decision and policy-filter ``rule`` of
    every record is pinned, whatever code computes it."""
    golden = GOLDEN_TRACES[label]
    path = tmp_path / "trace.jsonl"
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "repro", *golden["argv"],
         "--trace-out", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert done.returncode == 0, done.stderr
    rules = collections.Counter(
        (record["kind"], record["data"]["rule"])
        for record in map(json.loads, path.read_text().splitlines())
        if "rule" in record["data"])
    expected = {"intra": {("decision", "successor"), ("decision", "cache")},
                "inter": {("decision", "finger"), ("decision", "cache"),
                          ("decision", "external-successor"),
                          ("policy.filter", "finger"),
                          ("policy.filter", "cache")}}[label]
    assert expected <= set(rules)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == golden["sha256"]
