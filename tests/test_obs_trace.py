"""The ``repro.obs`` tracer core: records, sinks, sampling, install."""

import json

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
    def test_ring_buffer_caps_retention(self):
        tracer = Tracer(sink=RingBufferSink(capacity=3))
        for _ in range(10):
            tracer.emit("x")
        kept = tracer.sink.records()
        assert [r.seq for r in kept] == [8, 9, 10]

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

    def test_sampling_is_deterministic_and_uses_no_rng(self):
        kept_a = [Tracer(sample=0.5).span("p") is not None
                  for _ in range(64)]
        tracer = Tracer(sample=0.5)
        kept_b = [tracer.span("p") is not None for _ in range(64)]
        # Same span-id sequence -> same keep/drop pattern, roughly half kept.
        assert kept_a[0] == kept_b[0]
        assert 8 < sum(kept_b) < 56
        assert tracer.spans_dropped == 64 - sum(kept_b)

    def test_sample_zero_drops_everything(self):
        tracer = Tracer(sample=0.0)
        assert tracer.span("p") is None
        assert len(tracer.sink) == 0

    def test_bad_sample_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample=1.5)


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
