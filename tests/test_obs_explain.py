"""Route-decision explanation: segments, attribution, rendering."""

import pytest

from repro.intra.network import IntraDomainNetwork
from repro.obs import explain, trace
from repro.obs.trace import Tracer
from repro.topology.isp import synthetic_isp


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    trace.uninstall()


def _synthetic_span(tracer):
    span = tracer.span("intra.packet", start="r1", dest="ab", mode="data")
    span.event("cache.miss", router="r1")
    span.decision(router="r1", rule="successor", target="cd", distance=9)
    span.hop(frm="r1", to="r2")
    span.hop(frm="r2", to="r3")
    span.decision(router="r3", rule="cache", target="ab", distance=0)
    span.hop(frm="r3", to="r4")
    span.end(delivered=True, reason="delivered", router="r4")
    return span


class TestSyntheticSpans:
    def test_segments_group_hops_under_their_decision(self):
        tracer = Tracer()
        _synthetic_span(tracer)
        packet = explain.explain_packets(tracer.sink.records())[-1]
        assert packet.delivered and packet.hops == 3
        assert [seg.rule for seg in packet.segments] == ["successor", "cache"]
        assert [seg.n_hops for seg in packet.segments] == [2, 1]
        assert [n.kind for n in packet.preamble] == ["cache.miss"]

    def test_attribution_sums_to_hops_over_optimal(self):
        tracer = Tracer()
        _synthetic_span(tracer)
        packet = explain.explain_packets(tracer.sink.records())[-1]
        assert packet.attributions(2) == [1.0, 0.5]
        assert packet.total_stretch(2) == pytest.approx(1.5)
        # No baseline -> everything attributes to 0.0 (stretch contract).
        assert packet.total_stretch(0) == 0.0

    def test_render_mentions_every_rule_and_hop_walk(self):
        tracer = Tracer()
        _synthetic_span(tracer)
        text = explain.explain_packets(tracer.sink.records())[-1].render(2)
        assert "successor" in text and "cache" in text
        assert "r1 -> r2 -> r3" in text and "stretch 1.500" in text

    def test_span_grouping_separates_interleaved_packets(self):
        tracer = Tracer()
        a = tracer.span("intra.packet", start="r1")
        b = tracer.span("intra.packet", start="r9")
        a.decision(rule="successor")
        b.decision(rule="cache")
        a.end(delivered=True)
        b.end(delivered=False, reason="no routing state")
        packets = explain.explain_packets(tracer.sink.records())
        assert len(packets) == 2
        assert packets[0].delivered and not packets[1].delivered
        assert packets[1].reason == "no routing state"

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            explain.explain_span([])

    def test_non_packet_spans_excluded(self):
        tracer = Tracer()
        tracer.span("sim.tick")
        assert explain.explain_packets(tracer.sink.records()) == []


class TestLiveTraces:
    """The acceptance criterion: a real routed packet explains end-to-end."""

    @pytest.fixture(scope="class")
    def net(self):
        net = IntraDomainNetwork(synthetic_isp(n_routers=24, seed=2), seed=2)
        net.join_random_hosts(50)
        return net

    def test_every_hop_carries_a_decision_tag(self, net):
        with trace.tracing() as tracer:
            a, b = net.random_host_pair()
            result = net.send(a, b)
        packet = explain.explain_packets(tracer.sink.records())[-1]
        assert packet.delivered == result.delivered
        assert packet.hops == result.hops
        tagged = sum(seg.n_hops for seg in packet.segments)
        assert tagged == result.hops  # no orphan hops
        for seg in packet.segments:
            assert seg.rule in ("successor", "predecessor", "cache",
                                "ephemeral", "local-adopt")

    def test_attribution_equals_path_result_stretch(self, net):
        with trace.tracing() as tracer:
            for _ in range(10):
                a, b = net.random_host_pair()
                result = net.send(a, b)
                packet = explain.explain_packets(tracer.sink.records())[-1]
                total = packet.total_stretch(result.optimal_hops)
                assert total == pytest.approx(result.stretch)

    def test_disabled_tracing_emits_nothing(self, net):
        tracer = Tracer()
        a, b = net.random_host_pair()
        net.send(a, b)  # no tracer installed
        assert len(tracer.sink) == 0
        assert trace.ENABLED is False
