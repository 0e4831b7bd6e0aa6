"""``repro.obs`` — causal tracing, explain, probes, reports.

Zero-dependency observability for the whole stack.  See DESIGN.md §7
(tracing) and §12 (window rows, the ``metrics`` op, the report).
"""

from repro.obs.explain import (PacketExplanation, Segment, explain_packets,
                               explain_span, packet_spans)
from repro.obs.probes import (CacheIsolationProbe, InterRingConsistencyProbe,
                              Probe, ProbeSet, RingConsistencyProbe,
                              SpfAgreementProbe, StretchBoundProbe, Violation)
from repro.obs.report import (build_timer_tree, generate_report,
                              read_metrics_jsonl, render_timer_tree)
from repro.obs.trace import (JsonlSink, NullSink, RingBufferSink, Span,
                             TraceRecord, Tracer, install, tracing, uninstall)

__all__ = [
    "CacheIsolationProbe", "InterRingConsistencyProbe", "JsonlSink",
    "NullSink", "PacketExplanation", "Probe", "ProbeSet",
    "RingBufferSink", "RingConsistencyProbe", "Segment", "Span",
    "SpfAgreementProbe", "StretchBoundProbe", "TraceRecord", "Tracer",
    "Violation",
    "build_timer_tree", "explain_packets", "explain_span", "generate_report",
    "install", "packet_spans", "read_metrics_jsonl", "render_timer_tree",
    "tracing", "uninstall",
]
