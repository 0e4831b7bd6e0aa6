"""Route-decision explanation: turn a packet span into an attributed tree.

A packet span (see :mod:`repro.obs.trace`) is a root record, a sequence
of rule-tagged ``decision`` records, ``hop`` records causally parented
to the decision that committed them, annotation records (cache
hits/misses, NACKs, policy filters), and one terminal ``end`` record.
This module groups those into *segments* — one per routing decision —
and attributes stretch to each: a segment that walked ``k`` physical
hops contributes ``k / optimal_hops`` stretch, so the attributions sum
exactly to :attr:`repro.sim.stats.PathResult.stretch` for a delivered
packet (and to 0.0 when ``optimal_hops == 0``, matching the defined
same-router semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.trace import TraceRecord

#: Span-root kinds produced by the forwarding engines.
PACKET_KINDS = ("intra.packet", "inter.packet", "inter.bloom-packet",
                "compact.packet")


@dataclass
class Segment:
    """One routing decision and every physical hop it committed."""

    decision: TraceRecord
    hops: List[TraceRecord] = field(default_factory=list)
    #: Annotation records observed while this decision governed the
    #: packet (cache hit/miss/reject, nack, policy.filter, repair …).
    notes: List[TraceRecord] = field(default_factory=list)

    @property
    def rule(self) -> str:
        return self.decision.data.get("rule", "?")

    @property
    def router(self) -> str:
        return self.decision.data.get("router", "?")

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    def attribution(self, optimal_hops: Optional[int]) -> float:
        """This segment's share of the packet's stretch."""
        if not optimal_hops or optimal_hops <= 0:
            return 0.0
        return self.n_hops / optimal_hops


@dataclass
class PacketExplanation:
    """A packet span decomposed into attributed decision segments."""

    root: TraceRecord
    segments: List[Segment] = field(default_factory=list)
    #: Annotations recorded before the first decision.
    preamble: List[TraceRecord] = field(default_factory=list)
    end: Optional[TraceRecord] = None

    @property
    def delivered(self) -> bool:
        return bool(self.end is not None and self.end.data.get("delivered"))

    @property
    def reason(self) -> str:
        return self.end.data.get("reason", "?") if self.end else "in-flight"

    @property
    def hops(self) -> int:
        return sum(seg.n_hops for seg in self.segments)

    def attributions(self, optimal_hops: Optional[int]) -> List[float]:
        """Per-segment stretch shares; their sum equals the packet's
        ``PathResult.stretch`` when it was delivered."""
        return [seg.attribution(optimal_hops) for seg in self.segments]

    def total_stretch(self, optimal_hops: Optional[int]) -> float:
        return sum(self.attributions(optimal_hops))

    # -- rendering -----------------------------------------------------------

    def render(self, optimal_hops: Optional[int] = None) -> str:
        """A human-readable decision tree with per-segment attribution."""
        data = self.root.data
        head = "{} {} -> {}  [{}]".format(
            self.root.kind, data.get("start", "?"),
            _short_id(data.get("dest", "?")), data.get("mode", "data"))
        lines = [head]
        status = "delivered" if self.delivered else "NOT delivered"
        summary = "  {} in {} hops ({})".format(status, self.hops, self.reason)
        if optimal_hops is not None and optimal_hops > 0:
            summary += ", optimal {}, stretch {:.3f}".format(
                optimal_hops, self.total_stretch(optimal_hops))
        lines.append(summary)
        for note in self.preamble:
            lines.append("  . {}".format(_note_line(note)))
        last = len(self.segments) - 1
        for i, seg in enumerate(self.segments):
            branch = "└─" if i == last else "├─"
            line = "  {} decision@{}: {} -> {}".format(
                branch, seg.router, seg.rule,
                _short_id(seg.decision.data.get("target", "?")))
            if "distance" in seg.decision.data:
                line += " dist={}".format(_fmt_dist(seg.decision.data["distance"]))
            if seg.decision.data.get("shortcut"):
                line += " (transit shortcut)"
            line += "  [{} hop{}".format(seg.n_hops,
                                         "" if seg.n_hops == 1 else "s")
            if optimal_hops is not None and optimal_hops > 0:
                line += ", +{:.3f} stretch".format(seg.attribution(optimal_hops))
            line += "]"
            lines.append(line)
            stem = "     " if i == last else "  │  "
            if seg.hops:
                walk = [seg.hops[0].data.get("frm", "?")]
                walk += [h.data.get("to", "?") for h in seg.hops]
                lines.append(stem + " -> ".join(str(w) for w in walk))
            for note in seg.notes:
                lines.append(stem + ". " + _note_line(note))
        return "\n".join(lines)


def _fmt_dist(distance) -> str:
    """Ring distances are up to 2**128; render big ones by magnitude."""
    if isinstance(distance, int) and distance > 10**6:
        return "~2^{}".format(distance.bit_length())
    return str(distance)


def _short_id(hex_id) -> str:
    text = str(hex_id)
    return "0x" + text[:8] + "…" if len(text) > 10 else text


def _note_line(record: TraceRecord) -> str:
    extras = " ".join("{}={}".format(k, _short_id(v) if k in ("target", "dest")
                                     else v)
                      for k, v in sorted(record.data.items()))
    return "{} {}".format(record.kind, extras).rstrip()


# ---------------------------------------------------------------------------
# Grouping.
# ---------------------------------------------------------------------------

def spans(records: Sequence[TraceRecord]) -> Dict[int, List[TraceRecord]]:
    """Group records by span id (span 0 — spanless records — excluded)."""
    grouped: Dict[int, List[TraceRecord]] = {}
    for record in records:
        if record.span:
            grouped.setdefault(record.span, []).append(record)
    return grouped


def packet_spans(records: Sequence[TraceRecord]) -> List[List[TraceRecord]]:
    """Every packet span, in first-seen order."""
    out = []
    for span_records in spans(records).values():
        if span_records and span_records[0].kind in PACKET_KINDS:
            out.append(span_records)
    return out


def explain_span(span_records: Sequence[TraceRecord]) -> PacketExplanation:
    """Decompose one span's records into an attributed explanation."""
    if not span_records:
        raise ValueError("empty span")
    ordered = sorted(span_records, key=lambda r: r.seq)
    root = ordered[0]
    expl = PacketExplanation(root=root)
    by_decision: Dict[int, Segment] = {}
    for record in ordered[1:]:
        if record.kind == "decision":
            segment = Segment(decision=record)
            expl.segments.append(segment)
            by_decision[record.seq] = segment
        elif record.kind == "hop":
            segment = by_decision.get(record.parent)
            if segment is None and expl.segments:
                segment = expl.segments[-1]
            if segment is not None:
                segment.hops.append(record)
        elif record.kind == "end":
            expl.end = record
        else:
            if expl.segments:
                expl.segments[-1].notes.append(record)
            else:
                expl.preamble.append(record)
    return expl


def explain_packets(records: Sequence[TraceRecord]) -> List[PacketExplanation]:
    return [explain_span(span_records)
            for span_records in packet_spans(records)]
