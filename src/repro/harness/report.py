"""The figure registry: what each evaluation figure runs and how it reads.

:data:`FIGURES` is the one ordered list of the paper's Section 6 blocks
(plus the ROFL-vs-Disco head-to-head).  Each entry names its driver in
:mod:`repro.harness.experiments`, the workload sizes
``examples/reproduce_paper.py`` has always used (``k`` is 3 under
``--full``, else 1) and a declarative table — title, columns, row
extractor, note lines, the paper's reported trend.  ``python -m repro
figures``, ``examples/reproduce_paper.py`` and ``benchmarks/test_fig*.py``
all read it; :func:`render` turns a driver's result into the text block
they print, through the block model of :mod:`repro.obs.report`.
"""

from __future__ import annotations

import time
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.harness import experiments as E
from repro.obs.report import (Column, Heading, Note, Table, cell, emit_text,
                              table, text_row)
from repro.topology.isp import TCAM_ENTRIES


class Figure(NamedTuple):
    driver: Callable[..., Dict]
    #: ``k`` -> the driver's keyword arguments.
    params: Callable[[int], Dict]
    #: Title and notes are ``str.format_map``-ed with the result.
    title: str = ""
    columns: Sequence[Column] = ()
    #: Result -> raw row tuples, one value per column.
    rows: Optional[Callable[[Dict], Iterable[Sequence]]] = None
    notes: Sequence[str] = ()
    paper: str = ""
    #: Replaces the title/table/notes layout (the head-to-head).
    blocks: Optional[Callable[[Dict], List]] = None


def _per_profile(*keys: str) -> Callable[[Dict], Iterator[Tuple]]:
    """Rows of a result keyed by ISP/mode name (beside the ``perf`` key
    every driver attaches)."""
    def rows(result: Dict) -> Iterator[Tuple]:
        for name, data in result.items():
            if name != "perf":
                yield (name,) + tuple(data[key] for key in keys)
    return rows


def _series(field: str, *keys: str) -> Callable[[Dict], List[Tuple]]:
    """Rows of a result whose ``field`` is a list of dicts."""
    return lambda result: [tuple(row[key] for key in keys)
                           for row in result[field]]


def _fig5a_rows(result: Dict) -> Iterator[Tuple]:
    for profile, data in result["profiles"].items():
        for row in zip(result["host_counts"], data["rofl_cumulative"],
                       data["cmu_cumulative"], data["cmu_over_rofl"]):
            yield (profile,) + row


# ---------------------------------------------------------------------------
# Head-to-head: one builder, laid out as a figure or as a report section.
# ---------------------------------------------------------------------------

_PROTO_COLUMNS = (Column("proto", 8, align="<"), Column("sent", 6),
                  Column("deliv", 6), Column("mean", 8), Column("p99", 8),
                  Column("worst", 8), Column("bound", 7), Column("viol", 6),
                  Column("mismatch", 9))
_PROTO_LABELS = ("proto", "sent", "delivered", "mean", "p99", "worst",
                 "bound", "violations", "mismatches")


def headtohead_blocks(result: Dict, document: bool = False) -> List:
    """The ``headtohead_stretch`` result (also the JSON ``compare-stretch
    --json`` writes).  As a figure it is one fixed-width block under the
    Singla et al. line; with ``document`` it is the report's section:
    spelled-out headers, a table per scope for whichever protocols the
    file carries, the sweep and tail lines as bullets."""
    bound_fmt = "{:g}" if document else "{:.1f}"

    def cells(label: str, row: Dict) -> List[str]:
        return [label, str(row["sent"]), str(row["delivered"]),
                cell(row["mean"]), cell(row["p99"]), cell(row["worst"]),
                cell(row.get("stretch_bound"), bound_fmt, "inf"),
                str(row["bound_violations"] + len(row["probe_violations"])),
                str(row["attribution_mismatches"])]

    intra, inter = result.get("intra") or {}, result.get("inter") or {}
    intra_rows = [cells(label, intra[label])
                  for label in ("rofl", "disco", "cmu", "ospf")
                  if label in intra]
    inter_rows = [cells(label, inter[label]) for label in ("rofl", "disco")
                  if label in inter]
    tails = [(label, ", ".join(
        "{} +{:.2f}".format(rule, share) for rule, share in
        sorted(intra[label]["tail_attribution"].items(),
               key=lambda kv: -kv[1])))
        for label in ("rofl", "disco")
        if label in intra and intra[label].get("tail_attribution")]
    sweep = result.get("disco_all_pairs")

    if document:
        columns = [Column(label) for label in _PROTO_LABELS]
        blocks: List = [Heading("Stretch head-to-head")]
        if intra:
            blocks += [Heading("intradomain ({})".format(
                result.get("profile", "?")), 3), Table(columns, intra_rows)]
        if inter:
            blocks += [Heading("interdomain", 3), Table(
                columns + [Column("denominator")],
                [row + [str(inter[row[0]].get("denominator", ""))]
                 for row in inter_rows])]
        notes = []
        if sweep:
            notes.append(
                "Disco all-pairs sweep: {} pairs, max stretch {} (bound {:g}),"
                " {} undelivered, {} probe violation(s).".format(
                    sweep["pairs"], cell(sweep["max_stretch"], "{:.3f}"),
                    sweep["bound"], sweep["undelivered"],
                    len(sweep["violations"])))
        notes += ["{} stretch tail (≥p99) by decision: {}.".format(*tail)
                  for tail in tails]
        return blocks + ([Note(notes, bullets=True)] if notes else [])

    return [
        Heading("Head-to-head — ROFL vs compact routing on flat labels"
                " ({})".format(result["profile"])),
        Table(_PROTO_COLUMNS, intra_rows),
        Note(["  {} stretch tail (>=p99) by decision: {}".format(*tail)
              for tail in tails]
             + ["disco all-pairs sweep: {} pairs, max stretch {} "
                "(bound {:.1f}), {} undelivered, {} violations".format(
                    sweep["pairs"], cell(sweep["max_stretch"], "{:.3f}"),
                    sweep["bound"], sweep["undelivered"],
                    len(sweep["violations"])),
                "interdomain ({} vs {}):".format(
                    inter["rofl"]["denominator"],
                    inter["disco"]["denominator"])]
             + [text_row(_PROTO_COLUMNS, row) for row in inter_rows]
             + ["Singla et al.: compact routing bounds worst-case stretch"
                " at 3; ROFL's tail is unbounded but its common case"
                " rides the ring shortcuts"])]


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

_TWO_ISPS = ("AS1221", "AS3967")

FIGURES: Dict[str, Figure] = {
    "fig5a": Figure(
        E.fig5a_intra_join_overhead,
        lambda k: dict(profiles=("AS1221", "AS1239", "AS3257", "AS3967"),
                       host_counts=(10, 100, 1000 * k)),
        "Fig 5a — intradomain cumulative join overhead",
        (Column("ISP", 10, align="<"), Column("hosts", 8),
         Column("ROFL msgs", 14), Column("CMU msgs", 14),
         Column("CMU/ROFL", 10, "{:.1f}x")),
        _fig5a_rows,
        paper="paper: linear scaling; CMU-ETHERNET 37-181x more messages"),
    "fig5b": Figure(
        E.fig5b_join_overhead_cdf,
        lambda k: dict(profiles=_TWO_ISPS, n_hosts=500 * k),
        "Fig 5b — CDF of per-host join overhead [packets]",
        (Column("ISP", 10, align="<"), Column("median", 8, "{:.0f}"),
         Column("p95", 8, "{:.0f}"), Column("mean", 8, "{:.1f}"),
         Column("diameter", 10), Column("mean/diam", 12, "{:.1f}x")),
        _per_profile("median", "p95", "mean", "diameter", "per_diameter"),
        paper="paper: <45 packets per join, roughly 4x network diameter"),
    "fig5c": Figure(
        E.fig5c_join_latency_cdf,
        lambda k: dict(profiles=_TWO_ISPS, n_hosts=300 * k),
        "Fig 5c — CDF of join latency [ms]",
        (Column("ISP", 10, align="<"), Column("median", 10, "{:.1f}"),
         Column("p95", 10, "{:.1f}"), Column("mean", 10, "{:.1f}")),
        _per_profile("median_ms", "p95_ms", "mean_ms"),
        paper="paper: joins typically complete in under 40 ms"),
    "fig6a": Figure(
        E.fig6a_stretch_vs_cache,
        lambda k: dict(cache_sizes=(0, 64, 1024, 8192, TCAM_ENTRIES),
                       n_hosts=800 * k, n_packets=400 * k),
        "Fig 6a — stretch vs pointer-cache size ({profile})",
        (Column("cache entries", 14), Column("avg stretch", 12, "{:.2f}")),
        lambda result: result["series"],
        paper="paper: stretch drops to ~1.2-2 at ~70k entries (9 Mbit TCAM)"),
    "fig6b": Figure(
        E.fig6b_load_balance,
        lambda k: dict(n_hosts=500 * k, n_packets=2000 * k),
        "Fig 6b — load balance vs OSPF ({profile})",
        notes=("max per-router traffic fraction: OSPF {max_fraction_ospf:.4f}"
               "  ROFL {max_fraction_rofl:.4f}",
               "ROFL/OSPF load on the top-decile (hottest) routers:"
               " {top_decile_ratio:.2f}x"),
        paper="paper: difference from OSPF is slight; no significant"
              " hot-spots"),
    "fig6c": Figure(
        E.fig6c_memory,
        lambda k: dict(host_counts=(10, 100, 1000 * k)),
        "Fig 6c — avg memory entries per router ({profile})",
        (Column("IDs", 8), Column("ROFL entries", 16, "{:.1f}"),
         Column("CMU entries", 16, "{:.1f}"),
         Column("CMU/ROFL", 10, "{:.1f}x")),
        _series("series", "ids", "rofl_avg_entries", "cmu_avg_entries",
                "cmu_over_rofl"),
        paper="paper: CMU-ETHERNET needs 34-1200x more memory"),
    "fig7": Figure(
        E.fig7_partition_repair,
        lambda k: dict(ids_per_pop=(1, 4, 16, 64)),
        "Fig 7 — partition repair overhead ({profile})",
        (Column("IDs per PoP", 12), Column("IDs hit", 10),
         Column("repair msgs", 14), Column("rejoin baseline", 16, "{:.0f}")),
        _series("series", "ids_per_pop", "ids_in_pop", "repair_messages",
                "rejoin_baseline"),
        paper="paper: repair on the same order as rejoining the PoP's hosts;"
              " converges correctly in every run"),
    "fig7b": Figure(
        E.fig7b_host_failure,
        lambda k: dict(n_hosts=500 * k, n_failures=150),
        "§6.2 — host failure vs join overhead ({profile})",
        notes=("avg join {avg_join:.1f} msgs, avg host-failure repair"
               " {avg_failure:.1f} msgs ({failure_over_join:.2f}x)",),
        paper="paper: failure/mobility overhead comparable to join overhead"),
    "fig7c": Figure(
        E.fig7c_router_recovery,
        lambda k: dict(n_hosts=300 * k, n_failures=3 * k),
        "§6.2 — router-failure recovery under traffic ({profile})",
        (Column("router", 10), Column("repair msgs", 14)),
        _series("series", "router", "repair_messages"),
        ("avg repair {avg_repair:.0f} msgs ({repair_over_join:.1f}x avg"
         " join); delivery {delivery_rate:.3f} (worst window"
         " {min_window_delivery_rate:.3f})",),
        "paper: routers recover via failover pointers; traffic keeps"
        " flowing while the ring heals"),
    "fig8a": Figure(
        E.fig8a_inter_join,
        lambda k: dict(n_ases=100, n_hosts=400 * k),
        "Fig 8a — interdomain join overhead by strategy",
        (Column("strategy", 16, align="<"), Column("mean msgs", 12, "{:.1f}"),
         Column("tail avg", 12, "{:.1f}")),
        lambda result: [(name, data["mean"], data["moving_avg_tail"])
                        for name, data in result["strategies"].items()],
        ("extrapolated to 600M IDs: {extrapolation_600M}",),
        "paper: ephemeral ~14, single-homed ~80, multihomed ~100,"
        " peering up to ~445 msgs (600M extrapolation)"),
    "fig8b": Figure(
        E.fig8b_inter_stretch,
        lambda k: dict(n_ases=100, n_hosts=300 * k, finger_counts=(4, 16, 32),
                       n_packets=300 * k),
        "Fig 8b — interdomain stretch vs finger count",
        (Column("fingers", 14, align="<"),
         Column("mean stretch", 12, "{:.2f}")),
        lambda result: [(fingers, data["mean"]) for fingers, data
                        in sorted(result["fingers"].items())]
        + [("BGP-policy", result["bgp_policy"]["mean"])],
        paper="paper: stretch 2.8 @60 fingers falling to 2.3 @160;"
              " more fingers => less stretch"),
    "fig8c": Figure(
        E.fig8c_inter_cache_stretch,
        lambda k: dict(n_ases=100, n_hosts=300 * k, n_packets=300 * k),
        "Fig 8c — interdomain stretch vs per-AS pointer cache",
        (Column("cache entries", 14), Column("Mbit per AS", 16, "{:.2f}"),
         Column("mean stretch", 12, "{:.2f}")),
        _series("series", "cache_entries", "cache_mbits_per_as",
                "mean_stretch"),
        paper="paper: caching reduces stretch (2 -> 1.33 at 20M entries/AS)"),
    "fig8d": Figure(
        E.fig8d_stub_failure,
        lambda k: dict(n_ases=100, n_hosts=400 * k),
        "§6.3 — stub-AS failure impact",
        (Column("stub", 8, align="<"), Column("IDs", 5),
         Column("repair msgs", 12), Column("msgs/ID", 9, "{:.1f}"),
         Column("transit", 9, "{:.2%}", cell_width=8),
         Column("endpoint", 10, "{:.2%}", cell_width=9),
         Column("@600M scale", 12, "{:.6%}", cell_width=11),
         Column("delivery", 9, "{:.0%}", cell_width=8)),
        _series("failures", "stub", "ids", "repair_messages",
                "messages_per_id", "transit_paths_affected",
                "endpoint_paths_affected", "endpoint_fraction_600M",
                "post_delivery"),
        paper="paper: 99.998% of paths unaffected (stubs carry no transit —"
              " the transit column must be 0); repair msgs ~ #IDs in stub"),
    "fig8e": Figure(
        E.fig8e_bloom_peering,
        lambda k: dict(n_ases=100, n_hosts=300 * k, n_packets=300 * k),
        "§4.2/6.3 — peering: virtual-AS vs bloom filters",
        (Column("mode", 12, align="<"), Column("mean join", 12, "{:.1f}"),
         Column("mean stretch", 14, "{:.2f}"),
         Column("delivery", 10, "{:.0%}", cell_width=9),
         Column("bloom Mbit", 16, "{:.2f}")),
        _per_profile("mean_join", "mean_stretch", "delivery_rate",
                     "bloom_mbits_total"),
        paper="paper: bloom filters cut peering-join overhead to the"
              " multihomed level at the cost of per-AS filter state and"
              " slightly higher stretch (3.29 vs 2.8)"),
    "headtohead": Figure(
        E.headtohead_stretch,
        lambda k: dict(n_hosts=150 * k, n_packets=300 * k),
        blocks=headtohead_blocks),
}


def figure_blocks(figure_id: str, result: Dict) -> List:
    """The blocks of one figure: title, table, notes, the paper's line."""
    figure = FIGURES[figure_id]
    if figure.blocks is not None:
        return figure.blocks(result)
    blocks: List = [Heading(figure.title.format_map(result))]
    if figure.columns:
        blocks.append(table(figure.columns, figure.rows(result)))
    blocks.append(Note([note.format_map(result) for note in figure.notes]
                       + [figure.paper]))
    return blocks


def render(figure_id: str, result: Dict) -> str:
    """The text block ``figure_id``'s driver result prints as."""
    return emit_text(figure_blocks(figure_id, result))


def run_figures(full: bool = False, only: str = ""
                ) -> Iterator[Tuple[str, str, float]]:
    """Run every registered figure whose id starts with ``only``, in
    order, yielding ``(id, rendered text, seconds taken)``."""
    k = 3 if full else 1
    for figure_id, figure in FIGURES.items():
        if figure_id.startswith(only):
            start = time.time()
            text = render(figure_id, figure.driver(**figure.params(k)))
            yield figure_id, text, time.time() - start
