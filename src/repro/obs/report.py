"""The one report renderer: a small block model and three emitters.

Everything ``repro`` prints as a table or a document — the evaluation
figures, the head-to-head, a workload run, the telemetry report — is
*built once* as a list of blocks (:class:`Heading`, :class:`Table` of
string cells, :class:`Note`, :class:`Pre`, :class:`Sparkline`) and then
emitted as fixed-width text (:func:`emit_text`), markdown
(:func:`emit_markdown`) or one self-contained HTML file
(:func:`emit_html`: inline CSS, inline SVG, zero external assets).

``python -m repro report`` feeds it the telemetry artifacts other parts
of the pipeline write — the window rows of a workload run (the
``samples`` of its ``--json`` view), a perf snapshot with timers (any
JSON carrying a registry dump), the population sweep of
``benchmarks/perf_trajectory.py`` and ``compare_stretch.json``.  The
hierarchical timer tree folds dotted timer names (``inter.join.fingers``
under ``inter.join`` under ``inter``) and aggregates seconds/calls
bottom-up, so the expensive subtree is obvious at a glance even in a
registry with dozens of flat names.
"""

from __future__ import annotations

import functools
import html as _html
import json
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence

# ---------------------------------------------------------------------------
# Block model.
# ---------------------------------------------------------------------------


class Heading(NamedTuple):
    text: str
    level: int = 2


class Column(NamedTuple):
    """One table column.  ``width``/``align`` matter to fixed-width text
    only; ``fmt`` turns a raw value into the cell (:func:`table`).
    ``cell_width`` is for the few columns whose rows were always set one
    narrower than their header."""
    label: str
    width: int = 0
    fmt: str = "{}"
    align: str = ">"
    cell_width: Optional[int] = None


class Table(NamedTuple):
    columns: Sequence[Column]
    rows: Sequence[Sequence[str]]


class Note(NamedTuple):
    """Lines of prose: a paragraph each, or one bullet list."""
    lines: Sequence[str]
    bullets: bool = False


class Pre(NamedTuple):
    lines: Sequence[str]


class Sparkline(NamedTuple):
    """A per-window series; only HTML can draw it."""
    label: str
    series: Sequence[float]


def cell(value, fmt: str = "{:.2f}", absent: str = "n/a") -> str:
    """Format a possibly-absent statistic; empty series arrive as None
    (see ``repro.harness.experiments._mean``) and render as ``n/a``."""
    return absent if value is None else fmt.format(value)


def table(columns: Sequence[Column], rows: Iterable[Sequence]) -> Table:
    """A :class:`Table` from raw values, each through its column's ``fmt``."""
    return Table(columns, [[cell(value, column.fmt)
                            for column, value in zip(columns, row)]
                           for row in rows])


# ---------------------------------------------------------------------------
# Emitters.
# ---------------------------------------------------------------------------

def text_row(columns: Sequence[Column], cells: Sequence[str]) -> str:
    return " ".join(
        format(text, "{}{}".format(column.align,
                                   column.cell_width or column.width))
        for column, text in zip(columns, cells))


def emit_text(blocks: Iterable) -> str:
    """Fixed-width text, the layout the figures have always printed."""
    lines: List[str] = []
    for block in blocks:
        if isinstance(block, Heading):
            lines.append("\n{}\n{}\n".format(block.text,
                                             "-" * len(block.text)))
        elif isinstance(block, Table):
            lines.append(" ".join(format(c.label, c.align + str(c.width))
                                  for c in block.columns))
            lines += [text_row(block.columns, row) for row in block.rows]
        elif isinstance(block, (Note, Pre)):
            lines += block.lines
    return "\n".join(lines)


def emit_markdown(blocks: Iterable) -> str:
    lines: List[str] = []
    for block in blocks:
        if isinstance(block, Heading):
            lines.append("{} {}".format("#" * block.level, block.text))
        elif isinstance(block, Table):
            lines.append("| " + " | ".join(c.label for c in block.columns)
                         + " |")
            lines.append("|" + "|".join(" --- " for _ in block.columns) + "|")
            lines += ["| " + " | ".join(row) + " |" for row in block.rows]
        elif isinstance(block, Note):
            lines += [("- " if block.bullets else "") + line
                      for line in block.lines]
        elif isinstance(block, Pre):
            lines += ["```", *block.lines, "```"]
        else:
            continue
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 70em; color: #1a1a2e; padding: 0 1em; }
h1 { border-bottom: 2px solid #444; padding-bottom: .2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #bbb; padding: .25em .6em; text-align: right; }
th { background: #eef; }
td:first-child, th:first-child { text-align: left; }
pre { background: #f6f6fa; padding: 1em; overflow-x: auto; }
svg { background: #fbfbff; border: 1px solid #ddd; margin: .5em 0; }
.legend { font-size: 12px; color: #555; }
"""


def _svg(series: Sequence[float], width: int = 640, height: int = 80) -> str:
    """One inline SVG polyline for a per-window series."""
    top = max(series) or 1.0
    step = width / (len(series) - 1)
    points = " ".join(
        "{:.1f},{:.1f}".format(i * step,
                               height - (value / top) * (height - 6) - 3)
        for i, value in enumerate(series))
    return ('<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
            '<polyline fill="none" stroke="#3355bb" stroke-width="1.5" '
            'points="{p}"/></svg>').format(w=width, h=height, p=points)


def _html_block(block) -> str:
    esc = _html.escape
    if isinstance(block, Heading):
        return "<h{0}>{1}</h{0}>".format(block.level, esc(block.text))
    if isinstance(block, Table):
        head = "".join("<th>{}</th>".format(esc(c.label))
                       for c in block.columns)
        body = "".join(
            "<tr>{}</tr>".format("".join("<td>{}</td>".format(esc(text))
                                         for text in row))
            for row in block.rows)
        return "<table><tr>{}</tr>{}</table>".format(head, body)
    if isinstance(block, Note):
        if block.bullets:
            return "<ul>{}</ul>".format("".join(
                "<li>{}</li>".format(esc(line)) for line in block.lines))
        return "\n".join("<p>{}</p>".format(esc(line))
                         for line in block.lines)
    if isinstance(block, Pre):
        return "<pre>{}</pre>".format(esc("\n".join(block.lines)))
    return ("<div class=\"legend\">{} per window (peak {:g})</div>{}".format(
        esc(block.label), max(block.series), _svg(block.series)))


def emit_html(blocks: Sequence) -> str:
    """One self-contained page; the first block's text is its title.  A
    heading shares a line with the table or listing it captions."""
    parts = ["<!DOCTYPE html><html><head><meta charset=\"utf-8\">\n"
             "<title>{}</title>\n<style>{}</style></head><body>".format(
                 _html.escape(blocks[0].text), _CSS)]
    previous = None
    for block in blocks:
        captioned = (isinstance(previous, Heading)
                     and isinstance(block, (Table, Pre)))
        parts.append(("" if captioned else "\n") + _html_block(block))
        previous = block
    return "".join(parts) + "\n</body></html>\n"


# ---------------------------------------------------------------------------
# Timer tree.
# ---------------------------------------------------------------------------


def build_timer_tree(timers: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Fold flat dotted timer names into a tree.

    Each node is ``{"name", "children": {part: node}, "row"}`` where
    ``row`` is the registry's snapshot entry when the exact dotted name
    exists (inner nodes without their own timer get ``row=None``).
    """
    root: Dict[str, Any] = {"name": "", "children": {}, "row": None}
    for name, row in timers.items():
        node = root
        for part in name.split("."):
            node = node["children"].setdefault(
                part, {"name": part, "children": {}, "row": None})
        node["row"] = row
    return root


def _subtree_seconds(node: Dict[str, Any]) -> float:
    own = node["row"]["seconds"] if node["row"] else 0.0
    return own + sum(_subtree_seconds(child)
                     for child in node["children"].values())


def render_timer_tree(timers: Dict[str, Dict[str, Any]]) -> List[str]:
    """Text lines of the tree, heaviest subtree first at every level."""
    lines = ["{:<44} {:>8} {:>10} {:>12} {:>10}".format(
        "timer", "calls", "seconds", "mean", "max")]

    def walk(node: Dict[str, Any], depth: int) -> None:
        children = sorted(node["children"].values(),
                          key=lambda c: (-_subtree_seconds(c), c["name"]))
        for child in children:
            label = "{}{}".format("  " * depth, child["name"])
            row = child["row"]
            if row:
                lines.append(
                    "{:<44} {:>8} {:>10.3f} {:>12.6f} {:>10.4f}".format(
                        label, row["calls"], row["seconds"],
                        row.get("mean", 0.0), row.get("max", 0.0)))
            else:
                lines.append("{:<44} {:>8} {:>10.3f}".format(
                    label, "-", _subtree_seconds(child)))
            walk(child, depth + 1)

    walk(build_timer_tree(timers), 0)
    return lines


# ---------------------------------------------------------------------------
# Window rows (the ``samples`` of a workload run's ``--json`` view).
# ---------------------------------------------------------------------------

_WINDOW_COLUMNS = [Column("t", 8, "{:.1f}"), Column("hosts", 6),
                   Column("sent", 6), Column("delivery", 9, "{:.3f}"),
                   Column("stretch", 8, "{:.2f}"), Column("ctrl msgs", 10),
                   Column("state", 7)]
_WINDOW_KEYS = ("t", "live_hosts", "sent", "delivery_rate", "mean_stretch",
                "control_messages", "state_entries")


def window_table(rows: Sequence[Dict[str, Any]]) -> Table:
    """The one table of window rows: what ``repro workload`` prints and
    what ``repro report --metrics`` renders."""
    return Table(_WINDOW_COLUMNS, [[cell(row[key], column.fmt, "-")
                                    for key, column in zip(_WINDOW_KEYS,
                                                           _WINDOW_COLUMNS)]
                                   for row in rows])


def _window_blocks(rows: List[Dict[str, Any]]) -> List:
    """Window span, the window table, and how delivery, stretch and
    control overhead moved (a window that sent nothing draws at zero)."""
    blocks = [Heading("Metrics stream"),
              Note(["{} windows over t = {:g} .. {:g}.".format(
                  len(rows), rows[0]["t"], rows[-1]["t"])]),
              window_table(rows)]
    if len(rows) >= 2:
        blocks += [Sparkline(key, [float(row[key] or 0) for row in rows])
                   for key in ("delivery_rate", "mean_stretch",
                               "control_messages")]
    return blocks


# ---------------------------------------------------------------------------
# Trajectory (the sweep ``benchmarks/perf_trajectory.py`` writes).
# ---------------------------------------------------------------------------

_SCALING_COLUMNS = [Column("hosts"), Column("join s", fmt="{:g}"),
                    Column("joins/s", fmt="{:g}"),
                    Column("send s", fmt="{:g}"),
                    Column("sends/s", fmt="{:g}"),
                    Column("peak MiB", fmt="{:g}")]
_SCALING_KEYS = ("join_seconds", "joins_per_sec", "send_seconds",
                 "sends_per_sec", "peak_rss_mb")


def _bench_blocks(bench: Dict[str, Any]) -> List:
    blocks: List = [Heading("Scaling trajectory")]
    for section in ("interdomain", "intradomain"):
        rows = bench.get(section) or []
        if rows:
            blocks += [Heading(section, 3), table(_SCALING_COLUMNS, [
                [row.get("hosts", "")] + [row.get(key, 0)
                                          for key in _SCALING_KEYS]
                for row in rows])]
    return blocks


def _bench_perf(bench: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The perf snapshot of the largest interdomain row (the run whose
    timer tree says the most about where scale goes)."""
    rows = bench.get("interdomain") or bench.get("intradomain") or []
    best = None
    for row in rows:
        if isinstance(row.get("perf"), dict):
            if best is None or row.get("hosts", 0) > best.get("hosts", 0):
                best = row
    return best["perf"] if best else None


def extract_perf_snapshot(payload: Dict[str, Any]
                          ) -> Optional[Dict[str, Any]]:
    """Find a registry snapshot inside an arbitrary result JSON: the
    object itself (has ``timers``), its ``perf`` key, or — for a
    population sweep — the biggest row's dump."""
    if not isinstance(payload, dict):
        return None
    if isinstance(payload.get("timers"), dict):
        return payload
    if isinstance(payload.get("perf"), dict):
        return payload["perf"]
    return _bench_perf(payload)


# ---------------------------------------------------------------------------
# The telemetry report (``python -m repro report``).
# ---------------------------------------------------------------------------

class ReportError(ValueError):
    """An input file that is not JSON, or JSON of the wrong shape."""


def report_blocks(metrics_rows: Optional[List[Dict[str, Any]]] = None,
                  perf_snapshot: Optional[Dict[str, Any]] = None,
                  bench: Optional[Dict[str, Any]] = None,
                  compare: Optional[Dict[str, Any]] = None) -> List:
    """The document's sections in order, built once for whichever
    emitter is asked."""
    blocks: List = []
    if compare:
        from repro.harness.report import headtohead_blocks
        blocks += headtohead_blocks(compare, document=True)
    if metrics_rows:
        blocks += _window_blocks(metrics_rows)
    if perf_snapshot and perf_snapshot.get("timers"):
        blocks += [Heading("Timer tree"),
                   Pre(render_timer_tree(perf_snapshot["timers"]))]
    if bench:
        blocks += _bench_blocks(bench)
    return blocks


def _load_object(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ReportError("expected a JSON object, got {}".format(
            type(payload).__name__))
    return payload


def generate_report(title: str,
                    metrics_path: Optional[str] = None,
                    perf_path: Optional[str] = None,
                    bench_path: Optional[str] = None,
                    compare_path: Optional[str] = None,
                    fmt: str = "markdown") -> str:
    """Load the named artifacts and render one report document.  The
    timer tree comes from ``perf_path``, else from the bench's largest
    row.  A file that is not JSON, or is JSON of the wrong shape (a
    missing key, a list where an object belongs, a ``perf_path`` with no
    timers to draw), raises :class:`ReportError` naming it."""
    load = functools.lru_cache(maxsize=None)(_load_object)

    def read_perf(path: str) -> Optional[Dict[str, Any]]:
        snapshot = extract_perf_snapshot(load(path))
        if perf_path and not (snapshot and snapshot.get("timers")):
            raise ReportError("no perf snapshot")
        return snapshot

    sources = (     # in document order: file, report_blocks keyword, reader
        (compare_path, "compare", load),
        (metrics_path, "metrics_rows", lambda path: load(path)["samples"]),
        (perf_path or bench_path, "perf_snapshot", read_perf),
        (bench_path, "bench", load))
    blocks: List = [Heading(title, 1)]
    for path, keyword, read in sources:
        if not path:
            continue
        try:
            blocks += report_blocks(**{keyword: read(path)})
        except (LookupError, TypeError, AttributeError, ValueError) as exc:
            what = ("missing key {}".format(exc) if isinstance(exc, KeyError)
                    else str(exc))
            raise ReportError("{}: {}".format(path, what)) from exc
    return emit_html(blocks) if fmt == "html" else emit_markdown(blocks)
