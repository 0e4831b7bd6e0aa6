"""``repro.obs`` — causal tracing, explain, probes, reports.

Zero-dependency observability for the whole stack.  See DESIGN.md §7
(tracing) and §12 (window rows, the ``metrics`` op, the report).
"""
