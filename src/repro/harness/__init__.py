"""Experiment harness: one driver per table/figure of the paper.

Each ``figXX_*`` function in :mod:`repro.harness.experiments` builds the
workload the paper describes, runs it at a configurable scale, and
returns a plain dict of series; :data:`repro.harness.report.FIGURES` is
the one registry of those drivers, their standard sizes and their table
layouts, and :func:`repro.harness.report.render` turns a result into the
rows/series the paper plots.  The ``benchmarks/`` tree wraps every
driver in a pytest-benchmark target, and ``EXPERIMENTS.md`` records
paper-vs-measured values.
"""
