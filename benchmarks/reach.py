"""Which of ``src/repro`` does anything but its own unit test ever call?

Function-level reach, stdlib only: every traffic source below runs in child
processes with a ``sitecustomize`` on their path that installs
``sys.setprofile`` + ``threading.setprofile`` and, at exit, writes the
``(file, qualname, first line)`` of every ``src/repro`` function that was
called.  ``ast`` supplies the denominator: the lines of every outermost
function or method, first decorator to last statement (nested functions
count with the one that holds them).

Two kinds of traffic are told apart:

* **tests** — tier-1, one ``tests/test_*.py`` at a time;
* **production** — ``bench/run.py --smoke --trace 1``, the CLI smokes CI runs
  (every subcommand), ``repro figures``, ``examples/*.py`` and
  ``pytest benchmarks``.

The table gives, per module, the function lines reached by production
traffic, by tests only, and by nothing.  Report only — there is no gate:
a function nothing but its own test reaches is either wired into a figure
or workload, or a candidate for deletion (ROADMAP, dead-weight audit).

    python benchmarks/reach.py                 # everything, several minutes
    python benchmarks/reach.py --only tests    # or: --only production
    python benchmarks/reach.py --json reach.json   # per-function detail
"""

from __future__ import annotations

import argparse
import ast
import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: What every traced child runs first.  ``id(code)`` keys, not code objects:
#: hashing a code object walks its bytecode and constants on every call.
RECORDER = '''
import atexit, os, sys, threading
_seen = {}
def _hook(frame, event, arg, _seen=_seen):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
def _dump(prefix=os.environ["REPRO_REACH_SRC"] + os.sep):
    sys.setprofile(None)
    rows = sorted({(c.co_filename[len(prefix):],
                    getattr(c, "co_qualname", c.co_name), c.co_firstlineno)
                   for c in list(_seen.values())
                   if c.co_filename.startswith(prefix)})
    path = os.path.join(os.environ["REPRO_REACH_DIR"], "{}.{}.tsv".format(
        os.environ["REPRO_REACH_LABEL"], os.getpid()))
    with open(path, "w") as fh:
        fh.writelines("{}\\t{}\\t{}\\n".format(*row) for row in rows)
if os.environ.get("REPRO_REACH_DIR"):
    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''

Function = Tuple[str, int]          # (path under src/, first line)


def functions() -> Dict[Function, Tuple[str, int]]:
    """Every outermost function or method of the package:
    ``(file, first line) → (qualname, lines)``."""
    found: Dict[Function, Tuple[str, int]] = {}

    def visit(node: ast.AST, prefix: str, rel: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                found[(rel, first)] = (prefix + child.name,
                                       child.end_lineno - first + 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", rel)
            else:
                visit(child, prefix, rel)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), "", str(path.relative_to(SRC)))
    return found


def smokes(tmp: Path) -> Iterator[Tuple[str, List[str]]]:
    """``(label, argv)`` of the production traffic, outputs under ``tmp``;
    a command given no ``--requests`` reads them from standard input."""
    py, out = sys.executable, lambda name: str(tmp / name)
    repro = [py, "-m", "repro"]
    requests = tmp / "requests.jsonl"
    requests.write_text("".join(json.dumps(request) + "\n" for request in (
        [{"op": op} for op in ("ping", "info", "metrics", "state_hash",
                               "verify")]
        + [{"op": "join", "n": 3}, {"op": "send", "n": 20},
           {"op": "route", "src": "h0", "dst": "h1"},
           {"op": "leave", "host": "h2"},
           {"op": "workload", "scenario": "steady-churn"},
           {"op": "save", "path": out("served.snap")},
           {"op": "shutdown"}])))
    yield "bench-smoke", [py, "bench/run.py", "--smoke", "--trace", "1",
                          "--out", out("bench.json")]
    yield "figures", repro + ["figures"]
    for name in ("steady-churn", "flash-crowd"):
        yield "workload", repro + ["workload", name, "--json", out("w.json")]
    yield "workload-text", repro + [
        "workload", "examples/scenarios/crash-then-partition.json"]
    yield "workload-list", repro + ["workload", "--list"]
    yield "workload-obs", repro + [
        "workload", "steady-churn", "--probes", "--trace-out", out("t.jsonl"),
        "--json", out("traced.json")]
    yield "trace", repro + ["trace", "--routers", "24", "--hosts", "60",
                            "--packets", "2"]
    yield "trace-inter", repro + ["trace", "--inter", "--ases", "30",
                                  "--packets", "2"]
    yield "trace-scenario", repro + ["trace", "--scenario", "depeering",
                                     "--packets", "2"]
    for kind in ("intra", "inter"):
        snap = out(kind + ".snap")
        yield "snapshot", repro + ["snapshot", "save", snap, "--kind", kind]
        yield "snapshot", repro + ["snapshot", "info", snap]
        yield "snapshot", repro + ["snapshot", "verify", snap]
    yield "serve", repro + ["serve", "--hosts", "200", "--routers", "24",
                            "--requests", str(requests)]
    yield "serve-warm", repro + ["serve", "--snapshot", out("inter.snap"),
                                 "--verify", "--requests", str(requests)]
    yield "serve-stdio", repro + ["serve", "--hosts", "100", "--routers", "20"]
    yield "perf-trajectory", [py, "benchmarks/perf_trajectory.py", "--quick",
                              "--out", out("scaling.json")]
    yield "compare-stretch", repro + ["compare-stretch", "--json",
                                      out("compare.json")]
    yield "report", repro + [
        "report", "--metrics", out("traced.json"), "--bench",
        out("scaling.json"), "--compare", out("compare.json"), "--out",
        out("report.html")]
    yield "info", repro + ["info"]
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield "example-" + example.stem, [py, str(example)]
    # pytest-benchmark clears ``sys.setprofile`` around every timed round
    # (``PauseInstrumentation``), recorder included; disabled, ``pedantic``
    # just calls the driver.
    yield "benchmarks", [py, "-m", "pytest", "benchmarks", "-q", "-p",
                         "no:cacheprovider", "--benchmark-disable"]


def run_traced(label: str, argv: List[str], tmp: Path) -> None:
    env = dict(os.environ, REPRO_REACH_DIR=str(tmp / "reach"),
               REPRO_REACH_LABEL=label, REPRO_REACH_SRC=str(SRC),
               PYTHONPATH=os.pathsep.join(
                   [str(tmp / "site"), str(SRC)]
                   + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    print("reach: {:<28} {}".format(label, " ".join(argv[1:])[:90]),
          file=sys.stderr, flush=True)
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          input='{"op": "metrics"}\n{"op": "shutdown"}\n')
    if done.returncode:         # report and carry on: this is not a gate
        print("reach:   exit {}: {}".format(
            done.returncode, done.stderr.strip().splitlines()[-1:]),
            file=sys.stderr)


def reached(tmp: Path) -> Dict[Function, Set[str]]:
    """``(file, first line) → labels`` over every dump the children left."""
    calls: Dict[Function, Set[str]] = collections.defaultdict(set)
    for dump in (tmp / "reach").glob("*.tsv"):
        label = dump.name.rsplit(".", 2)[0]
        for line in dump.read_text().splitlines():
            rel, _, first = line.split("\t")
            calls[(rel, int(first))].add(label)
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=("tests", "production"))
    parser.add_argument("--json", metavar="PATH",
                        help="also write per-function detail here")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        (tmp / "reach").mkdir()
        (tmp / "site").mkdir()
        (tmp / "site" / "sitecustomize.py").write_text(RECORDER)
        if args.only != "production":
            for test in sorted((ROOT / "tests").glob("test_*.py")):
                run_traced("test-" + test.stem, [
                    sys.executable, "-m", "pytest", "-q", "-x", "-p",
                    "no:cacheprovider", str(test)], tmp)
        if args.only != "tests":
            for label, command in smokes(tmp):
                run_traced(label, command, tmp)
        calls = reached(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rows: Dict[str, List[int]] = collections.defaultdict(lambda: [0, 0, 0, 0])
    detail = []
    for (rel, first), (qualname, lines) in sorted(functions().items()):
        labels = calls.get((rel, first), set())
        tests = sorted(label for label in labels if label.startswith("test-"))
        where = (1 if len(tests) < len(labels) else 2 if tests else 3)
        for row in (rows[rel], rows["total"]):
            row[0] += lines
            row[where] += lines
        detail.append({"file": rel, "function": qualname, "line": first,
                       "lines": lines, "tests": tests,
                       "reached": ("production", "tests only",
                                   "nothing")[where - 1]})
    print("{:<36} {:>7} {:>11} {:>11} {:>8}".format(
        "function lines in", "all", "production", "tests only", "nothing"))
    for rel, row in sorted(rows.items(), key=lambda item: (
            item[0] == "total", -(item[1][2] + item[1][3]), item[0])):
        print("{:<36} {:>7} {:>11} {:>11} {:>8}".format(
            rel.replace("repro/", "", 1), *row))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(detail, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
