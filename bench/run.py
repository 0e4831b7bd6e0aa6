#!/usr/bin/env python3
"""The repo benchmark: one command, every metric, outputs checked.

    python3 bench/run.py                          # all workloads, seed 0
    python3 bench/run.py --workload inter_5k --seed 3 --trace 1
    python3 bench/run.py --repeat 10 --out bench/out/a.json
    python3 bench/run.py --smoke --trace 1        # sizes / 20, under 30 s

Every workload runs in a fresh, pinned child process of its own (this
file again, with ``--child``); the parent only starts children, takes
medians, prints and checks.  End-to-end metrics always come from an
untraced child.  ``--trace 1`` runs the workload a second time with the
wrappers of bench/trace.py installed and reports the per-layer metrics
from that run, including how much slower tracing made it.

With one ``--workload`` the last line of standard output is the result
object the benchmark contract asks for; the exit code is non-zero when
an output check failed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

if not __package__:
    # Run as a script: the repo root goes where Python put bench/ itself,
    # in which trace.py would shadow the standard library's module.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.spec import (OUT_DIR, ROOT, SRC_DIR, child_env, load_spec,  # noqa: E402
                        median, spread)

#: Set-up is measured this many times per run (fresh processes) and the
#: median reported: a single sub-second sample is mostly scheduler noise.
SETUP_SAMPLES = 3
#: The contract gives a run 180 s; a child that overstays is killed first.
CHILD_TIMEOUT_S = 170
SMOKE_DIVISOR = 20


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; "
                             "default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every generated input")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="K runs per workload, seeds SEED..SEED+K-1; "
                             "medians and spreads are printed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="nominal measured time of a run; the sizes in "
                             "bench/inputs.py are fixed for %(default)s and "
                             "scale linearly with this")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / {}".format(SMOKE_DIVISOR))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also run traced and report per-layer "
                             "metrics")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"),
                        help="where the run records are stored for "
                             "bench/compare.py (default %(default)s)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    args.spec = spec
    args.workloads = args.workload or names
    if args.scale is None:
        args.scale = args.seconds / spec["run_seconds"]
        if args.smoke:
            args.scale /= SMOKE_DIVISOR
    return args


# ---------------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------------

def child(args: argparse.Namespace) -> int:
    from bench import workloads

    result = workloads.child_main(
        args.workloads[0], args.seed, args.scale, bool(args.trace),
        args.spawned, args.setup_only)
    print(json.dumps(result))
    return 0


def spawn(workload: str, seed: int, scale: float, traced: bool,
          setup_only: bool) -> Dict[str, Any]:
    """Run one child to its end and return the object it printed last."""
    argv = [sys.executable, os.path.abspath(__file__), "--child",
            "--workload", workload, "--seed", str(seed),
            "--scale", repr(scale), "--trace", str(int(traced)),
            "--spawned", repr(time.perf_counter())]
    if setup_only:
        argv.append("--setup-only")
    # Its own session, so that a child which overstays is killed together
    # with the server it may have started.
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("{} child exceeded {} s".format(
            workload, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise RuntimeError("{} child exited with {}".format(
            workload, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def measure(spec: Dict, workload: str, seed: int, scale: float,
            trace: bool) -> Dict[str, Any]:
    """One run of one workload: the record stored, printed and compared."""
    # A traced invocation reports no end-to-end metric, so it takes the one
    # set-up sample the untraced child gives and spends no time on more.
    setups = [spawn(workload, seed, scale, False, True)["metrics"]["setup_s"]
              for _ in range(0 if trace else SETUP_SAMPLES - 1)]
    plain = spawn(workload, seed, scale, False, False)
    setups.append(plain["metrics"]["setup_s"])
    plain["metrics"]["setup_s"] = {
        "value": median([s["value"] for s in setups]),
        "raw": median([s["raw"] for s in setups]), "n": len(setups)}
    checks = list(plain["checks"])
    missing = [m["name"] for m in spec["end_to_end"]
               if m["name"] not in plain["metrics"]]
    checks.append({"name": "every end-to-end metric measured",
                   "ok": not missing, "detail": ", ".join(missing)})
    record = {
        "workload": workload, "seed": seed, "scale": scale,
        "attempted": plain["attempted"], "failed": plain["failed"],
        "sim_digest": plain["sim_digest"], "metrics": plain["metrics"],
        "layers": None, "checks": checks,
    }
    if trace:
        traced = spawn(workload, seed, scale, True, False)
        checks.extend(traced["checks"])
        checks.append({
            "name": "traced run reproduces the untraced sim_digest",
            "ok": traced["sim_digest"] == plain["sim_digest"], "detail": ""})
        layers = traced["layers"]
        layers["trace.overhead_frac"] = (
            plain["metrics"]["traffic_per_s"]["value"]
            / traced["metrics"]["traffic_per_s"]["value"] - 1.0)
        record["layers"] = {
            m["name"]: layer_value(m["name"], layers, traced["unresolved"])
            for m in spec["per_layer"]}
    record["correct"] = all(c["ok"] for c in checks)
    return record


def layer_value(name: str, layers: Dict[str, Any],
                unresolved: List[str]) -> Optional[float]:
    """A layer metric as reported: what the traced run measured; ``None``
    when the boundary it hangs on no longer resolves; 0 when the workload
    never entered that layer."""
    if name in layers:
        return layers[name]
    if any(name.startswith(span + ".") for span in unresolved):
        return None
    return 0


# ---------------------------------------------------------------------------
# Printing.
# ---------------------------------------------------------------------------

def print_record(spec: Dict, record: Dict[str, Any]) -> None:
    print("== {workload}  seed {seed}  scale {scale:g} ==".format(**record))
    print("  sim_digest {}".format(record["sim_digest"]))
    print("  ops_attempted {}  ops_failed {}".format(
        record["attempted"], record["failed"]))
    for check in record["checks"]:
        if not check["ok"]:
            print("  CHECK FAILED: {name} {detail}".format(**check))
    print("  checks {}/{} ok".format(
        sum(c["ok"] for c in record["checks"]), len(record["checks"])))
    print("  {:<16} {:>12} {:>12} {:<8} {:>7} {:>6}  {}".format(
        "end-to-end", "value", "raw", "unit", "n", "bound", "better"))
    for m in spec["end_to_end"]:
        got = record["metrics"].get(m["name"])
        if got is not None:
            print("  {:<16} {:>12.6g} {:>12.6g} {:<8} {:>7} {:>6}  {}".format(
                m["name"], got["value"], got["raw"], m["unit"], got["n"],
                m["bound"], m["better"]))
    if record["layers"] is not None:
        print("  {:<44} {:>14} {}".format("per-layer (traced run)", "value",
                                           "unit"))
        for m in spec["per_layer"]:
            value = record["layers"][m["name"]]
            print("  {:<44} {:>14} {}".format(
                m["name"],
                "null" if value is None else "{:.6g}".format(value),
                m["unit"]))


def print_summary(spec: Dict, records: List[Dict[str, Any]]) -> None:
    """Median and spread (IQR / median) per metric and workload, and the
    spread the raw wall-clock readings had."""
    print("== medians over {} runs per workload ==".format(
        len(records) // len({r["workload"] for r in records})))
    print("  {:<14} {:<16} {:>12} {:<8} {:>7} {:>11} {:>6}".format(
        "workload", "metric", "median", "unit", "spread", "raw spread",
        "bound"))
    for workload in dict.fromkeys(r["workload"] for r in records):
        for m in spec["end_to_end"]:
            got = [r["metrics"][m["name"]] for r in records
                   if r["workload"] == workload and m["name"] in r["metrics"]]
            if got:
                values = [g["value"] for g in got]
                print("  {:<14} {:<16} {:>12.6g} {:<8} {:>7.3f} {:>11.3f} "
                      "{:>6}".format(workload, m["name"], median(values),
                                     m["unit"], spread(values),
                                     spread([g["raw"] for g in got]),
                                     m["bound"]))


def contract_line(spec: Dict, records: List[Dict[str, Any]],
                  trace: bool) -> str:
    """The result object of one workload (medians when it ran K times)."""
    metrics = {}
    if trace:
        for m in spec["per_layer"]:
            values = [r["layers"][m["name"]] for r in records]
            known = [v for v in values if v is not None]
            metrics[m["name"]] = {
                "value": median(known) if len(known) == len(values) else None,
                "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in records
                      if m["name"] in r["metrics"]]
            if values:
                metrics[m["name"]] = {"value": median(values),
                                      "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print("bench/run.py: {} is missing: the benchmark measures the "
              "program in src/ and cannot run without it".format(
                  os.path.join(SRC_DIR, "repro")), file=sys.stderr)
        return 2
    spec = args.spec
    records = []
    for workload in args.workloads:
        for seed in range(args.seed, args.seed + args.repeat):
            record = measure(spec, workload, seed, args.scale,
                             bool(args.trace))
            print_record(spec, record)
            records.append(record)
    if args.repeat > 1:
        print_summary(spec, records)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"scale": args.scale, "runs": records}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    correct = all(r["correct"] for r in records)
    print("{}: {} run(s), output checks {}".format(
        args.out, len(records), "passed" if correct else "FAILED"))
    if len(args.workloads) == 1:
        print(contract_line(spec, records, bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
