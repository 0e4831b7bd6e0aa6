#!/usr/bin/env python3
"""The benchmark smoke run's ``sim_digest``s are the pinned ones.

    python3 bench/run.py --smoke --trace 1
    python3 benchmarks/check_digests.py          # reads bench/out/result.json

``tests/golden_bench_digests.json`` pins the seed, the scale and one
``sim_digest`` per ``BENCHMARK.json`` workload of that smoke run, so a
speed-up that moves simulated state fails in CI's bench-smoke job, not
only in an acceptance run.  Exits 1 with one line per problem on stderr
(a moved digest names its workload, the pinned value and the one got).
Standard library only.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_bench_digests.json")


def problems(runs: list, golden: dict) -> list:
    """What keeps ``runs`` (``result.json``'s) from being the pinned smoke
    run: another seed or scale, a moved digest, a missing or extra
    workload.  Empty when they are the pinned run."""
    found = []
    shapes = {(run["seed"], run["scale"]) for run in runs}
    if shapes != {(golden["seed"], golden["scale"])}:
        found.append("not the pinned smoke run: (seed, scale) {} != {}"
                     .format(sorted(shapes), (golden["seed"], golden["scale"])))
    got = {run["workload"]: run["sim_digest"] for run in runs}
    for name, digest in sorted(golden["sim_digest"].items()):
        if got.get(name) != digest:
            found.append("{}: sim_digest pinned {}, got {}".format(
                name, digest, got.get(name)))
    for name in sorted(set(got) - set(golden["sim_digest"])):
        found.append("{}: no pinned sim_digest".format(name))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", nargs="?",
                        default=os.path.join(ROOT, "bench", "out",
                                             "result.json"),
                        help="bench/run.py output (default: %(default)s)")
    args = parser.parse_args(argv)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    with open(args.result) as fh:
        runs = json.load(fh)["runs"]
    found = problems(runs, golden)
    for line in found:
        print("check_digests: " + line, file=sys.stderr)
    if found:
        return 1
    print("check_digests: {} pinned sim_digests match".format(len(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
