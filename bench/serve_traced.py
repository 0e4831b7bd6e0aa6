"""``python -m repro <args>`` with the boundary wrappers installed.

The traced ``serve_session`` run starts its server through this launcher,
so the layers behind the socket are measured the same way as in the
in-process workloads.  When the server ends, everything the tracer holds
is written to the file named by ``BENCH_TRACE_DUMP`` for the client to
merge.
"""

import json
import os
import sys

# Always run as a script: see bench/run.py.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.trace import Tracer  # noqa: E402
from repro.__main__ import main  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = main(sys.argv[1:])
    finally:
        with open(os.environ["BENCH_TRACE_DUMP"], "w") as fh:
            json.dump(tracer.to_dict(), fh)
    sys.exit(code)
