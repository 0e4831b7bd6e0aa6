"""Persistent request-serving mode: a resident network behind JSON lines.

``python -m repro serve`` builds a network once (or warm-loads a
:mod:`repro.snapshot`), holds it resident, and answers a stream of
requests — so interactive exploration, scripted experiments, and
external tooling pay the expensive build/join phase exactly once instead
of per invocation.

Protocol — one JSON object per line, in either direction::

    → {"op": "send", "id": 7, "n": 100}
    ← {"ok": true, "op": "send", "id": 7, "sent": 100, "delivered": 100,
       "mean_stretch": 1.18, ...}

Every response echoes ``op`` (and ``id`` when the request carried one)
and has ``ok``; failures carry ``error`` instead of result fields, and a
bad request never kills the server.  Supported ops: ``ping``, ``info``,
``join``, ``leave``, ``send``, ``route``, ``workload``, ``metrics``,
``save``, ``state_hash``, ``verify``, ``shutdown``.
Per-request latency is recorded through :mod:`repro.util.perf` as a
``serve.request.<op>`` timer plus a ``serve.latency.<op>`` histogram;
the ``metrics`` op reports both back out as JSON (the network's message
counters, the whole perf registry, per-op p50/p95/p99) — the one
telemetry op: a line-JSON socket is not something a scraper can reach.

Transports: stdio (default — pipe-friendly), or TCP via ``--tcp PORT``
(line-delimited JSON over a socket, one resident network shared by
sequential connections).
"""

from __future__ import annotations

import functools
import json
import socketserver
import sys
import time
from typing import Any, Dict, IO, Iterable, Optional

import repro
from repro.util import perf

#: :func:`repro.build_network` under the topology name resident networks
#: have always had: their snapshots, the CI determinism gate and the
#: bench's ``serve_session`` digest all hash ``"serve"`` in.
build_network = functools.partial(repro.build_network, name="serve")


class ServeError(ValueError):
    """A request the server understood enough to reject cleanly."""


def _count(request: Dict) -> int:
    """A request's ``n`` (default 1): an ``int`` of at least 1 — never a
    ``bool``, a float or a numeric string coerced into one."""
    n = request.get("n", 1)
    if type(n) is not int or n < 1:
        raise ServeError("n must be an integer >= 1, got {}".format(
            json.dumps(n)))
    return n


def _path_result_dict(result) -> Dict[str, Any]:
    return {
        "delivered": result.delivered,
        "hops": result.hops,
        "optimal_hops": result.optimal_hops,
        "pointer_hops": result.pointer_hops,
        "used_cache": result.used_cache,
        "stretch": round(result.stretch, 4),
        "path": [str(hop) for hop in result.path],
    }


class ReproServer:
    """One resident network plus the request dispatch around it."""

    def __init__(self, net):
        self.net = net
        self.requests_served = 0
        self._shutdown = False

    # -- dispatch ----------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one decoded request; never raises."""
        if not isinstance(request, dict):
            return {"ok": False, "op": None,
                    "error": "request must be a JSON object"}
        op = request.get("op")
        handler = getattr(self, "_op_" + op, None) if isinstance(
            op, str) else None
        response: Dict[str, Any] = {"ok": True, "op": op}
        if "id" in request:
            response["id"] = request["id"]
        if handler is None:
            response["ok"] = False
            response["error"] = "unknown op {!r}; try one of: {}".format(
                op, ", ".join(sorted(
                    name[4:] for name in dir(self)
                    if name.startswith("_op_"))))
            return response
        start = time.perf_counter()
        try:
            with perf.timed("serve.request.{}".format(op)):
                result = handler(request)
        except Exception as exc:
            response["ok"] = False
            response["error"] = "{}: {}".format(type(exc).__name__, exc)
            return response
        perf.observe("serve.latency.{}".format(op),
                     time.perf_counter() - start)
        self.requests_served += 1
        response.update(result)
        return response

    def handle_line(self, line: str) -> Optional[str]:
        """Answer one raw request line (empty lines are ignored)."""
        line = line.strip()
        if not line:
            return None
        try:
            request = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: a deeply nested line ("[" * 100000) blows
            # the decoder's stack instead of failing to parse.
            return json.dumps({"ok": False, "op": None,
                               "error": "bad JSON: {}".format(exc)})
        return json.dumps(self.handle(request), sort_keys=True)

    # -- ops ---------------------------------------------------------------

    def _op_ping(self, request: Dict) -> Dict:
        return {"pong": True}

    def _op_info(self, request: Dict) -> Dict:
        return {"kind": self.net.kind, "seed": self.net.seed,
                "requests_served": self.requests_served,
                **self.net.describe()}

    def _op_join(self, request: Dict) -> Dict:
        n = _count(request)
        before = len(self.net.hosts)
        self.net.join_random_hosts(n)
        names = self.net.hosts.names[before:]
        return {"joined": len(names), "hosts": names,
                "total_hosts": len(self.net.hosts)}

    def _op_leave(self, request: Dict) -> Dict:
        host = request.get("host")
        if not host:
            raise ServeError("leave needs a 'host' name")
        if host not in self.net.hosts:
            raise ServeError("unknown host {!r}".format(host))
        messages = self.net.leave_host(host)
        return {"left": host, "messages": messages,
                "total_hosts": len(self.net.hosts)}

    def _op_send(self, request: Dict) -> Dict:
        n = _count(request)
        if "src" in request or "dst" in request:
            raise ServeError("send routes random pairs; use op 'route' "
                             "for a specific src/dst")
        delivered = cached = stretched = 0
        hops = stretch_sum = 0.0
        for _ in range(n):
            result = self.net.send(*self.net.random_host_pair())
            if result.delivered:
                delivered += 1
                hops += result.hops
                if result.optimal_hops > 0:     # same-router: no ratio
                    stretched += 1
                    stretch_sum += result.stretch
            cached += result.used_cache
        return {
            "sent": n,
            "delivered": delivered,
            "cache_hits": cached,
            "mean_hops": round(hops / delivered, 4) if delivered else 0.0,
            "mean_stretch": round(stretch_sum / stretched, 4)
            if stretched else 0.0,
        }

    def _op_route(self, request: Dict) -> Dict:
        src, dst = request.get("src"), request.get("dst")
        if not src or not dst:
            raise ServeError("route needs 'src' and 'dst' host names")
        for host in (src, dst):
            if host not in self.net.hosts:
                raise ServeError("unknown host {!r}".format(host))
        return _path_result_dict(self.net.send(src, dst))

    def _op_workload(self, request: Dict) -> Dict:
        from repro.workload.driver import run_scenario
        from repro.workload.scenario import Scenario, builtin_scenario
        spec = request.get("scenario")
        if isinstance(spec, str):
            scenario = builtin_scenario(spec, seed=int(request.get(
                "seed", self.net.seed)))
        elif isinstance(spec, dict):
            scenario = Scenario.from_dict(spec)
        else:
            raise ServeError("workload needs 'scenario': a builtin name "
                             "or a full scenario object")
        expected = scenario.network.kind
        if expected != self.net.kind:
            raise ServeError(
                "scenario targets a {!r} network but the resident network "
                "is {!r}".format(expected, self.net.kind))
        result = run_scenario(scenario, network=self.net)
        view = result.deterministic_view()
        return {
            "scenario": scenario.name,
            "summary": view["summary"],
            "totals": view["totals"],
            "faults": len(view["fault_log"]),
            "violations": view["violations"],
            "wall_seconds": result.wall_seconds,
        }

    @staticmethod
    def _latency_summary() -> Dict[str, Dict[str, float]]:
        """Per-op request-latency percentiles from the ``serve.latency.*``
        histograms (seconds)."""
        out: Dict[str, Dict[str, float]] = {}
        prefix = "serve.latency."
        for name, hist in perf.PERF.histograms.items():
            if name.startswith(prefix) and len(hist):
                snap = hist.snapshot()
                out[name[len(prefix):]] = {
                    "count": snap["count"],
                    "mean": round(snap["mean"], 9),
                    "p50": round(snap["p50"], 9),
                    "p95": round(snap["p95"], 9),
                    "p99": round(snap["p99"], 9),
                    "max": round(snap["max"], 9),
                }
        return out

    def _op_metrics(self, request: Dict) -> Dict:
        return {
            "stats": self.net.stats.snapshot(),
            "perf": perf.snapshot(),
            "latency": self._latency_summary(),
            "requests_served": self.requests_served,
        }

    def _op_save(self, request: Dict) -> Dict:
        from repro import snapshot
        path = request.get("path")
        if not path:
            raise ServeError("save needs a 'path'")
        digest = snapshot.save(self.net, path,
                               meta={"source": "serve",
                                     **request.get("meta", {})})
        return {"path": path, "state_hash": digest}

    def _op_state_hash(self, request: Dict) -> Dict:
        from repro import snapshot
        self.net.flush_indexes()
        return {"state_hash": snapshot.state_hash(self.net)}

    def _op_verify(self, request: Dict) -> Dict:
        from repro import snapshot
        violations = snapshot.validate_network(self.net)
        return {"violations": violations, "clean": not violations}

    def _op_shutdown(self, request: Dict) -> Dict:
        self._shutdown = True
        return {"bye": True, "requests_served": self.requests_served}

    # -- transports --------------------------------------------------------

    def serve_lines(self, lines: Iterable[str], out: IO[str]) -> int:
        """Core loop shared by every transport; returns requests answered."""
        answered = 0
        for line in lines:
            reply = self.handle_line(line)
            if reply is None:
                continue
            out.write(reply + "\n")
            out.flush()
            answered += 1
            if self._shutdown:
                break
        return answered

    def serve_stdio(self, stdin: Optional[IO[str]] = None,
                    stdout: Optional[IO[str]] = None) -> int:
        return self.serve_lines(stdin or sys.stdin, stdout or sys.stdout)

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0,
                  ready=None, timeout: Optional[float] = None) -> None:
        """Serve line-delimited JSON over TCP until a ``shutdown`` op.

        ``ready(actual_port)`` is called once the socket is bound —
        tests use it to learn an ephemeral port.  ``timeout`` bounds how
        long one connection may sit idle mid-session (seconds); an idle
        or vanished client is dropped and the server moves on to the
        next connection instead of wedging.
        """
        server_self = self
        conn_timeout = timeout

        class Handler(socketserver.StreamRequestHandler):
            # BaseRequestHandler.setup() applies this to the connection
            # socket, so a silent client cannot hold the server forever.
            timeout = conn_timeout

            def handle(self) -> None:
                reader = (raw.decode("utf-8", "replace")
                          for raw in self.rfile)
                out = _SocketWriter(self.wfile)
                try:
                    server_self.serve_lines(reader, out)
                except (BrokenPipeError, ConnectionResetError,
                        TimeoutError):
                    # The client hung up mid-request (or idled past the
                    # timeout).  Abandon this connection quietly; the
                    # resident network is untouched and the accept loop
                    # continues.
                    perf.counter("serve.disconnects")

        with _ReuseAddrTCPServer((host, port), Handler) as tcp:
            if ready is not None:
                ready(tcp.server_address[1])
            while not self._shutdown:
                tcp.handle_request()


class _ReuseAddrTCPServer(socketserver.TCPServer):
    """TCPServer that sets ``SO_REUSEADDR`` *before* binding.

    ``TCPServer.__init__`` binds in the constructor, so flipping
    ``allow_reuse_address`` on the instance afterwards is a no-op — the
    flag must be a class attribute to take effect, or a restart within
    TIME_WAIT of a previous run fails with ``EADDRINUSE``.
    """

    allow_reuse_address = True

    def handle_error(self, request, client_address) -> None:
        # Abrupt disconnects escaping the handler (e.g. during the
        # response flush in ``finish()``) are routine churn, not server
        # errors — don't spew a traceback for them.
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError,
                            TimeoutError)):
            perf.counter("serve.disconnects")
            return
        super().handle_error(request, client_address)


class _SocketWriter:
    """File-ish text adapter over a binary socket write file."""

    def __init__(self, wfile):
        self.wfile = wfile

    def write(self, text: str) -> None:
        self.wfile.write(text.encode("utf-8"))

    def flush(self) -> None:
        self.wfile.flush()
