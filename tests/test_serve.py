"""The persistent request-serving mode (``repro.serve``)."""

import io
import json
import socket
import struct
import threading

import pytest

from repro import build_network, snapshot
from repro.serve import ReproServer
from repro.util import perf


@pytest.fixture(scope="module")
def server():
    """One resident intradomain network shared by the read-only tests."""
    return ReproServer(build_network(kind="intra", seed=1, n_routers=20,
                                     hosts=40, name="serve"))


def ok(server, **request):
    response = server.handle(request)
    assert response["ok"], response
    return response


def err(server, **request):
    response = server.handle(request)
    assert not response["ok"], response
    return response["error"]


class TestDispatch:
    def test_ping(self, server):
        assert ok(server, op="ping")["pong"] is True

    def test_id_echoed(self, server):
        assert ok(server, op="ping", id=42)["id"] == 42

    def test_info(self, server):
        info = ok(server, op="info")
        assert info["kind"] == "intra"
        assert info["routers"] == 20
        assert info["hosts"] >= 40
        assert info["rng_streams"] >= 2

    def test_send(self, server):
        result = ok(server, op="send", n=25)
        assert result["sent"] == 25
        assert result["delivered"] == 25
        assert result["mean_stretch"] >= 1.0 or result["mean_stretch"] == 0.0

    def test_route(self, server):
        result = ok(server, op="route", src="h0", dst="h1")
        assert result["delivered"] is True
        assert result["hops"] == len(result["path"]) - 1
        assert result["stretch"] >= 0.0

    def test_route_unknown_host(self, server):
        assert "unknown host" in err(server, op="route", src="h0",
                                     dst="nope")

    def test_state_hash_and_verify(self, server):
        digest = ok(server, op="state_hash")["state_hash"]
        assert digest == snapshot.state_hash(server.net)
        verdict = ok(server, op="verify")
        assert verdict["clean"] is True and verdict["violations"] == []

    def test_metrics_include_request_latency(self, server):
        ok(server, op="ping")
        metrics = ok(server, op="metrics")
        # One record per request: the latency histogram, no timer.
        assert metrics["perf"]["histograms"]["serve.latency.ping"][
            "count"] >= 1
        assert not any(name.startswith("serve.")
                       for name in metrics["perf"]["timers"])
        assert "messages_total" in metrics["stats"] or metrics["stats"]

    def test_metrics_latency_percentiles(self, server):
        ok(server, op="ping")
        latency = ok(server, op="metrics")["latency"]
        assert "ping" in latency
        row = latency["ping"]
        assert row["count"] >= 1
        assert 0 <= row["p50"] <= row["p95"] <= row["p99"] <= row["max"]

    def test_metrics_text_is_an_unknown_op(self, server):
        """The Prometheus op is retired (``metrics`` returns the same
        registry as JSON): asking for it is the ordinary structured
        unknown-op error and leaves the resident network as it was."""
        before = ok(server, op="state_hash")["state_hash"]
        reply = server.handle({"op": "metrics_text", "id": 3})
        assert reply["ok"] is False and reply["id"] == 3
        assert reply["error"].startswith("unknown op 'metrics_text'")
        assert "metrics," in reply["error"]
        assert ok(server, op="state_hash")["state_hash"] == before

    def test_unknown_op_lists_choices(self, server):
        message = err(server, op="frobnicate")
        assert "unknown op" in message and "ping" in message

    def test_malformed_request_shapes(self, server):
        assert not server.handle(["not", "a", "dict"])["ok"]
        assert not server.handle({})["ok"]
        assert not server.handle({"op": 7})["ok"]

    def test_bad_params_do_not_kill_server(self, server):
        assert "n must be" in err(server, op="send", n=0)
        assert "n must be" in err(server, op="join", n=-1)
        assert ok(server, op="ping")["pong"] is True

    @pytest.mark.parametrize("op", ["send", "join"])
    @pytest.mark.parametrize("n", [True, 1.5, "3", None, [1], 0],
                             ids=["true", "1.5", "str3", "null", "list", "0"])
    def test_n_is_a_positive_int_and_nothing_coerced_into_one(self, server,
                                                               op, n):
        """``true`` once sent one packet, ``1.5`` joined one host and
        ``"3"`` sent three: ``n`` is refused unless it is an ``int`` (not a
        ``bool``) of at least 1, and the refusal leaves the network as it
        was."""
        before = ok(server, op="state_hash")["state_hash"]
        error = err(server, op=op, n=n)
        assert error.startswith("ServeError: n must be an integer >= 1"), error
        assert ok(server, op="state_hash")["state_hash"] == before


class TestMutatingOps:
    def test_join_leave_cycle(self):
        server = ReproServer(build_network(kind="intra", seed=2, n_routers=16,
                                           hosts=10, name="serve"))
        joined = ok(server, op="join", n=5)
        assert joined["joined"] == 5 and joined["total_hosts"] == 15
        left = ok(server, op="leave", host=joined["hosts"][0])
        assert left["total_hosts"] == 14 and left["messages"] >= 0
        server.net.check()

    def test_leave_needs_intra(self):
        server = ReproServer(build_network(kind="inter", seed=2, n_ases=20,
                                           hosts=10, name="serve"))
        name = ok(server, op="join", n=1)["hosts"][0]
        error = err(server, op="leave", host=name)
        assert error == "Unsupported: 'inter' networks do not support " \
                        "leave_host"
        assert name in server.net.hosts

    @pytest.mark.parametrize("kind", ["cmu", "ospf", "disco"])
    def test_baseline_kinds_serve_under_their_own_name(self, kind):
        """``info`` reports the resident kind and its own counts (any
        non-intra class used to answer "inter"); ``leave`` works where the
        kind has a leave protocol and is refused by name where not."""
        server = ReproServer(build_network(kind=kind, seed=2, n_routers=16,
                                           hosts=10, name="serve"))
        info = ok(server, op="info")
        assert info["kind"] == kind and info["hosts"] == 10
        assert info["routers"] == 16 and info["topology"] == "serve"
        joined = ok(server, op="join", n=3)
        assert joined["hosts"] == ["h10", "h11", "h12"]
        assert ok(server, op="send", n=20)["delivered"] == 20
        assert ok(server, op="route", src="h0", dst="h12")["delivered"]
        assert len(ok(server, op="state_hash")["state_hash"]) == 64
        if kind == "disco":
            assert ok(server, op="leave", host="h11")["total_hosts"] == 12
        else:
            assert "{!r} networks do not support leave_host".format(kind) \
                in err(server, op="leave", host="h11")

    def test_send_mean_stretch_leaves_same_router_deliveries_out(self):
        """Two of three hosts share a router: a delivery between them has
        ``optimal_hops == 0`` and no stretch ratio (``PathResult.stretch``
        says 0.0 and that aggregators filter it).  ``send`` averaged it
        in, so its mean read below 1 where the recorder, the figures and
        the quickstart read the same packets at ≥ 1."""
        def three_hosts():
            net = build_network(kind="intra", seed=3, n_routers=16,
                                name="serve")
            first = net.next_planned_host()
            net.join_host(first)
            net.join_host(net.next_planned_host(), via_router=first.attach_at)
            far = net.next_planned_host()
            while far.attach_at == first.attach_at:
                far = net.next_planned_host()
            net.join_host(far)
            return net
        twin = three_hosts()
        results = [twin.send(*twin.random_host_pair()) for _ in range(60)]
        stretches = [r.stretch for r in results if r.optimal_hops > 0]
        assert 0 < len(stretches) < 60 == sum(r.delivered for r in results)
        reply = ok(ReproServer(three_hosts()), op="send", n=60)
        assert reply["delivered"] == 60
        assert reply["mean_stretch"] == round(
            sum(stretches) / len(stretches), 4) >= 1.0

    def test_save_then_warm_start_equivalence(self, tmp_path):
        server = ReproServer(build_network(kind="intra", seed=4, n_routers=16,
                                           hosts=20, name="serve"))
        path = str(tmp_path / "resident.snap")
        saved = ok(server, op="save", path=path)
        assert saved["state_hash"] == snapshot.describe(path)["state_hash"]
        twin = ReproServer(snapshot.load(path, verify=True))
        assert (ok(server, op="send", n=10) == {
            k: v for k, v in ok(twin, op="send", n=10).items()})

    def test_workload_runs_on_resident_network(self):
        server = ReproServer(build_network(kind="intra", seed=0, n_routers=40,
                                           hosts=0, name="serve"))
        result = ok(server, op="workload", scenario="steady-churn")
        assert result["scenario"] == "steady-churn"
        assert result["totals"]["joins"] > 0
        assert server.net.n_hosts > 0      # the resident network mutated

    def test_workload_kind_mismatch(self, server):
        assert "resident network" in err(server, op="workload",
                                         scenario="depeering")

    def test_workload_needs_scenario(self, server):
        assert "scenario" in err(server, op="workload")

    @pytest.mark.parametrize("seed", ["5", 5.7, True, None, [5]],
                             ids=["str5", "5.7", "true", "null", "list"])
    def test_workload_seed_is_an_int_and_nothing_coerced_into_one(
            self, server, seed):
        """``int()`` turned ``"5"``, ``5.7`` and ``true`` into seeds and
        ran the scenario; ``null`` and a list escaped as a raw
        ``TypeError``.  Each is refused by the rule ``n`` follows, naming
        ``seed``, and the resident network is left as it was."""
        before = ok(server, op="state_hash")["state_hash"]
        error = err(server, op="workload", scenario="steady-churn", seed=seed)
        assert error == "ServeError: seed must be an integer, got {}".format(
            json.dumps(seed))
        assert ok(server, op="state_hash")["state_hash"] == before

    def test_workload_int_seed_still_reseeds_the_builtin(self):
        server = ReproServer(build_network(kind="intra", seed=0, n_routers=40,
                                           hosts=0, name="serve"))
        result = ok(server, op="workload", scenario="steady-churn", seed=3)
        assert result["scenario"] == "steady-churn"
        assert result["totals"]["joins"] > 0

    def test_workload_naming_an_unknown_link_leaves_the_network_alone(
            self, server):
        before = ok(server, op="state_hash")["state_hash"]
        scenario = {
            "name": "bad", "duration": 2.0, "warmup_hosts": 5,
            "network": {"kind": "intra", "n_routers": 20},
            "phases": [{"name": "p", "start": 0.0, "end": 2.0,
                        "churn": {"arrival_rate": 2.0}}],
            "faults": [{"kind": "link_cut", "at": 0.5,
                        "links": [["r0", "nope"]]}]}
        assert "ScenarioError: fault 'link_cut' at 0.5: unknown link" in err(
            server, op="workload", scenario=scenario)
        assert ok(server, op="state_hash")["state_hash"] == before

    def test_a_workload_setting_a_field_its_kind_does_not_read_is_refused(
            self, server):
        """As ``repro workload FILE`` refuses it; it ran as if unset."""
        before = ok(server, op="state_hash")["state_hash"]
        scenario = {"name": "bad", "duration": 2.0,
                    "network": {"kind": "intra", "n_routers": 20,
                                "n_fingers": 16}}
        assert err(server, op="workload", scenario=scenario) == (
            "ScenarioError: network.n_fingers: 'intra' networks do not "
            "read it, got 16")
        assert ok(server, op="state_hash")["state_hash"] == before

    @pytest.mark.parametrize("key, value, named", [
        ("seed", "abc", "seed"), ("duration", float("inf"), "duration"),
        ("sample_intervall", 1, "sample_intervall"),
        ("faults", [{"kind": "link_cut", "at": 0.5, "restor_after": 1}],
         "restor_after")],
        ids=["wrong-type", "infinity", "misspelt-key", "misspelt-parameter"])
    def test_a_malformed_workload_is_refused_with_the_parser_s_message(
            self, server, key, value, named):
        """``ok: false`` carrying what ``repro workload FILE`` prints, the
        resident network untouched (``Infinity`` used to hang it)."""
        from repro.workload.scenario import Scenario, ScenarioError
        before = ok(server, op="state_hash")["state_hash"]
        scenario = {"name": "bad", "duration": 2.0, key: value,
                    "network": {"kind": "intra", "n_routers": 20}}
        with pytest.raises(ScenarioError) as refusal:
            Scenario.from_dict(scenario)
        assert named in str(refusal.value)
        assert err(server, op="workload", scenario=scenario) == \
            "ScenarioError: {}".format(refusal.value)
        assert ok(server, op="state_hash")["state_hash"] == before


class TestLineProtocol:
    def test_twenty_request_session(self):
        server = ReproServer(build_network(kind="intra", seed=5, n_routers=16,
                                           hosts=30, name="serve"))
        requests = [{"op": "ping", "id": i} for i in range(10)]
        requests += [{"op": "send", "n": 2, "id": 10 + i} for i in range(9)]
        requests.append({"op": "shutdown", "id": 19})
        stdin = io.StringIO(
            "\n".join(json.dumps(r) for r in requests) + "\n")
        stdout = io.StringIO()
        answered = server.serve_stdio(stdin, stdout)
        lines = stdout.getvalue().splitlines()
        assert answered == 20 and len(lines) == 20
        for i, line in enumerate(lines):
            response = json.loads(line)
            assert response["ok"] and response["id"] == i

    def test_blank_lines_and_garbage_tolerated(self, server):
        out = io.StringIO()
        server.serve_lines(["", "   ", "not json", '{"op": "ping"}'], out)
        lines = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [r["ok"] for r in lines] == [False, True]

    def test_deeply_nested_line_is_a_structured_error(self, server):
        # json.loads raises RecursionError, not JSONDecodeError, here.
        before = ok(server, op="state_hash")["state_hash"]
        out = io.StringIO()
        answered = server.serve_lines(["[" * 100000, '{"op": "ping"}'], out)
        bad, pong = [json.loads(l) for l in out.getvalue().splitlines()]
        assert answered == 2
        assert bad["ok"] is False and bad["op"] is None
        assert bad["error"].startswith("bad JSON: ")
        assert pong["ok"] and pong["pong"] is True
        assert ok(server, op="state_hash")["state_hash"] == before

    def test_shutdown_stops_the_loop(self, server):
        out = io.StringIO()
        answered = server.serve_lines(
            ['{"op": "shutdown"}', '{"op": "ping"}'], out)
        assert answered == 1
        server._shutdown = False           # shared fixture: re-arm

    def test_tcp_transport(self):
        server = ReproServer(build_network(kind="intra", seed=6, n_routers=16,
                                           hosts=20, name="serve"))
        port_box = []
        ready = threading.Event()

        def run():
            server.serve_tcp(port=0, ready=lambda p: (port_box.append(p),
                                                      ready.set()))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10)
        with socket.create_connection(("127.0.0.1", port_box[0]),
                                      timeout=10) as sock:
            fh = sock.makefile("rw", encoding="utf-8")
            for request in ({"op": "ping"}, {"op": "info"},
                            {"op": "send", "n": 3}, {"op": "shutdown"}):
                fh.write(json.dumps(request) + "\n")
                fh.flush()
                response = json.loads(fh.readline())
                assert response["ok"], response
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestSustainedLoad:
    def test_thousand_sends_against_resident_2k_network(self):
        """Acceptance: >=1000 route/send requests against a resident
        2k-host network, every one delivered and timed."""
        server = ReproServer(build_network(kind="intra", seed=0, n_routers=40,
                                           hosts=2000, name="serve"))
        perf.reset()
        delivered = 0
        for i in range(1000):
            delivered += ok(server, op="send", n=1, id=i)["delivered"]
        assert delivered == 1000
        latency = perf.snapshot()["histograms"]["serve.latency.send"]
        assert latency["count"] == 1000


class TestTcpHardening:
    @staticmethod
    def _start_tcp(server, port=0, timeout=None):
        port_box, ready = [], threading.Event()
        thread = threading.Thread(
            target=lambda: server.serve_tcp(
                port=port, timeout=timeout,
                ready=lambda p: (port_box.append(p), ready.set())),
            daemon=True)
        thread.start()
        assert ready.wait(10)
        return thread, port_box[0]

    @staticmethod
    def _rpc(port, *requests):
        """One connection, N request/response lines, then a clean close.

        Closing the makefile handle matters: it holds a dup of the
        socket fd, and the single-threaded server would stay blocked on
        a connection whose handle merely went out of scope.
        """
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            fh = s.makefile("rw", encoding="utf-8")
            try:
                replies = []
                for request in requests:
                    fh.write(request + "\n")
                    fh.flush()
                    replies.append(json.loads(fh.readline()))
                return replies
            finally:
                fh.close()

    @classmethod
    def _shutdown(cls, port):
        assert cls._rpc(port, '{"op": "shutdown"}')[0]["ok"]

    def test_reuse_addr_is_set_before_bind(self):
        from repro.serve import _ReuseAddrTCPServer
        # The class attribute is what TCPServer.__init__ consults before
        # it binds; an instance attribute set afterwards never could.
        assert _ReuseAddrTCPServer.allow_reuse_address is True
        server = _ReuseAddrTCPServer(("127.0.0.1", 0), None,
                                     bind_and_activate=True)
        try:
            assert server.socket.getsockopt(socket.SOL_SOCKET,
                                            socket.SO_REUSEADDR) != 0
        finally:
            server.server_close()

    def test_bind_twice_regression(self):
        """A restart must be able to rebind the port a previous server
        (with live TIME_WAIT connections) just released."""
        first = ReproServer(build_network(kind="intra", seed=6, n_routers=16,
                                          hosts=10, name="serve"))
        thread, port = self._start_tcp(first)
        self._shutdown(port)
        thread.join(timeout=10)
        assert not thread.is_alive()

        second = ReproServer(build_network(kind="intra", seed=6, n_routers=16,
                                           hosts=10, name="serve"))
        thread, port_again = self._start_tcp(second, port=port)
        assert port_again == port
        self._shutdown(port)
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_survives_mid_request_hangup(self):
        server = ReproServer(build_network(kind="intra", seed=6, n_routers=16,
                                           hosts=10, name="serve"))
        thread, port = self._start_tcp(server)
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.sendall(b'{"op": "ping"}\n')
        buf = b""
        while not buf.endswith(b"\n"):
            buf += sock.recv(4096)
        assert json.loads(buf)["ok"]
        # Half a request, then an abrupt RST instead of a newline.
        # (No makefile() here: its dup'd fd would keep the connection
        # alive past close() and the RST would never go out.)
        sock.sendall(b'{"op": "se')
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()
        # The server must shrug and answer the next connection.
        assert self._rpc(port, '{"op": "ping"}')[0]["ok"]
        self._shutdown(port)
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_idle_connection_times_out(self):
        server = ReproServer(build_network(kind="intra", seed=6, n_routers=16,
                                           hosts=10, name="serve"))
        thread, port = self._start_tcp(server, timeout=0.3)
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.settimeout(10)
            # Say nothing; the server must hang up on us, not wedge.
            assert s.recv(4096) == b""
        assert self._rpc(port, '{"op": "ping"}')[0]["ok"]
        self._shutdown(port)
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestTransportEquivalence:
    SCRIPT = ['{"op": "ping", "id": 1}',
              '{"op": "join", "n": 5, "id": 2}',
              '{"op": "send", "n": 10, "id": 3}',
              '{"op": "route", "src": "h0", "dst": "h3", "id": 4}',
              '{"op": "state_hash", "id": 5}',
              '{"op": "shutdown", "id": 6}']

    @staticmethod
    def _fresh():
        return ReproServer(build_network(kind="intra", seed=9, n_routers=16,
                                         hosts=20, name="serve"))

    def test_stdio_and_tcp_tapes_are_byte_identical(self):
        stdio_out = io.StringIO()
        self._fresh().serve_lines(self.SCRIPT, stdio_out)

        tcp_server = self._fresh()
        thread, port = TestTcpHardening._start_tcp(tcp_server)
        tape = []
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            fh = s.makefile("rw", encoding="utf-8")
            for line in self.SCRIPT:
                fh.write(line + "\n")
                fh.flush()
                tape.append(fh.readline())
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert "".join(tape) == stdio_out.getvalue()
