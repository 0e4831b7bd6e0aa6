"""A process loads only the modules its command runs (DESIGN.md §4, "The
``Network`` contract"; §10, "Warm start").

Package ``__init__``s import nothing (``repro.snapshot``'s excepted) and a
network kind's module is imported when the kind is first asked for, so the
forwarding kernel does not drag in the report renderer and a warm start
does not compile the other four kinds.  Each case runs in a fresh child
process, as a user's command or a bench child starts, and reads its
``sys.modules``.
"""

import json
import subprocess
import sys

from repro import build_network, snapshot
from tests.conftest import CHILD_ENV

#: What a warm start may load at most, of the 74 modules under src/repro.
WARM_START_MODULES = 40


def _child(program: str, *argv: str):
    """What ``program`` printed last, as JSON, run in a child process
    (``argv`` is its ``sys.argv[1:]``)."""
    done = subprocess.run([sys.executable, "-c", program, *argv],
                          env=CHILD_ENV, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(program: str, *argv: str) -> list:
    """The ``repro`` modules loaded once ``program`` has run."""
    return _child(program + "\nimport json, sys\nprint(json.dumps(sorted("
                  "m for m in sys.modules if m.split('.')[0] == 'repro')))",
                  *argv)


def _offending(loaded, forbidden) -> list:
    return [name for name in loaded
            if any(name == f or name.startswith(f + ".") for f in forbidden)]


def test_the_interdomain_kernel_loads_no_other_kind_or_report():
    loaded = _loaded("import repro.inter.network")
    assert "repro.inter.routing" in loaded
    assert _offending(loaded, (
        "repro.intra.network", "repro.intra.forwarding", "repro.obs.report",
        "repro.obs.probes", "repro.obs.explain", "repro.workload",
        "repro.baselines", "repro.compact")) == []


def test_a_warm_start_loads_its_kind_and_the_codec_alone(tmp_path):
    path, requests = tmp_path / "net.snap", tmp_path / "empty.jsonl"
    snapshot.save(build_network("intra", 0, n_routers=20, hosts=20,
                                name="serve"), str(path))
    requests.write_text("")
    loaded = _loaded(
        "import sys\nfrom repro.__main__ import main\n"
        "assert main(['serve', '--kind', 'intra', '--snapshot', sys.argv[1],"
        " '--requests', sys.argv[2]]) == 0", str(path), str(requests))
    assert "repro.intra.network" in loaded and "repro.snapshot.store" in loaded
    assert _offending(loaded, (
        "repro.inter", "repro.baselines", "repro.compact", "repro.services",
        "repro.harness", "repro.workload.driver", "repro.obs.report",
        "repro.obs.probes", "repro.obs.explain")) == []
    assert len(loaded) <= WARM_START_MODULES, loaded


def test_the_kind_table_names_every_kind_in_order():
    """Each row's class has its key as ``kind``, and once every kind's
    module is imported, every ``Network`` subclass that sets its own
    ``kind`` has a row (a subclass of a kind, e.g. a test double, is not
    a new kind)."""
    table, own = _child(
        "import json\n"
        "from repro.network import KINDS, Network, network_class\n"
        "table = {kind: network_class(kind) for kind in KINDS}\n"
        "def walk(cls):\n"
        "    for sub in cls.__subclasses__():\n"
        "        yield sub\n"
        "        yield from walk(sub)\n"
        "own = {cls.kind: cls for cls in walk(Network) if 'kind' in vars(cls)}\n"
        "print(json.dumps([[[kind, cls.kind, cls is own.get(kind)]\n"
        "                   for kind, cls in table.items()], sorted(own)]))")
    assert [kind for kind, _, _ in table] == [
        "intra", "inter", "cmu", "ospf", "disco"]
    assert all(kind == declared and same for kind, declared, same in table)
    assert own == sorted(kind for kind, _, _ in table)
