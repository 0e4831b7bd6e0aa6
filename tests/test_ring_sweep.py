"""The ring-repair tripwire on one ISP: ``benchmarks/ring_sweep.py``'s
``intra`` fault tapes (cuts, restores, crashes, PoP cycles, host failures,
leaves, joins, sends; a ring check after each) must end in the state
hashes ``tests/golden_ring_sweep.json`` pins, seed for seed."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "ring_sweep", _ROOT / "benchmarks" / "ring_sweep.py")
ring_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ring_sweep)

GOLDEN = json.loads((_ROOT / "tests" / "golden_ring_sweep.json").read_text())


@pytest.mark.parametrize("seed", sorted(GOLDEN["seeds"], key=int))
def test_seed_ends_in_the_pinned_state(seed):
    log = []
    digest = ring_sweep.run_seed("intra", int(seed), log)
    assert digest[:16] == GOLDEN["seeds"][seed], "\n".join(log[-8:])


def test_seeds_parse_as_an_inclusive_range():
    assert list(ring_sweep.parse_seeds("3-5")) == [3, 4, 5]
    assert list(ring_sweep.parse_seeds("7")) == [7]


def test_a_failing_seed_exits_1_with_its_last_operations(monkeypatch, capsys):
    checks = []

    def broken(net):        # the check after the build and three operations
        checks.append(net)
        if len(checks) == 4:
            raise AssertionError("ring broke")

    # The sweep's row check, not ``IntraDomainNetwork.check``: a PoP cycle
    # calls that itself, inside the operation.
    monkeypatch.setitem(ring_sweep.KINDS, "intra",
                        ring_sweep.KINDS["intra"]._replace(check=broken))
    assert ring_sweep.main(["--seeds", "0-1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("intra seed 0 failed after:")
    assert [line.split()[0] for line in out.splitlines()[1:4]] == [
        "0", "1", "2"]
    assert "ring broke" in out
