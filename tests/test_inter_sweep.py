"""The ring-repair tripwire across ASes: ``benchmarks/ring_sweep.py``'s
``inter`` stub-failure tapes (failures, restores, joins, sends; a ring
check after each, no join lookup mismatch at the end) must end in the
state hashes ``tests/golden_inter_sweep.json`` pins, seed for seed."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "ring_sweep", _ROOT / "benchmarks" / "ring_sweep.py")
ring_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ring_sweep)

GOLDEN = json.loads((_ROOT / "tests" / "golden_inter_sweep.json").read_text())


@pytest.mark.parametrize("seed", sorted(GOLDEN["seeds"], key=int))
def test_seed_ends_in_the_pinned_state(seed):
    log = []
    digest = ring_sweep.run_seed("inter", int(seed), log)
    assert digest[:16] == GOLDEN["seeds"][seed], "\n".join(log[-8:])


def test_a_failing_seed_exits_1_with_its_last_operations(monkeypatch, capsys):
    checks = []

    def broken(net):        # the check after the build and three operations
        checks.append(net)
        if len(checks) == 4:
            raise AssertionError("ring broke")

    monkeypatch.setattr(ring_sweep.InterDomainNetwork, "check", broken)
    assert ring_sweep.main(["--seeds", "0-1"]) == 1
    intra_0, failed = capsys.readouterr().out.split("\n", 1)
    assert intra_0.startswith("intra 0 ")
    assert failed.startswith("inter seed 0 failed after:")
    assert [line.split()[0] for line in failed.splitlines()[1:4]] == [
        "0", "1", "2"]
    assert "ring broke" in failed
