"""The interdomain ring-repair tripwire: ``benchmarks/inter_sweep.py``'s
random stub-failure tapes (failures, restores, joins, sends; a ring check
after each, no join lookup mismatch at the end) must end in the state
hashes ``tests/golden_inter_sweep.json`` pins, seed for seed."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "inter_sweep", _ROOT / "benchmarks" / "inter_sweep.py")
inter_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inter_sweep)

GOLDEN = json.loads((_ROOT / "tests" / "golden_inter_sweep.json").read_text())


@pytest.mark.parametrize("seed", sorted(GOLDEN["seeds"], key=int))
def test_seed_ends_in_the_pinned_state(seed):
    log = []
    assert inter_sweep.run_seed(int(seed), log)[:16] == GOLDEN["seeds"][seed], \
        "\n".join(log[-8:])


def test_a_failing_seed_exits_1_with_its_last_operations(monkeypatch, capsys):
    def broken(net):
        raise AssertionError("ring broke")

    monkeypatch.setattr(inter_sweep.InterDomainNetwork, "check_rings", broken)
    assert inter_sweep.main(["--seeds", "0-1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("seed 0 failed after:")
    assert "ring broke" in out
