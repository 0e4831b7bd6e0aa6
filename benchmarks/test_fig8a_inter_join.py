"""Fig 8a — interdomain join overhead by strategy (paper, extrapolated
to 600M IDs: ephemeral ~14, single-homed ~80, multihomed ~100, peering
up to ~445 messages with 340 fingers)."""

from repro.harness import report as R


def test_fig8a_inter_join(run_once):
    result = run_once(R.FIGURES["fig8a"].driver, n_ases=100, n_hosts=500,
                      seed=0, n_fingers=8)
    print(R.render("fig8a", result))
    s = result["strategies"]
    assert s["ephemeral"]["mean"] < s["single-homed"]["mean"]
    assert s["single-homed"]["mean"] <= s["multihomed"]["mean"] * 1.1
    assert s["multihomed"]["mean"] < s["peering"]["mean"]
    # Every distributed lookup agreed with the authoritative rings.
    assert all(d["mismatches"] == 0 for d in s.values())
    # The 600M extrapolation reproduces the paper's ordering and the
    # peering headline (~445 with 340 fingers).
    extrap = result["extrapolation_600M"]
    assert 300 < extrap["peering"] < 700
    assert extrap["ephemeral"] < extrap["single-homed"] <= extrap["multihomed"]
