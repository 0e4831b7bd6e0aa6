"""Head-to-head — ROFL vs the Disco-style compact-routing baseline,
judged by the obs layer (stretch tail, bound accounting, per-decision
attribution).  Singla et al.'s worst case is provably ≤ 3; ROFL's tail
is unbounded but its mean rides the ring shortcuts."""

from repro.harness import report as R


def test_compare_stretch(run_once):
    result = run_once(R.FIGURES["headtohead"].driver, profile="AS3967",
                      n_hosts=150, n_packets=300, n_ases=40,
                      inter_hosts=100, inter_packets=150, seed=0)
    print(R.render("headtohead", result))

    disco = result["intra"]["disco"]
    rofl = result["intra"]["rofl"]

    # The headline: Disco's worst case respects the provable bound,
    # ROFL's does not have one (and empirically exceeds 3 in the tail).
    assert disco["worst"] <= disco["stretch_bound"] + 1e-9
    assert disco["bound_violations"] == 0
    assert disco["probe_violations"] == []
    assert rofl["stretch_bound"] is None

    # The obs layer is the judge: every packet of both tracing
    # protocols decomposes into rule-tagged segments whose attributed
    # stretch sums exactly to PathResult.stretch.
    for row in (rofl, disco):
        assert row["trace_spans"] == row["sent"]
        assert row["attribution_mismatches"] == 0
        assert row["attribution"]
    assert set(disco["attribution"]) <= {"vicinity.direct",
                                         "vicinity.shortcut",
                                         "landmark.route",
                                         "landmark.descend"}

    # Exhaustive sweep under the live probe: zero breaches.
    sweep = result["disco_all_pairs"]
    assert sweep["undelivered"] == 0
    assert sweep["violations"] == []
    assert sweep["max_stretch"] <= sweep["bound"] + 1e-9

    # Everybody delivered everything on a healthy topology.
    for label, row in result["intra"].items():
        assert row["delivered"] == row["sent"], label

    # Interdomain: Disco's bound holds over the flattened AS graph too.
    inter_disco = result["inter"]["disco"]
    assert inter_disco["worst"] <= inter_disco["stretch_bound"] + 1e-9
    assert inter_disco["bound_violations"] == 0
