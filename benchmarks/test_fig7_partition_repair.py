"""Fig 7 — PoP disconnect/reconnect repair overhead vs IDs per PoP
(paper: on the order of rejoining the PoP's hosts; always reconverges)."""

from repro.harness import report as R


def test_fig7_partition_repair(run_once):
    figure = R.FIGURES["fig7"]
    result = run_once(figure.driver, **figure.params(1))
    print(R.render("fig7", result))
    rows = result["series"]
    # Overhead grows with the PoP's population...
    assert rows[-1]["repair_messages"] > rows[0]["repair_messages"]
    # ...and stays within an order of magnitude of the rejoin baseline.
    for row in rows:
        assert row["repair_messages"] < 25 * max(1.0, row["rejoin_baseline"])
