"""Up-/down-hierarchy computation and the isolation-region machinery."""

import pytest

from repro.topology.asgraph import ASGraph
from repro.topology.hierarchy import HierarchyIndex, down_hierarchy


@pytest.fixture()
def diamond():
    """T1 over two T2s over one multihomed stub + one single-homed stub."""
    asg = ASGraph()
    asg.add_as("T1", tier=1)
    asg.add_as("T2a", tier=2)
    asg.add_as("T2b", tier=2)
    asg.add_as("S-multi", tier=3, hosts=10)
    asg.add_as("S-single", tier=3, hosts=4)
    asg.add_as("S-backup", tier=3, hosts=2)
    asg.add_customer_provider("T2a", "T1")
    asg.add_customer_provider("T2b", "T1")
    asg.add_customer_provider("S-multi", "T2a")
    asg.add_customer_provider("S-multi", "T2b")
    asg.add_customer_provider("S-single", "T2a")
    asg.add_customer_provider("S-backup", "T2b")
    asg.add_customer_provider("S-backup", "T2a", backup=True)
    return asg


def test_up_hierarchy_covers_all_provider_paths(diamond):
    """G_X holds X and every AS above it over primary provider links."""
    chain = HierarchyIndex(diamond).up_chain("S-multi")
    assert chain == ["S-multi", "T2a", "T2b", "T1"]


def test_up_hierarchy_excludes_backup_by_default(diamond):
    chain = HierarchyIndex(diamond).up_chain("S-backup")
    assert "T2a" not in chain
    assert chain == ["S-backup", "T2b", "T1"]


def test_up_hierarchy_levels(diamond):
    """Level by provider-hop distance, each level sorted by ``str``: an AS
    reached at two depths sits at the nearer one."""
    diamond.add_as("T0", tier=1)
    diamond.add_as("S-deep", tier=3, hosts=1)
    diamond.add_customer_provider("S-deep", "T2b")
    diamond.add_customer_provider("S-deep", "T1")
    diamond.add_customer_provider("T2b", "T0")
    chain = HierarchyIndex(diamond).up_chain("S-deep")
    assert chain == ["S-deep", "T1", "T2b", "T0"]


def test_down_hierarchy(diamond):
    assert down_hierarchy(diamond, "T2a") == {"T2a", "S-multi", "S-single"}
    assert down_hierarchy(diamond, "T1") == {
        "T1", "T2a", "T2b", "S-multi", "S-single", "S-backup"}


def test_down_hierarchy_backup_exclusion(diamond):
    # S-backup hangs off T2a only through a backup link.
    assert "S-backup" not in down_hierarchy(diamond, "T2a")


def test_subtree_hosts(diamond):
    def hosts_below(asn):
        return sum(diamond.hosts(member)
                   for member in down_hierarchy(diamond, asn))
    assert hosts_below("T2a") == 14
    assert hosts_below("T1") == 16


class TestHierarchyIndex:
    def test_up_chain_starts_at_self(self, diamond):
        idx = HierarchyIndex(diamond)
        chain = idx.up_chain("S-multi")
        assert chain[0] == "S-multi"
        assert set(chain) == {"S-multi", "T2a", "T2b", "T1"}

    def test_in_subtree(self, diamond):
        idx = HierarchyIndex(diamond)
        assert "S-multi" in idx.subtree("T2a")
        assert "S-backup" not in idx.subtree("T2a")

    def test_common_ancestors(self, diamond):
        idx = HierarchyIndex(diamond)
        assert idx.common_ancestors("S-multi", "S-single") == {"T2a", "T1"}

    def test_earliest_common_ancestors(self, diamond):
        idx = HierarchyIndex(diamond)
        assert idx.earliest_common_ancestors("S-multi", "S-single") == {"T2a"}
        assert idx.earliest_common_ancestors("S-single", "S-backup") == {"T1"}

    def test_isolation_region_excludes_unrelated_branch(self, diamond):
        idx = HierarchyIndex(diamond)
        region = idx.isolation_region("S-multi", "S-single")
        assert region == {"T2a", "S-multi", "S-single"}
        # Cross-branch pairs may use the whole tree.
        wide = idx.isolation_region("S-single", "S-backup")
        assert "T1" in wide

    def test_isolation_region_of_same_as(self, diamond):
        idx = HierarchyIndex(diamond)
        assert "S-multi" in idx.isolation_region("S-multi", "S-multi")
