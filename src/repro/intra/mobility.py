"""Host mobility and graceful departure (paper Sections 1, 3.1, 6.2).

Mobility is the architectural motivation for routing on flat labels: a
host that moves keeps its identifier, and only routing state changes.
Two mechanisms from the paper:

* **Graceful leave/move** — unlike a failure (detected by timeout and
  repaired with teardown floods), a departing host's gateway router can
  hand the ring position over directly: the predecessor splices to the
  successor with one exchange (:func:`repro.intra.ring.splice_out`, the
  ring repair a host failure performs too), and cached state is left to
  expire via the lazy invariant-(b) teardown.
* **Move = leave + rejoin** — the measured cost the paper compares to
  join overhead ("the overhead triggered by host failure and mobility
  [is] comparable to join overhead").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.idspace.identifier import FlatId
from repro.intra import ring

if TYPE_CHECKING:  # pragma: no cover
    from repro.intra.network import IntraDomainNetwork


@dataclass
class MoveReceipt:
    """Measured cost of one host move."""

    host_name: str
    flat_id: FlatId
    old_router: str
    new_router: str
    leave_messages: int
    rejoin_messages: int


def leave_host(net: "IntraDomainNetwork", host_name: str) -> int:
    """Graceful departure: splice predecessor → successor directly.

    Cheaper than failure recovery: the leaving node *tells* its
    neighbours (no timeout, no invalidation flood — caches expire lazily
    through the NACK teardown).  Returns the message cost.
    """
    vn = net.hosts.get(host_name)
    if vn is None:
        raise KeyError("unknown host {!r}".format(host_name))

    with net.stats.operation("leave", host=host_name) as op:
        if not vn.ephemeral:
            # One goodbye message each way; the goodbye to the predecessor
            # carries the successor list so it can splice without a lookup.
            for ptr in (vn.predecessor, vn.primary_successor()):
                target = net.vn_index.get(ptr.dest_id) if ptr else None
                if target is None or target is vn:
                    continue
                path = net.paths.hop_path(vn.router, target.router)
                if path is not None:
                    net.stats.charge_path(path, "leave")
        ring.splice_out(net, vn, "leave")
        net.hosts.pop(host_name, None)
        net.vn_index.pop(vn.id, None)
        gateway = net.routers[vn.router]
        if gateway.hosts_id(vn.id):
            gateway.remove_virtual_node(vn.id)
        return op["messages"]


def move_host(net: "IntraDomainNetwork", host_name: str,
              new_router: str) -> MoveReceipt:
    """Move a host to a new gateway: graceful leave + rejoin.

    The identifier — and therefore every correspondent's notion of who
    the host *is* — never changes.
    """
    vn = net.hosts.get(host_name)
    if vn is None:
        raise KeyError("unknown host {!r}".format(host_name))
    if not net.lsmap.is_router_up(new_router):
        raise ValueError("target router {} is down".format(new_router))
    old_router = vn.router
    flat_id = vn.id
    ephemeral = vn.ephemeral

    leave_cost = leave_host(net, host_name)
    receipt = ring.join_with_id(net, flat_id, new_router, host_name,
                                ephemeral=ephemeral)
    record = net.host_records.get(host_name)
    if record is not None:
        # Keep the deterministic plan record pointing at the new home.
        from repro.topology.hosts import PlannedHost
        net.host_records[host_name] = PlannedHost(
            name=record.name, attach_at=new_router,
            key_pair=record.key_pair, ephemeral=record.ephemeral)
    return MoveReceipt(host_name=host_name, flat_id=flat_id,
                       old_router=old_router, new_router=new_router,
                       leave_messages=leave_cost,
                       rejoin_messages=receipt.messages)
