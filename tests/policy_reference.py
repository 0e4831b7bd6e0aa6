"""The pre-tree valley-free path search, verbatim — never edit it.

Until PR 16 ``PolicyView.policy_path`` ran this early-exit BFS once per
``(src, dst, scope, use_backup)`` miss.  It is now a lookup into one BFS
tree per ``(src, scope, use_backup)``; this is the search the trees must
agree with, path for path and ``None`` for ``None``
(``tests/test_inter_policy.py::TestPathTreeOracle``).  The body below is
the parent commit's ``PolicyView._policy_path_bfs``, dedented; ``self`` is
the :class:`~repro.inter.policy.PolicyView` under test.
"""

from typing import Dict, Hashable, List, Tuple


def _policy_path_bfs(self, src, dst, scope, use_backup):
    if src == dst:
        return (src,)
    allowed = self.subtree(scope) if scope is not None else None
    if allowed is not None and (src not in allowed or dst not in allowed):
        return None
    peer_ok = self._allowed_peer_pairs(scope)
    # Layered BFS over (AS, phase) with phase 0=may-ascend, 1=descending.
    from collections import deque
    start = (src, 0)
    parents: Dict[Tuple, Tuple] = {start: None}
    queue = deque([start])
    while queue:
        asn, phase = queue.popleft()
        steps: List[Tuple[Hashable, int]] = []
        if phase == 0:
            uplinks = list(self.asg.providers(asn))
            if use_backup:
                uplinks += self.asg.backup_providers(asn)
            steps.extend((p, 0) for p in uplinks)
            for peer in self.asg.peers(asn):
                pair = frozenset((asn, peer))
                if peer_ok is None or pair in peer_ok:
                    steps.append((peer, 1))
        for customer in self.asg.customers(asn,
                                           include_backup=use_backup):
            steps.append((customer, 1))
        for nxt, nxt_phase in steps:
            if allowed is not None and nxt not in allowed:
                continue
            state = (nxt, nxt_phase)
            if state in parents:
                continue
            parents[state] = (asn, phase)
            if nxt == dst:
                path = [nxt]
                cur = (asn, phase)
                while cur is not None:
                    path.append(cur[0])
                    cur = parents[cur]
                return tuple(reversed(path))
            queue.append(state)
    return None
