"""Landmark election and vicinity construction (Thorup–Zwick flavoured).

The Disco-style plane needs exactly two pieces of precomputed structure
over the physical graph:

* a set of **landmarks** — ``~sqrt(R)`` routers sampled deterministically
  from the seeded RNG registry (every router learns a route to every
  landmark when the landmarks flood their election);
* per-router **vicinities** — the Thorup–Zwick ball
  ``ball(v) = { w : d(v, w) < d(v, L(v)) }`` where ``L(v)`` is ``v``'s
  nearest landmark: each router keeps shortest routes to exactly the
  routers that are closer to it than its own landmark.

Both are pure functions of (topology, seed), so two networks built from
the same seed elect the same landmarks and agree on every ball — the
property the deterministic-replay contract of the rest of the repo
relies on.

The stretch-3 guarantee rests on two facts proved here once and probed
live by :class:`repro.obs.probes.StretchBoundProbe`:

* **ball closure** — shortest paths *into* a ball stay inside it: if
  ``x`` lies on a shortest path from ``v`` to ``w ∈ ball(v)`` then
  ``d(v, x) < d(v, w) < radius(v)``, so ``x ∈ ball(v)`` too; vicinity
  advertisements therefore cost one message per ball member (a spanning
  tree of the ball rooted at its centre);
* **radius bound** — for any source ``s ∉ ball(t)`` we have
  ``d(t, L(t)) ≤ d(s, t)``, which caps the landmark detour
  ``d(s, L(t)) + d(L(t), t) ≤ d(s, t) + 2·d(t, L(t)) ≤ 3·d(s, t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.linkstate.spf import PathCache


@dataclass
class LandmarkPlan:
    """The elected landmarks plus every router's ball, radius and home.

    ``radius[v]`` is the hop distance from ``v`` to its nearest landmark
    ``home[v]`` (ties broken by landmark name, so the plan is a pure
    function of the topology and the election).  A landmark's own radius
    is 0 and its ball is empty — routing *to* a host at a landmark goes
    straight through the landmark leg with stretch 1.
    """

    landmarks: List[str]
    home: Dict[str, str] = field(default_factory=dict)
    radius: Dict[str, int] = field(default_factory=dict)
    ball: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def n_landmarks(self) -> int:
        return len(self.landmarks)

    def ball_size(self, router: str) -> int:
        return len(self.ball[router])


def landmark_count(n_routers: int, factor: float = 1.0) -> int:
    """``ceil(factor · sqrt(R))`` clamped to ``[1, R]`` — the
    Thorup–Zwick sweet spot where both the landmark table and the
    expected ball size are ``O(sqrt(R))`` entries."""
    if n_routers <= 0:
        raise ValueError("need at least one router")
    return max(1, min(n_routers, math.ceil(factor * math.sqrt(n_routers))))


def elect_landmarks(routers: List[str], rng, factor: float = 1.0) -> List[str]:
    """Sample the landmark set deterministically from ``rng``.

    The candidate list is sorted first so the election depends only on
    the RNG stream and the *set* of routers, never on dict/list order.
    """
    ordered = sorted(routers)
    k = landmark_count(len(ordered), factor)
    return sorted(rng.sample(ordered, k))


def build_plan(paths: PathCache, routers: List[str],
               landmarks: List[str]) -> LandmarkPlan:
    """Compute every router's nearest landmark, radius and ball.

    ``paths`` must cover a connected live graph (construction time);
    distances are hop counts, the same metric every stretch denominator
    in the repo uses.
    """
    plan = LandmarkPlan(landmarks=list(landmarks))
    ordered = sorted(routers)
    for router in ordered:
        best_dist, best_landmark = None, None
        for landmark in landmarks:
            dist = paths.hop_dist(router, landmark)
            if dist is None:
                continue
            if best_dist is None or (dist, landmark) < (best_dist,
                                                        best_landmark):
                best_dist, best_landmark = dist, landmark
        if best_landmark is None:
            raise ValueError(
                "router {!r} cannot reach any landmark".format(router))
        plan.home[router] = best_landmark
        plan.radius[router] = best_dist
        plan.ball[router] = set()
    for router in ordered:
        radius = plan.radius[router]
        if radius == 0:
            continue
        ball = plan.ball[router]
        for other in ordered:
            if other == router:
                continue
            dist = paths.hop_dist(router, other)
            if dist is not None and dist < radius:
                ball.add(other)
    return plan
