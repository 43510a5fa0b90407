"""Topologies: which links a flow crosses.

The paper's testbed is a single rack: every node hangs off one ToR switch
with a non-blocking backplane, so a flow ``src → dst`` crosses exactly two
links — ``src``'s uplink and ``dst``'s downlink. :class:`StarTopology`
models this, with optional per-node heterogeneous link specs (§6.2
communication heterogeneity).

With ``n_racks > 1`` the same class is a two-level fabric: racks of hosts
under ToR switches joined by a core switch whose rack links are
oversubscribed. Routes stay closed-form: a flow between racks adds its
source rack's uplink and its destination rack's downlink.
"""

from __future__ import annotations

from typing import Mapping

from repro.bounds import COUNT, Bound, check_bounds
from repro.netsim.links import Link, LinkSpec


class StarTopology:
    """ToR star: node *i* has directed links ``up:i`` and ``down:i``.

    Parameters
    ----------
    n_nodes:
        Number of hosts.
    default_spec:
        Link spec used for every link unless overridden.
    overrides:
        Optional map ``node_id -> LinkSpec`` applying to both of that node's
        links (models communication heterogeneity).
    n_racks:
        Number of racks. Host *i* sits in rack ``i % n_racks``, so a worker
        range 0..N−1 plus a PS node N spreads evenly. With more than one
        rack, rack *r* reaches the core through ``up:tor{r}`` and back
        through ``down:tor{r}``.
    oversubscription:
        Each rack link carries the rack's aggregate host bandwidth
        (``default_spec.bandwidth`` × hosts in the rack) divided by this —
        the datacenter cost saving that makes cross-rack traffic expensive.
        Unused with one rack.
    """

    BOUNDS = {"n_nodes": COUNT, "n_racks": COUNT, "oversubscription": Bound(1)}

    def __init__(
        self,
        n_nodes: int,
        default_spec: LinkSpec | None = None,
        overrides: Mapping[int, LinkSpec] | None = None,
        n_racks: int = 1,
        oversubscription: float = 4.0,
    ) -> None:
        self.n_nodes = n_nodes
        self.n_racks = n_racks
        self.oversubscription = oversubscription
        check_bounds(self)
        if n_nodes < n_racks:
            raise ValueError(f"need at least one host per rack ({n_racks})")
        self.default_spec = default_spec or LinkSpec()
        overrides = dict(overrides or {})
        for nid in overrides:
            if not (0 <= nid < n_nodes):
                raise ValueError(f"override for unknown node {nid}")
        self.uplinks: list[Link] = []
        self.downlinks: list[Link] = []
        for i in range(self.n_nodes):
            spec = overrides.get(i, self.default_spec)
            self.uplinks.append(Link(f"up:{i}", spec))
            self.downlinks.append(Link(f"down:{i}", spec))
        self.rack_of = [i % n_racks for i in range(self.n_nodes)]
        self.rack_uplinks: list[Link] = []
        self.rack_downlinks: list[Link] = []
        if n_racks > 1:
            base = self.default_spec
            for rack in range(n_racks):
                spec = LinkSpec(
                    bandwidth=base.bandwidth * self.rack_of.count(rack) / oversubscription,
                    latency=base.latency,
                    loss_rate=base.loss_rate,
                )
                self.rack_uplinks.append(Link(f"up:tor{rack}", spec))
                self.rack_downlinks.append(Link(f"down:tor{rack}", spec))

    @property
    def links(self) -> list[Link]:
        """All links, deterministic order: host uplinks, host downlinks,
        then rack uplinks and rack downlinks."""
        return self.uplinks + self.downlinks + self.rack_uplinks + self.rack_downlinks

    def route(self, src: int, dst: int) -> list[Link]:
        """Links crossed by a flow src→dst (empty for loopback)."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return []  # loopback: co-located PS talks to itself for free
        up, down = self.rack_of[src], self.rack_of[dst]
        if up == down:
            return [self.uplinks[src], self.downlinks[dst]]
        return [
            self.uplinks[src],
            self.rack_uplinks[up],
            self.rack_downlinks[down],
            self.downlinks[dst],
        ]

    def _check(self, nid: int) -> None:
        if not (0 <= nid < self.n_nodes):
            raise ValueError(f"node {nid} out of range [0,{self.n_nodes})")


def route_loss(route) -> float:
    """Combined loss rate of a route: 1 − Π(1 − p_link).

    Uses the links' *effective* loss (spec loss compounded with any active
    fault bursts) at the time of the call, so a flow's loss is sampled when
    it starts.
    """
    keep = 1.0
    for link in route:
        keep *= 1.0 - link.loss_rate
    return 1.0 - keep


__all__ = ["StarTopology", "route_loss"]
