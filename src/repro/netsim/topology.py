"""Topologies: which links a flow crosses.

The paper's testbed is a single rack: every node hangs off one ToR switch
with a non-blocking backplane, so a flow ``src → dst`` crosses exactly two
links — ``src``'s uplink and ``dst``'s downlink. :class:`StarTopology`
models this, with optional per-node heterogeneous link specs (§6.2
communication heterogeneity).

For generality (multi-rack studies), :class:`GraphTopology` routes over an
arbitrary ``networkx`` digraph by shortest path. ``networkx`` is imported
only by the code that builds or routes over such a graph, so a run on a
:class:`StarTopology` never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.netsim.links import Link, LinkSpec

if TYPE_CHECKING:
    import networkx as nx

#: Pseudo-node id for the switch in :class:`GraphTopology` graphs.
SWITCH = "switch"


class StarTopology:
    """Single-switch rack: node *i* has directed links ``up:i`` and ``down:i``.

    Parameters
    ----------
    n_nodes:
        Number of hosts.
    default_spec:
        Link spec used for every link unless overridden.
    overrides:
        Optional map ``node_id -> LinkSpec`` applying to both of that node's
        links (models communication heterogeneity).
    """

    def __init__(
        self,
        n_nodes: int,
        default_spec: LinkSpec | None = None,
        overrides: Mapping[int, LinkSpec] | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)
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

    @property
    def links(self) -> list[Link]:
        """All links (uplinks then downlinks), deterministic order."""
        return self.uplinks + self.downlinks

    def route(self, src: int, dst: int) -> list[Link]:
        """Links crossed by a flow src→dst (empty for loopback)."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return []  # loopback: co-located PS talks to itself for free
        return [self.uplinks[src], self.downlinks[dst]]

    def route_latency(self, src: int, dst: int) -> float:
        """One-way latency of the route in seconds."""
        return sum(l.spec.latency for l in self.route(src, dst))

    def route_loss(self, src: int, dst: int) -> float:
        """Combined loss rate of the route: 1 − Π(1 − p_link).

        Uses the links' *effective* loss (spec loss compounded with any
        active fault bursts), sampled at flow-start time.
        """
        keep = 1.0
        for l in self.route(src, dst):
            keep *= 1.0 - l.loss_rate
        return 1.0 - keep

    def _check(self, nid: int) -> None:
        if not (0 <= nid < self.n_nodes):
            raise ValueError(f"node {nid} out of range [0,{self.n_nodes})")


def make_multirack_topology(
    n_nodes: int,
    n_racks: int,
    default_spec: LinkSpec | None = None,
    oversubscription: float = 4.0,
) -> "GraphTopology":
    """Multi-rack fat-tree-lite: racks of hosts under ToR switches joined
    by a core switch whose rack uplinks are oversubscribed.

    Hosts are numbered round-robin across racks (host *i* sits in rack
    ``i % n_racks``), so a worker range 0..N−1 plus a PS node N spreads
    evenly. Each ToR↔core link carries the rack's aggregate bandwidth
    divided by ``oversubscription`` — the classic datacenter cost saving
    that makes cross-rack training traffic expensive.
    """
    if n_racks < 1:
        raise ValueError(f"n_racks must be >= 1, got {n_racks}")
    if n_nodes < n_racks:
        raise ValueError(f"need at least one host per rack ({n_racks})")
    if oversubscription < 1.0:
        raise ValueError(f"oversubscription must be >= 1, got {oversubscription}")
    import networkx as nx

    spec = default_spec or LinkSpec()
    g = nx.DiGraph()
    hosts_per_rack = [0] * n_racks
    for host in range(n_nodes):
        rack = host % n_racks
        hosts_per_rack[rack] += 1
        tor = f"tor{rack}"
        g.add_edge(host, tor, spec=spec)
        g.add_edge(tor, host, spec=spec)
    for rack in range(n_racks):
        up_bw = spec.bandwidth * hosts_per_rack[rack] / oversubscription
        core_spec = LinkSpec(
            bandwidth=up_bw, latency=spec.latency, loss_rate=spec.loss_rate
        )
        g.add_edge(f"tor{rack}", "core", spec=core_spec)
        g.add_edge("core", f"tor{rack}", spec=core_spec)
    return GraphTopology(g)


class GraphTopology:
    """Arbitrary topology over a ``networkx.DiGraph``.

    Each edge must carry a ``spec`` attribute (:class:`LinkSpec`). Routes are
    shortest paths by hop count (deterministic tie-break via sorted
    neighbours).
    """

    def __init__(self, graph: nx.DiGraph) -> None:
        import networkx as nx

        if not isinstance(graph, nx.DiGraph):
            raise TypeError("GraphTopology requires a networkx.DiGraph")
        self.graph = graph
        self._links: dict[tuple, Link] = {}
        for u, v, data in sorted(graph.edges(data=True), key=lambda e: (str(e[0]), str(e[1]))):
            spec = data.get("spec")
            if not isinstance(spec, LinkSpec):
                raise ValueError(f"edge ({u},{v}) missing LinkSpec 'spec' attribute")
            self._links[(u, v)] = Link(f"{u}->{v}", spec)

    @property
    def links(self) -> list[Link]:
        """All links in deterministic (sorted-edge) order."""
        return list(self._links.values())

    def route(self, src, dst) -> list[Link]:
        """Links along the shortest src→dst path."""
        if src == dst:
            return []
        import networkx as nx

        try:
            path: Sequence = nx.shortest_path(self.graph, src, dst)
        except nx.NetworkXNoPath as exc:
            raise ValueError(f"no route {src} -> {dst}") from exc
        return [self._links[(path[i], path[i + 1])] for i in range(len(path) - 1)]

    def route_latency(self, src, dst) -> float:
        """One-way latency of the route in seconds."""
        return sum(l.spec.latency for l in self.route(src, dst))

    def route_loss(self, src, dst) -> float:
        """Combined route loss rate (effective, fault-aware)."""
        keep = 1.0
        for l in self.route(src, dst):
            keep *= 1.0 - l.loss_rate
        return 1.0 - keep


__all__ = ["GraphTopology", "StarTopology", "SWITCH", "make_multirack_topology"]
