"""Reference implementations the production network core is tested against.

:func:`reference_fair_rates` — max–min progressive filling as a plain link
scan, the oracle the heap-driven ``repro.netsim.fair_rates`` must match bit
for bit. Each round scans every loaded link for the smallest per-flow
share, freezes that link's flows at it and subtracts their consumption
from all their links. O(L²·F) worst case.

:class:`PerEventNetwork` — the scheduler without its host-time shortcuts:
one solve of the whole fabric per flow start/finish. An independent witness
that rerate coalescing and solving only the touched link-component change no
virtual time.

:func:`near_by_popping` — a cohort's near-members read by popping its key
heap in order and pushing the popped entries back: the oracle the in-place
heap walk of ``_Cohort.near`` must match.

:func:`route_latency`, :func:`bulk_time` and :func:`link_utilization` — the
closed forms the tests expect a lone flow and a link's busy time to meet.
"""

from heapq import heappop, heappush

from repro.netsim import Network
from repro.netsim.network import _BYTE_EPS
from repro.netsim.topology import route_loss

_EPS = 1e-12


class PerEventNetwork(Network):
    """Rerates inside every ``transfer()``, and every loaded link is touched
    at every flow event: each rerate solves the whole fabric."""

    def _schedule_rerate(self):
        self._rerate()

    def _rerate(self):
        self._touch_all()
        super()._rerate()


def reference_fair_rates(flow_routes, capacities):
    """``flow_id -> rate``; loopback (empty-route) flows get ``inf``."""
    for link, cap in capacities.items():
        if cap <= 0:
            raise ValueError(f"link {link!r} has non-positive capacity {cap}")
    rates = {}
    unfrozen = {}
    for fid, route in flow_routes.items():
        for link in route:
            if link not in capacities:
                raise ValueError(f"flow {fid!r} crosses unknown link {link!r}")
        if route:
            unfrozen[fid] = tuple(route)
        else:
            rates[fid] = float("inf")
    remaining = dict(capacities)
    link_flows = {}
    for fid, route in unfrozen.items():
        for link in set(route):
            link_flows.setdefault(link, set()).add(fid)

    def freeze_link(link, share):
        for fid in sorted(link_flows[link], key=lambda f: (type(f).__name__, str(f))):
            rates[fid] = share
            for l in set(unfrozen[fid]):
                remaining[l] = max(0.0, remaining[l] - share)
                link_flows[l].discard(fid)
            del unfrozen[fid]

    while unfrozen:
        bottleneck = None
        best_share = float("inf")
        for link, flows in link_flows.items():
            if not flows:
                continue
            share = remaining[link] / len(flows)
            if share < best_share - _EPS:
                best_share = share
                bottleneck = link
        freeze_link(bottleneck, best_share)
        # A loaded link the clamp drove to zero would freeze its flows at
        # rate 0 next round; they tied with the bottleneck within _EPS, so
        # freeze them at the same share.
        while True:
            zeroed = [l for l, fl in link_flows.items() if fl and remaining[l] <= 0.0]
            if not zeroed:
                break
            for link in zeroed:
                freeze_link(link, best_share)
    return rates


def near_by_popping(cohort, bound: float) -> list:
    """The members of ``cohort`` whose key is at most ``bound`` plus the
    slack, synced, in key order: the heap is popped up to the first live
    entry past the bound (stale entries met on the way are dropped), then
    the live ones popped are pushed back."""
    heap = cohort.heap
    limit = bound + _BYTE_EPS
    cum = cohort.cum[-1]
    n_steps = len(cohort.steps)
    rate = cohort.rate
    found = []
    while heap:
        key, _fid, flow = heap[0]
        if flow.cohort is not cohort:
            heappop(heap)
            continue
        if key > limit + (abs(key) + cum) * 1e-10:
            break
        found.append(heappop(heap))
    for entry in found:
        heappush(heap, entry)
    flows = []
    for _key, _fid, flow in found:
        if flow.base != n_steps or flow.rate != rate:
            cohort.sync(flow)
        flows.append(flow)
    return flows


def route_latency(topology, src: int, dst: int) -> float:
    """One-way latency of the route ``src`` → ``dst`` in seconds."""
    return sum(l.spec.latency for l in topology.route(src, dst))


def bulk_time(net: Network, src: int, dst: int, size: float) -> float:
    """Analytic duration of a *lone* transfer (no contention)."""
    route = net.topology.route(src, dst)
    latency = route_latency(net.topology, src, dst)
    if not route or size <= 0:
        return latency
    loss = route_loss(route)
    bottleneck = min(l.bandwidth for l in route)
    return size * (1.0 + loss) / bottleneck + latency


def link_utilization(net: Network, name: str) -> float:
    """Average utilisation of link ``name`` since t=0."""
    (link,) = [l for l in net.topology.links if l.name == name]
    return link.utilization(net.env.now)
