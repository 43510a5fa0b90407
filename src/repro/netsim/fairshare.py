"""Max–min fair rate allocation by progressive filling.

Pure functions so they can be property-tested in isolation. Given flows
(each a set of links it crosses) and link capacities, compute each flow's
rate such that:

1. no link's capacity is exceeded,
2. every flow is *bottlenecked*: its rate cannot be increased without
   decreasing the rate of another flow with an equal-or-smaller rate.

:func:`fair_rates` is progressive filling — repeatedly find the link with
the smallest per-flow fair share among its unfrozen flows, freeze those
flows at that share, subtract their consumption from all their links —
driven by a lazily-invalidated min-heap over per-link shares, so each
round costs O(touched links · log L) instead of a full O(L) rescan. On
the star topologies the trainer uses (every route = one worker edge + one
PS trunk edge) a flow dirties at most two links when it freezes, giving
O(F log F) overall.

A round whose bottleneck link carries every still-unfrozen flow is the
*last* round: they all freeze at its share and nothing is read again, so it
skips the subtraction, load and dirty-list bookkeeping. Round 1 reaches that
test from per-link loads alone, with no heap or membership list built: it
reads each load as ``len()`` of a live flow–link index. The Network keeps
one and hands it over, so a single-bottleneck incast — the steady state
under OSP's RS barrier, re-solved at every departure — costs O(L) plus the
O(F) write of the answer, with no pass over the routes; any other caller's
index is built from the routes in O(F + L). Round 1 exits only when every
other loaded link clears the minimum by more than ``2·_EPS`` (an exact tie
is not clear): past that gap neither the scan's ``_EPS`` hysteresis nor link
discovery order can settle on another bottleneck. A lone flow also exits on
an exact tie when no link of it sits within that gap above.

The public :func:`fair_rates` and :func:`prio_fair_rates` validate their
input once and hand it to the one solve (:func:`_max_min`,
:func:`_prio_max_min`); the Network calls the solves directly on routes it
built itself, so no network solve re-validates.

The plain O(L²·F) scan it replaced lives on as the test oracle
(``tests/netsim/reference.py``); the two are bit-identical by
construction: shares are computed from the same operands
(``remaining[link] / len(flows)``), freezes subtract the same values in
the same clamped sequential chains, and rounds pick the same bottleneck
link (exact ties resolve to the earliest-inserted link in both; the rare
sub-``_EPS`` near-tie replays the scan's round verbatim).
"""

from __future__ import annotations

import heapq
from typing import Collection, Hashable, Mapping, Optional, Sequence

_EPS = 1e-12
_INF = float("inf")


def _validate_and_split(flow_routes, capacities):
    """Shared input validation; returns (rates, unfrozen) with loopback
    flows already rated at ``inf`` and each route's repeats dropped (a flow
    loads a link once)."""
    for link, cap in capacities.items():
        if cap <= 0:
            raise ValueError(f"link {link!r} has non-positive capacity {cap}")

    rates: dict[Hashable, float] = {}
    unfrozen: dict[Hashable, tuple[Hashable, ...]] = {}
    for fid, route in flow_routes.items():
        route = tuple(dict.fromkeys(route))
        for link in route:
            if link not in capacities:
                raise ValueError(f"flow {fid!r} crosses unknown link {link!r}")
        if not route:
            rates[fid] = float("inf")
        else:
            unfrozen[fid] = route
    return rates, unfrozen


def fair_rates(
    flow_routes: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
) -> dict[Hashable, float]:
    """Compute max–min fair rates via heap-driven progressive filling.

    Parameters
    ----------
    flow_routes:
        Map ``flow_id -> sequence of link_ids`` the flow crosses. A flow
        with an empty route (loopback) gets rate ``inf``.
    capacities:
        Map ``link_id -> capacity`` (bytes/second, must be positive).

    Returns ``flow_id -> rate``, deterministic for identical inputs
    (iteration follows insertion order of the mappings; exact share ties
    go to the first link encountered). The inputs are validated here, once:
    the solve itself (:func:`_max_min`, what the Network calls) trusts them.
    """
    rates, unfrozen = _validate_and_split(flow_routes, capacities)
    rates.update(_max_min(unfrozen, capacities))
    return rates


def _max_min(
    unfrozen: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    link_flows: Optional[Mapping[Hashable, Collection[Hashable]]] = None,
) -> dict[Hashable, float]:
    """The solve behind :func:`fair_rates`, on trusted input: every route a
    non-empty sequence of known links with positive capacities.

    ``link_flows`` is a live index ``link_id -> the flows crossing it``
    (each at most once) over exactly the links of ``unfrozen``'s flows and
    no other flow — the Network's own flow–link index. Round 1 reads each
    link's load from it as ``len()``; without one, the index is built here
    from the routes. Either way the rates are the same.

    A round only re-examines the links the previous round's freezes
    touched, and per-link membership is a lazy-deletion list plus a live
    load count rather than mutated sets. Freeze *order* within a round is
    deliberately unspecified: every flow frozen in a round gets the same
    ``best_share``, and each link's capacity update is a clamped
    subtraction chain of that one value whose result depends only on how
    many of the round's flows crossed the link — never on the order they
    froze.

    Single-round inputs (one link carries every flow, every other loaded
    link more than ``2·_EPS`` clear of its share, or one flow whose other
    links tie it exactly or clear it) get ``capacities[link] / n``
    from a load-only pre-pass; a multi-round solve leaves at its last round.
    """
    # Round 1: each loaded link's load, then the minimum share, its link and
    # the smallest share on any *other* link. The index holds distinct flows
    # per link, so ``carried == n`` alone says every flow crosses the
    # bottleneck.
    if link_flows is None:
        link_flows = {}
        for fid, route in unfrozen.items():
            for link in route:
                members = link_flows.get(link)
                if members is None:
                    link_flows[link] = {fid: None}
                else:
                    members[fid] = None
    best_share = second = _INF
    carried = 0
    for link, n in zip(link_flows, map(len, link_flows.values())):
        share = capacities[link] / n
        if share < best_share:
            best_share, second, carried = share, best_share, n
        elif share < second:  # an exact tie on another link lands here
            second = share
    if carried == len(unfrozen) and (
        second - best_share > 2 * _EPS
        or second == best_share and carried == 1  # a lone flow on an exact tie
        and not any(0.0 < capacities[l] - best_share <= 2 * _EPS for l in link_flows)
    ):
        return dict.fromkeys(unfrozen, best_share)
    rates: dict[Hashable, float] = {}
    remaining = {link: capacities[link] for link in link_flows}

    # Per-flow unique links; per-link flow list (lazy deletion via the
    # ``frozen`` set) + live load count. Link discovery order is the order
    # the near-tie fallback scan below walks, so it decides near-ties.
    uniq: dict[Hashable, tuple] = {}
    members: dict[Hashable, list] = {}
    load: dict[Hashable, int] = {}
    for fid, route in unfrozen.items():
        # set(route) — not tuple(route) — even for already-unique routes:
        # within the _EPS hysteresis band the winning bottleneck is the
        # *first-scanned* link, so discovery order must match the
        # reference scan's set iteration bit-for-bit.
        links = tuple(set(route))
        uniq[fid] = links
        for link in links:
            lst = members.get(link)
            if lst is None:
                members[link] = [fid]
                load[link] = 1
            else:
                lst.append(fid)
                load[link] += 1

    # Min-heap of (share, insertion_index, link) with lazy invalidation:
    # an entry is live only while it matches current_share[link] and the
    # link still carries unfrozen flows. insertion_index gives the
    # first-link-wins tie-break on exact share ties.
    order = {link: i for i, link in enumerate(members)}
    current_share: dict[Hashable, float] = {}
    heap: list[tuple[float, int, Hashable]] = []
    for link, n in load.items():
        share = remaining[link] / n
        current_share[link] = share
        heap.append((share, order[link], link))
    heapq.heapify(heap)

    def pop_live():
        while heap:
            share, _idx, link = heap[0]
            if load[link] and current_share[link] == share:
                return heap[0]
            heapq.heappop(heap)
        return None

    n_unfrozen = len(unfrozen)
    frozen: set = set()
    while n_unfrozen:
        top = pop_live()
        if top is None:  # pragma: no cover - defensive
            raise RuntimeError("no bottleneck found with unfrozen flows left")
        best_share, _idx, bottleneck = top

        # Near-tie guard. Progressive filling as a link scan adopts a new
        # bottleneck only when its share undercuts the incumbent by more
        # than _EPS, so it can settle on a link whose share sits up to _EPS
        # *above* the true minimum. When every non-minimal live share
        # clears the minimum by more than 2·_EPS that hysteresis cannot
        # bite and the heap order (share, then insertion index — the scan's
        # exact-tie rule) gives the scan's answer; otherwise run the round
        # as the scan would.
        # The probe skips entries tied exactly at the minimum to find the
        # first *distinct* live share.
        ties = [heapq.heappop(heap)]
        second = None
        while True:
            nxt = pop_live()
            if nxt is None:
                break
            if nxt[0] == best_share:
                ties.append(heapq.heappop(heap))
                continue
            second = nxt
            break
        for entry in ties:
            heapq.heappush(heap, entry)
        if second is not None and second[0] - best_share <= 2 * _EPS:
            bottleneck = None
            best_share = float("inf")
            for link in members:
                n = load[link]
                if not n:
                    continue
                share = remaining[link] / n
                if share < best_share - _EPS:
                    best_share = share
                    bottleneck = link

        if load[bottleneck] == n_unfrozen:
            # Last round: nothing reads the bookkeeping again.
            for fid in members[bottleneck]:
                if fid not in frozen:
                    rates[fid] = best_share
            return rates

        # Freeze the bottleneck's flows, then cascade through links the
        # round drove to zero remaining capacity while still loaded. The
        # ``max(0.0, ...)`` clamp can do that when shares tie within float
        # fuzz; left alone, the next round would "find" such a link at
        # share 0.0 and freeze its flows at rate 0 — a transfer that never
        # completes. Those flows were tied with the bottleneck to within
        # ``_EPS``, so they freeze at the same share. Only links that just
        # received a subtraction can newly hit zero, so the cascade check
        # walks this round's dirty links rather than every link.
        dirty: list = []

        def freeze_link(link):
            nonlocal n_unfrozen
            for fid in members[link]:
                if fid in frozen:
                    continue
                frozen.add(fid)
                rates[fid] = best_share
                n_unfrozen -= 1
                for l in uniq[fid]:
                    remaining[l] = max(0.0, remaining[l] - best_share)
                    load[l] -= 1
                    dirty.append(l)

        freeze_link(bottleneck)
        scan_from = 0
        while True:
            zeroed = []
            for l in dirty[scan_from:]:
                if load[l] and remaining[l] <= 0.0 and l not in zeroed:
                    zeroed.append(l)
            if not zeroed:
                break
            scan_from = len(dirty)
            for link in zeroed:
                if load[link]:
                    freeze_link(link)

        for link in dirty:
            n = load[link]
            if not n:
                continue
            share = remaining[link] / n
            if share != current_share[link]:
                current_share[link] = share
                heapq.heappush(heap, (share, order[link], link))

    return rates


#: Relative headroom below which a link counts as saturated by higher
#: classes: the clamped subtraction chains of a max–min solve leave float
#: residue of at most a few ulps per frozen flow, so anything under
#: ``capacity × 1e-9`` is scheduling noise, not real leftover bandwidth.
_SAT_REL = 1e-9


def prio_fair_rates(
    flow_routes: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    prios: Mapping[Hashable, int],
) -> dict[Hashable, float]:
    """Strict priority over :func:`fair_rates` per class.

    Classes are solved highest first; each class sees only the capacity
    left over after every higher class took its allocation, so on a
    saturated link higher classes starve lower ones outright (rate 0.0)
    while flows of equal class share the leftover by plain max–min.

    When every flow sits in a single class — *any* class — the result is
    the plain solver's over the full capacities, bit for bit: the
    non-priority scheduler's. The inputs are validated here, once; the
    Network calls :func:`_prio_max_min` on its trusted routes.
    """
    rates, unfrozen = _validate_and_split(flow_routes, capacities)
    rates.update(_prio_max_min(unfrozen, capacities, prios))
    return rates


def _prio_max_min(
    flow_routes: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    prios: Mapping[Hashable, int],
) -> dict[Hashable, float]:
    """The solve behind :func:`prio_fair_rates`, on trusted input: each
    route a non-empty sequence of distinct known links.

    It reads only the capacities of the links its flows cross (the Network
    hands it one link-component, not the fabric). Each class's
    :func:`_max_min` gets that class's link index, built in fid and then
    route order: the order ``_max_min`` builds its own in, so round 1's tie
    order is the same. A link joins ``saturated`` when the classes above
    leave it no more than its floor; a flow crossing one starves.
    """
    by_class: dict[int, dict] = {}
    for fid, route in flow_routes.items():
        group = by_class.get(prios[fid])
        if group is None:
            by_class[prios[fid]] = {fid: route}
        else:
            group[fid] = route
    if len(by_class) <= 1:
        return _max_min(flow_routes, capacities)

    leftover = {l: capacities[l] for route in flow_routes.values() for l in route}
    saturated: set = set()
    rates: dict[Hashable, float] = {}
    classes = sorted(by_class, reverse=True)
    for cls in classes:
        solve_routes: dict[Hashable, Sequence[Hashable]] = {}
        index: dict[Hashable, dict] = {}
        for fid, route in by_class[cls].items():
            if saturated and not saturated.isdisjoint(route):
                rates[fid] = 0.0  # starved by a higher class
                continue
            solve_routes[fid] = route
            for l in route:
                members = index.get(l)
                if members is None:
                    index[l] = {fid: None}
                else:
                    members[fid] = None
        if not solve_routes:
            continue
        sub = _max_min(solve_routes, {l: leftover[l] for l in index}, index)
        rates.update(sub)
        if cls == classes[-1]:
            break  # no class below reads the leftover
        for fid, rate in sub.items():
            if 0 < rate < _INF:
                for l in solve_routes[fid]:
                    left = leftover[l] - rate
                    leftover[l] = left if left > 0.0 else 0.0
        for l in index:
            if leftover[l] <= capacities[l] * _SAT_REL:
                saturated.add(l)
    return rates


__all__ = ["fair_rates", "prio_fair_rates"]
