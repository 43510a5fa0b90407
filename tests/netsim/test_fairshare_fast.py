"""Differential tests: heap fair-share solver ≡ reference progressive filling.

The production solver's whole contract is *bit-identical rate dicts* — not
approximately-equal, ``==``-equal floats — on every input the reference
scan (``reference.py``) accepts. Hypothesis drives randomized
star topologies (the trainer's shape), multi-tier/general topologies,
degenerate eps-scale capacities, loopback/empty-route flows, and
single-bottleneck incasts with an edge share planted in every band of the
last-round exit's near-tie guard through both solvers. The solve the
Network calls (``_max_min``, handed its live flow–link index) is held to the
same oracle with that index in either link order.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import LinkSpec, Network, StarTopology, fair_rates
from repro.netsim.fairshare import _max_min
from repro.simcore import Environment
from tests.netsim.reference import _EPS, PerEventNetwork, reference_fair_rates


# --------------------------------------------------- fast solver unit checks
def test_fast_matches_scan_oracle_on_textbook_cascade():
    routes = {
        "f1": ["l1"],
        "f2": ["l1", "l2"],
        "f3": ["l2", "l3"],
        "f4": ["l3"],
    }
    caps = {"l1": 10.0, "l2": 14.0, "l3": 20.0}
    assert fair_rates(routes, caps) == reference_fair_rates(routes, caps)


def test_fast_validates_inputs():
    with pytest.raises(ValueError):
        fair_rates({"f": ["ghost"]}, {"real": 1.0})
    with pytest.raises(ValueError):
        fair_rates({"f": ["a"]}, {"a": 0.0})


def test_fast_loopback_and_duplicate_links():
    routes = {"lo": [], "dup": ["a", "a"], "plain": ["a"]}
    caps = {"a": 6.0}
    fast = fair_rates(routes, caps)
    assert fast == reference_fair_rates(routes, caps)
    assert fast["lo"] == float("inf")
    # A duplicated link counts once for its crossing flow.
    assert fast["dup"] == pytest.approx(3.0)


# -------------------------------------------------- zero-share freeze hazard
def test_zero_share_clamp_does_not_freeze_flows_at_zero():
    """Regression for the zero-share freeze hazard.

    The ``max(0.0, ...)`` clamp can zero a loaded link's remaining
    capacity when eps-scale shares tie within float fuzz; the old solver
    then froze that link's flows at rate 0.0 — a transfer that never
    completes (and the defensive RuntimeError in Network._rerate). The
    "f0" single-link flow pins link "a" first in scan order so the
    degenerate round deterministically reproduces the old hazard.
    """
    routes = {"f0": ["a"], "f1": ["a", "b"], "f2": ["b"]}
    caps = {"a": 2e-12, "b": 1e-12}
    for solver in (reference_fair_rates, fair_rates):
        rates = solver(routes, caps)
        assert all(r > 0.0 for r in rates.values()), (solver.__name__, rates)
    assert reference_fair_rates(routes, caps) == fair_rates(routes, caps)


# --------------------------------------------- planted single-bottleneck incast
#: Where a planted edge link's share sits relative to the shared link's
#: ``C / n``, by the band of the last-round exit's guard it lands in:
#: (a) exact tie, (b) within ``±_EPS`` / ``±2·_EPS`` — both must take the full
#: solver —, (c) clear of the guard (round-1 exit), (d) undercutting (two
#: rounds, the second leaving by the in-loop exit).
_BANDS = {
    "a_exact_tie": lambda s: s,
    "b_half_eps_above": lambda s: s + 0.5 * _EPS,
    "b_half_eps_below": lambda s: s - 0.5 * _EPS,
    "b_eps_above": lambda s: s + _EPS,
    "b_eps_below": lambda s: s - _EPS,
    "b_two_eps_above": lambda s: s + 2 * _EPS,
    "b_two_eps_below": lambda s: s - 2 * _EPS,
    "c_three_eps_clear": lambda s: s + 3 * _EPS,
    "d_undercut": lambda s: 0.5 * s,
}


def _planted_incast(
    n, capacity, planted, *, ps_first=False, clear=10.0, dup=(), loopback=False
):
    """One link carried by all ``n`` flows plus a private edge link each.

    Links are small ints so ``set(route)`` iterates — and the solvers
    discover links — in the same order in every process: with
    ``ps_first=False`` flow 0's edge is discovered before the shared link,
    the layout in which a near-tie changes the oracle's answer.
    ``planted`` maps a flow index to its edge's band; the rest clear the
    shared share by the factor ``clear``.
    """
    ps = 0 if ps_first else n
    share = capacity / n
    caps = {ps: capacity}
    routes = {}
    for i in range(n):
        edge = i + 1 if ps_first else i
        caps[edge] = _BANDS[planted[i]](share) if i in planted else clear * share
        route = [ps, edge] if ps_first else [edge, ps]
        routes[f"f{i}"] = route + route[:1] if i in dup else route
    if loopback:
        routes["lo"] = []
    return routes, caps


def _live_index(routes, reverse=False):
    """The Network's flow–link index over ``routes``: each loaded link ->
    the flows crossing it (once each, in flow order), links in order of
    first load — or the reverse, which round 1 must not notice."""
    index = {}
    for fid, route in routes.items():
        for link in route:
            index.setdefault(link, {})[fid] = None
    return dict(reversed(index.items())) if reverse else index


def _assert_matches_oracle_on_both_paths(routes, caps):
    """``fair_rates`` and the solve the Network calls, handed a live index
    in either link order, answer exactly what the oracle answers."""
    expected = reference_fair_rates(routes, caps)
    assert fair_rates(routes, caps) == expected
    trusted = {fid: tuple(route) for fid, route in routes.items() if route}
    routed = {fid: rate for fid, rate in expected.items() if fid in trusted}
    for reverse in (False, True):
        live = _max_min(trusted, caps, _live_index(trusted, reverse))
        assert live == routed
    return expected


@pytest.mark.parametrize("band", _BANDS)
def test_planted_incast_band_matches_scan_oracle(band):
    uniform = {f"f{i}": 1.0 / 3 for i in range(3)}
    for ps_first in (False, True):
        for where in (0, 2):
            for extras in ({}, {"dup": (where,), "loopback": True}):
                routes, caps = _planted_incast(
                    3, 1.0, {where: band}, ps_first=ps_first, **extras
                )
                expected = _assert_matches_oracle_on_both_paths(routes, caps)
                expected.pop("lo", None)
                if band == "c_three_eps_clear":
                    assert expected == uniform
                elif band == "d_undercut":
                    assert expected == {**dict.fromkeys(uniform, 5 / 12), f"f{where}": 1 / 6}
                elif band != "b_two_eps_above" and (ps_first, where) == (False, 0):
                    # The tie is on the first-discovered link: the oracle does
                    # not answer C/n for everyone, so an exit that ignored the
                    # tie (or skipped equal shares) is red here.
                    assert expected != uniform


def test_repeated_link_cannot_pass_for_a_link_every_flow_crosses():
    """Three crossings of "ps" by three flows — but one flow crosses it
    twice and one not at all, so it is not a round that freezes everyone."""
    routes = {"f0": ["ps", "e0", "ps"], "f1": ["e1"], "f2": ["e2", "ps"]}
    caps = {"ps": 3.0, "e0": 50.0, "e1": 50.0, "e2": 50.0}
    expected = _assert_matches_oracle_on_both_paths(routes, caps)
    assert expected == {"f0": 1.5, "f1": 50.0, "f2": 1.5}


@pytest.mark.parametrize("third", sorted(_BANDS))
def test_a_lone_flow_tied_exactly_on_two_links_matches_the_oracle(third):
    """One flow on three links, two of them tied exactly at its share: round
    1 answers that share unless the third sits within ``2·_EPS`` above it,
    where the oracle's scan may settle on the third — in every discovery
    order of the three."""
    near = _BANDS[third](1.0)
    answers = set()
    for caps in set(permutations((1.0, 1.0, near))):
        routes = {"f": [0, 1, 2]}
        expected = _assert_matches_oracle_on_both_paths(routes, dict(enumerate(caps)))
        answers.add(expected["f"])
    # Within ``_EPS`` of the tie the scan keeps whichever it met first.
    hysteresis = {"b_half_eps_above", "b_half_eps_below", "b_eps_above", "b_eps_below"}
    assert answers == ({1.0, near} if third in hysteresis else {min(1.0, near)})


def test_a_lone_survivor_on_tied_links_keeps_the_whole_fabric_solves_rates():
    """Two flows share ``down:0``; when one finishes, the other is solved
    alone over an uplink and a downlink of equal bandwidth, an exact tie.
    Every rate at four settled instants is the oracle's, and the run's
    records are the whole-fabric-per-event network's."""

    def run(network):
        env = Environment()
        net = network(env, StarTopology(3, default_spec=LinkSpec(bandwidth=1e3, latency=0.0)))
        caps = {link.name: link.bandwidth for link in net.topology.links}
        seen = []

        def check():  # between flow events, every rate is settled
            for wait in (0.5, 1.0, 1.0, 1.0):
                yield env.timeout(wait)
                active = net.active_flows
                routes = {f.fid: f.links for f in active}
                assert {f.fid: f.rate for f in active} == reference_fair_rates(routes, caps)
                seen.append(len(active))

        net.transfer(1, 0, 1e3)  # ends at 2 s, at half the downlink
        net.transfer(2, 0, 3e3)  # then alone on links tied at 1e3, to 4 s
        env.process(check())
        env.run()
        assert seen == [2, 2, 1, 1]
        return list(net.records), env.now

    assert run(Network) == run(PerEventNetwork)


@st.composite
def incast_cases(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    share = draw(st.floats(min_value=1e-3, max_value=100.0, allow_nan=False))
    flow = st.integers(min_value=0, max_value=n - 1)
    return _planted_incast(
        n,
        share * n,
        draw(st.dictionaries(flow, st.sampled_from(sorted(_BANDS)), max_size=3)),
        ps_first=draw(st.booleans()),
        clear=draw(st.floats(min_value=1.5, max_value=100.0, allow_nan=False)),
        dup=draw(st.sets(flow, max_size=2)),
        loopback=draw(st.booleans()),
    )


@settings(max_examples=600, deadline=None)
@given(incast_cases())
def test_fast_bit_identical_on_planted_incasts(case):
    _assert_matches_oracle_on_both_paths(*case)


# ------------------------------------------------------- hypothesis strategy
@st.composite
def star_cases(draw):
    """Randomized star topology: every route = one uplink + one downlink."""
    n = draw(st.integers(min_value=2, max_value=24))
    cap = st.floats(
        min_value=1e-12, max_value=1e9, allow_nan=False, allow_infinity=False
    )
    caps = {}
    for i in range(n):
        caps[f"up:{i}"] = draw(cap)
        caps[f"down:{i}"] = draw(cap)
    n_flows = draw(st.integers(min_value=1, max_value=3 * n))
    flows = {}
    for j in range(n_flows):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        flows[j] = [] if src == dst else [f"up:{src}", f"down:{dst}"]
    return flows, caps


@st.composite
def general_cases(draw):
    """Arbitrary multi-tier topology with degenerate capacities allowed."""
    n_links = draw(st.integers(min_value=1, max_value=8))
    links = [f"L{i}" for i in range(n_links)]
    cap = st.one_of(
        st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
        st.floats(min_value=1e-12, max_value=1e-9, allow_nan=False),
    )
    caps = {l: draw(cap) for l in links}
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = {}
    for j in range(n_flows):
        k = draw(st.integers(min_value=0, max_value=min(4, n_links)))
        route = draw(
            st.lists(st.sampled_from(links), min_size=k, max_size=k)
        )
        flows[f"f{j}"] = route
    return flows, caps


@settings(max_examples=300, deadline=None)
@given(star_cases())
def test_fast_bit_identical_on_stars(case):
    flows, caps = case
    assert fair_rates(flows, caps) == reference_fair_rates(flows, caps)


@settings(max_examples=300, deadline=None)
@given(general_cases())
def test_fast_bit_identical_on_general_topologies(case):
    flows, caps = case
    reference = reference_fair_rates(flows, caps)
    fast = fair_rates(flows, caps)
    assert fast == reference
    # Both also honour the basic feasibility property.
    assert all(r > 0.0 for r in fast.values())


@settings(max_examples=600, deadline=None)
@given(st.one_of(star_cases(), general_cases(), incast_cases()))
def test_live_index_in_either_link_order_matches_oracle_on_every_strategy(case):
    """The solve the Network calls, handed its live link index in either
    link order, is the oracle's on stars, general topologies (repeated
    links, degenerate capacities) and planted incasts alike."""
    _assert_matches_oracle_on_both_paths(*case)
