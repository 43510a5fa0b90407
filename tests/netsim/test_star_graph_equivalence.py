"""Property test: inside one rack, a k-rack StarTopology ≡ the one-rack star.

The one-rack star is the paper's testbed; ``n_racks > 1`` adds a ToR
uplink and downlink per rack that only cross-rack routes take. For any
star — including heterogeneous per-node link specs — a flow whose two ends
share a rack must not notice the racks: its route crosses the same two
host links (same specs, same order, host uplink then host downlink), and a
fluid-flow Network driving identical staggered intra-rack transfer
schedules over either topology drains every flow at the same instant.
Hypothesis sweeps node and rack counts, per-node bandwidth/latency
heterogeneity, and overlapping transfer schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.links import LinkSpec
from repro.netsim.network import Network
from repro.netsim.topology import StarTopology
from repro.simcore.environment import Environment
from tests.netsim.reference import route_latency

# Bounded, well-scaled floats: the property is about routing/fair-share
# equivalence, not float-edge-case handling in LinkSpec itself.
_bandwidths = st.floats(min_value=1.0, max_value=1e4)
_latencies = st.floats(min_value=0.0, max_value=0.5)
_sizes = st.floats(min_value=1.0, max_value=1e6)
_delays = st.floats(min_value=0.0, max_value=10.0)


@st.composite
def rack_cases(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    racks = draw(st.integers(min_value=2, max_value=n))
    specs = [
        LinkSpec(bandwidth=draw(_bandwidths), latency=draw(_latencies))
        for _ in range(n)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = []
    for _ in range(n_flows):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        # host i sits in rack i % racks: dst is drawn from src's rack
        dst = draw(st.sampled_from(range(src % racks, n, racks)))
        flows.append((src, dst, draw(_sizes), draw(_delays)))
    return n, racks, specs, flows


def _topology(n, specs, racks=1):
    return StarTopology(
        n,
        default_spec=specs[0],
        overrides={i: s for i, s in enumerate(specs)},
        n_racks=racks,
    )


def _drain(topology, flows):
    """Run the transfer schedule; return each flow's (start, end) times."""
    env = Environment()
    net = Network(env, topology)
    records = []

    def _delayed(src, dst, size, delay):
        yield env.timeout(delay)
        rec = yield net.transfer(src, dst, size)
        records.append((rec.start_time, rec.end_time))

    for flow in flows:
        env.process(_delayed(*flow))
    env.run()
    return records


@settings(max_examples=60, deadline=None)
@given(rack_cases())
def test_routes_cross_equivalent_links(case):
    n, racks, specs, _flows = case
    star = _topology(n, specs)
    racked = _topology(n, specs, racks)
    for src in range(n):
        for dst in range(n):
            s_route = star.route(src, dst)
            r_route = racked.route(src, dst)
            if src == dst:
                assert s_route == r_route == []
            elif src % racks == dst % racks:
                assert [l.name for l in r_route] == [f"up:{src}", f"down:{dst}"]
                assert [l.name for l in s_route] == [l.name for l in r_route]
                assert [l.spec for l in s_route] == [l.spec for l in r_route]
                assert route_latency(star, src, dst) == route_latency(racked, src, dst)
            else:
                assert [l.name for l in r_route] == [
                    f"up:{src}", f"up:tor{src % racks}",
                    f"down:tor{dst % racks}", f"down:{dst}",
                ]
                assert [r_route[0].spec, r_route[-1].spec] == [
                    l.spec for l in s_route
                ]


@settings(max_examples=40, deadline=None)
@given(rack_cases())
def test_fluid_drain_times_identical(case):
    n, racks, specs, flows = case
    star_times = _drain(_topology(n, specs), flows)
    racked_times = _drain(_topology(n, specs, racks), flows)
    # Same host-link specs + same flow arrival order = the max-min
    # fair-share computation runs through identical arithmetic: bit-equal,
    # not approx.
    assert star_times == racked_times
