"""Property-based tests for the fluid-flow network scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    PRIO_BULK,
    PRIO_HIGH,
    PRIO_NORMAL,
    PRIO_URGENT,
    LinkSpec,
    Network,
    StarTopology,
    prio_fair_rates,
)
from repro.netsim.network import _BYTE_EPS
from repro.simcore import Environment
from tests.netsim.reference import PerEventNetwork, bulk_time


@st.composite
def _flow_plans(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for _ in range(n_flows):
        src = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        dst = draw(
            st.integers(min_value=0, max_value=n_nodes - 1).filter(lambda d: d != src)
        )
        size = draw(st.floats(min_value=1.0, max_value=1e4))
        start = draw(st.floats(min_value=0.0, max_value=5.0))
        flows.append((src, dst, size, start))
    return n_nodes, flows


@st.composite
def _scheduler_plans(draw, classes):
    """A flow plan plus each flow's class (from ``classes``) and an optional
    bandwidth-dip window on one node's links."""
    n_nodes, flows = draw(_flow_plans())
    kwargs = [{"prio": draw(st.sampled_from(classes))} for _ in flows]
    dip = draw(
        st.none()
        | st.tuples(
            st.integers(min_value=0, max_value=n_nodes - 1),
            st.floats(min_value=0.0, max_value=6.0),  # start
            st.floats(min_value=0.1, max_value=6.0),  # duration
            st.floats(min_value=0.05, max_value=0.9),  # bandwidth factor
        )
    )
    return n_nodes, flows, kwargs, dip


@st.composite
def _merge_split_plans(draw):
    """Link-components that merge and split mid-run.

    Two link-disjoint groups in different classes through node 0 of a
    full-duplex star — pushes into it (``up:w``, ``down:0``) and pulls out of
    it (``up:0``, ``down:w``) — running from near t=0, plus short bridging
    flows from a pusher to a puller (``up:pusher``, ``down:puller``) from
    t=1 on: one joins the two components when it arrives and splits them
    again when it leaves. Start times are distinct: a per-event model counts
    a preemption on an intermediate same-instant allocation.
    """
    n_push = draw(st.integers(min_value=1, max_value=3))
    n_pull = draw(st.integers(min_value=1, max_value=3))
    pushers = list(range(1, 1 + n_push))
    pullers = list(range(1 + n_push, 1 + n_push + n_pull))
    classes = st.sampled_from((PRIO_BULK, PRIO_NORMAL, PRIO_HIGH, PRIO_URGENT))
    cls_push = draw(classes)
    cls_pull = draw(classes.filter(lambda c: c != cls_push))
    long_size = st.floats(min_value=1e3, max_value=1e4)
    pairs = [(w, 0, cls_push) for w in pushers for _ in range(draw(st.integers(1, 2)))]
    pairs += [(0, w, cls_pull) for w in pullers]
    n_bridges = draw(st.integers(min_value=1, max_value=4))

    def distinct_starts(n, lo, hi):
        times = st.floats(min_value=lo, max_value=hi, exclude_max=True)
        return draw(st.lists(times, min_size=n, max_size=n, unique=True))

    flows, kwargs = [], []
    for (src, dst, cls), start in zip(pairs, distinct_starts(len(pairs), 0.0, 1.0)):
        flows.append((src, dst, draw(long_size), start))
        kwargs.append({"prio": cls})
    for start in distinct_starts(n_bridges, 1.0, 7.0):
        src, dst = draw(st.sampled_from(pushers)), draw(st.sampled_from(pullers))
        flows.append((src, dst, draw(st.floats(min_value=10.0, max_value=2e3)), start))
        kwargs.append({"prio": draw(classes)})
    return 1 + n_push + n_pull, flows, kwargs


@st.composite
def _large_plans(draw):
    """A fabric large enough for the network to form a cohort
    (``_COHORT_MIN`` flows): an incast of 40–70 flows into one node, 32 of
    them at t=0 and the rest in a few same-instant bursts, mostly of one
    size (so whole bursts share one rate and finish together) and, in half
    the plans, all of one class, beside a few flows between other nodes, in
    any class, and an optional bandwidth dip."""
    n_nodes = draw(st.integers(min_value=6, max_value=10))
    sink = draw(st.integers(min_value=0, max_value=n_nodes - 1))
    others = [n for n in range(n_nodes) if n != sink]
    later = st.lists(st.floats(min_value=0.0, max_value=40.0), max_size=3)
    bursts = [0.0] + draw(later)
    sizes = st.sampled_from((100.0, 250.0)) | st.floats(min_value=10.0, max_value=400.0)
    classes = st.sampled_from((PRIO_NORMAL,) * 6 + (PRIO_BULK, PRIO_HIGH, PRIO_URGENT))
    incast_classes = st.just(draw(classes)) if draw(st.booleans()) else classes
    flows, kwargs = [], []
    for i in range(draw(st.integers(min_value=40, max_value=70))):
        start = 0.0 if i < 32 else draw(st.sampled_from(bursts))
        src = draw(st.sampled_from(others))
        flows.append((src, sink, draw(sizes), start))
        kwargs.append({"prio": draw(incast_classes)})
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        src = draw(st.sampled_from(others))
        dst = draw(st.sampled_from([n for n in others if n != src]))
        start = draw(st.floats(min_value=0.0, max_value=40.0))
        flows.append((src, dst, draw(sizes), start))
        kwargs.append({"prio": draw(classes)})
    dip = draw(
        st.none()
        | st.tuples(
            st.sampled_from([sink] + others),
            st.floats(min_value=0.0, max_value=40.0),
            st.floats(min_value=0.1, max_value=20.0),
            st.floats(min_value=0.05, max_value=0.9),
        )
    )
    return n_nodes, flows, kwargs, dip


def _run_plan(
    n_nodes, flows, bandwidth=1000.0, kwargs=None, dip=None,
    network=Network, priorities=True
):
    env = Environment()
    topo = StarTopology(n_nodes, default_spec=LinkSpec(bandwidth=bandwidth, latency=0.0))
    net = network(env, topo)
    net.priorities = priorities

    def starter(env, src, dst, size, start, **kw):
        yield env.timeout(start)
        rec = yield net.transfer(src, dst, size, **kw)
        return rec

    def dip_window(env, node, start, duration, factor):
        links = [l for l in topo.links if l.name in (f"up:{node}", f"down:{node}")]
        yield env.timeout(start)
        for link in links:
            link.apply_fault(bandwidth_factor=factor)
        net.refresh_capacities()
        yield env.timeout(duration)
        for link in links:
            link.clear_fault(bandwidth_factor=factor)
        net.refresh_capacities()

    procs = [
        env.process(starter(env, *f, **kw))
        for f, kw in zip(flows, kwargs or [{}] * len(flows))
    ]
    if dip is not None:
        env.process(dip_window(env, *dip))
    # To queue exhaustion: a superseded wake-up timer is cancelled, so the
    # final clock is the last flow's (or the dip window's) end.
    env.run()
    return net, [p.value for p in procs]


def _outcome(net):
    """Everything virtual time can show: each FlowRecord in full (dataclass
    equality), and the clock when the last flow (or the dip window) finished."""
    return list(net.records), repr(net.env.now)


@given(_flow_plans())
@settings(max_examples=60, deadline=None)
def test_property_all_flows_complete(plan):
    n_nodes, flows = plan
    _net, records = _run_plan(n_nodes, flows)
    assert len(records) == len(flows)
    for rec, (src, dst, size, start) in zip(records, flows):
        assert rec.end_time >= start


@given(_flow_plans())
@settings(max_examples=60, deadline=None)
def test_property_duration_at_least_solo_time(plan):
    """No flow finishes faster than it would alone on an idle network."""
    n_nodes, flows = plan
    net, records = _run_plan(n_nodes, flows)
    for rec, (src, dst, size, start) in zip(records, flows):
        solo = bulk_time(net, src, dst, size)
        assert rec.duration >= solo - 1e-6


@given(_flow_plans())
@settings(max_examples=60, deadline=None)
def test_property_bytes_conserved(plan):
    """Each flow's bytes are carried exactly once on each of its 2 links."""
    n_nodes, flows = plan
    net, _records = _run_plan(n_nodes, flows)
    total_expected = 2 * sum(size for _s, _d, size, _t in flows)
    total_carried = sum(l.bytes_carried for l in net.topology.links)
    assert total_carried == pytest.approx(total_expected, rel=1e-5)


@given(_flow_plans())
@settings(max_examples=40, deadline=None)
def test_property_deterministic_replay(plan):
    n_nodes, flows = plan
    _n1, rec1 = _run_plan(n_nodes, flows)
    _n2, rec2 = _run_plan(n_nodes, flows)
    for a, b in zip(rec1, rec2):
        assert a.end_time == b.end_time


_ALL_CLASSES = (PRIO_BULK, PRIO_NORMAL, PRIO_HIGH, PRIO_URGENT)


@given(_scheduler_plans(_ALL_CLASSES))
@settings(max_examples=150, deadline=None)
def test_property_coalescing_and_skipping_change_no_virtual_time(plan):
    """The scheduler ≡ one that fully re-solves inside every transfer()."""
    n_nodes, flows, kwargs, dip = plan
    net, _ = _run_plan(n_nodes, flows, kwargs=kwargs, dip=dip)
    ref, _ = _run_plan(
        n_nodes, flows, kwargs=kwargs, dip=dip, network=PerEventNetwork
    )
    assert _outcome(net) == _outcome(ref)
    assert ref.stats["netsim.rerate_skipped"] == 0
    assert net.stats["netsim.rerates"] <= ref.stats["netsim.rerates"]


@given(_merge_split_plans())
@settings(max_examples=150, deadline=None)
def test_property_components_that_merge_and_split_match_the_whole_fabric_solve(plan):
    """Solving only what a change can reach ≡ solving every loaded link at
    every flow event, while bridging flows join and part two components of
    different classes."""
    n_nodes, flows, kwargs = plan
    net, _ = _run_plan(n_nodes, flows, kwargs=kwargs)
    ref, _ = _run_plan(n_nodes, flows, kwargs=kwargs, network=PerEventNetwork)
    assert _outcome(net) == _outcome(ref)
    assert net.stats["netsim.prio_preemptions"] == ref.stats["netsim.prio_preemptions"]
    assert net.stats["netsim.fairshare_calls"] <= ref.stats["netsim.fairshare_calls"]


def _solve_checked_network(checks):
    """A ``Network`` factory whose drain hook holds every live rate to the
    strict-priority max–min solve of the active flow set, at each drain
    where the clock moved (within an instant a coalesced rerate may still
    be pending); ``checks`` collects the clock of every check."""

    def build(env, topo):
        net = Network(env, topo)
        capacities = {l.name: l.bandwidth for l in topo.links}
        last = [env.now]

        def check():
            if env.now == last[0]:
                return
            last[0] = env.now
            active = net.active_flows
            solve = prio_fair_rates(
                {f.fid: [l.name for l in f.route] for f in active},
                capacities,
                {f.fid: f.prio for f in active},
            )
            for flow in active:
                assert flow.rate == pytest.approx(solve[flow.fid], rel=1e-9), (
                    env.now, flow,
                )
            checks.append(env.now)

        net.drain_hooks.append(check)
        return net

    return build


@pytest.mark.parametrize(
    "plans",
    [_scheduler_plans(_ALL_CLASSES), _merge_split_plans()],
    ids=["four_classes", "merge_split"],
)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_property_every_rate_is_the_solve_of_the_flow_set(plans, data):
    """No flow carries scheduler state from one solve to the next: a live
    rate is a function of the current flow set and capacities alone."""
    n_nodes, flows, kwargs = data.draw(plans)[:3]  # no dip window
    checks = []
    _run_plan(n_nodes, flows, kwargs=kwargs, network=_solve_checked_network(checks))
    assert checks


def _index_checked_network(drains):
    """A ``Network`` factory whose drain hook holds the scheduler's live
    bookkeeping to the active flow set at every drain: the flow–link index
    is exactly the links active flows cross, each with its flows in fid
    order, and the flows awaiting retirement are exactly the active ones at
    or below ``_BYTE_EPS``, in fid order. ``drains`` counts the checks."""

    def build(env, topo):
        net = Network(env, topo)

        def check():
            active = net.active_flows
            crossing: dict[str, list[int]] = {}
            for flow in active:
                for name in flow.links:
                    crossing.setdefault(name, []).append(flow.fid)
            index = {name: list(members) for name, members in net._link_flows.items()}
            assert index == crossing, env.now
            finished = [f.fid for f in net._finished]
            assert finished == [f.fid for f in active if f.remaining <= _BYTE_EPS]
            drains.append(env.now)

        net.drain_hooks.append(check)
        return net

    return build


@given(_large_plans())
@settings(max_examples=40, deadline=None)
def test_property_a_large_fabric_matches_the_whole_fabric_solve(plan):
    """With a cohort (a full incast of ``_COHORT_MIN`` flows or more), the
    scheduler still ≡ one that fully re-solves inside every transfer(), and
    its link index and finished flows are the active set's at every drain."""
    n_nodes, flows, kwargs, dip = plan
    drains = []
    net, _ = _run_plan(
        n_nodes, flows, kwargs=kwargs, dip=dip, network=_index_checked_network(drains)
    )
    ref, _ = _run_plan(
        n_nodes, flows, kwargs=kwargs, dip=dip, network=PerEventNetwork
    )
    assert _outcome(net) == _outcome(ref)
    assert net.stats["netsim.rerates"] <= ref.stats["netsim.rerates"]


def test_a_full_incast_steps_one_cohort_and_matches_the_whole_fabric_solve():
    """40 pushes of 40 sizes into one node form a cohort at t=0. Its
    departures, a flow between two idle links beside it, one that couples
    with it on a sender's uplink (which hands the members back), a dip that
    starves a sender's uplink (the cohort forms again when it clears) and a
    burst that joins it at t=6 are solved as by a scheduler that re-solves
    at every flow event."""
    flows = [(1 + i % 7, 0, 100.0 + 7.0 * i, 0.0) for i in range(40)]
    flows += [(1 + i % 7, 0, 150.0, 6.0) for i in range(5)]
    flows += [(8, 1, 30.0, 0.5), (2, 3, 80.0, 1.0)]
    dip = (4, 2.0, 2.0, 0.05)
    seen = []

    def build(env, topo):
        net = _index_checked_network([])(env, topo)
        net.drain_hooks.append(lambda: seen.append(net._cohort))
        return net

    net, _ = _run_plan(9, flows, dip=dip, network=build)
    ref, _ = _run_plan(9, flows, dip=dip, network=PerEventNetwork)
    assert _outcome(net) == _outcome(ref)
    cohorts = [c for c in seen if c is not None]
    assert len(cohorts) > 40  # the cohort lived through many events
    assert len(set(map(id, cohorts))) >= 2  # the dip dissolved it; it formed again
    assert net._cohort is None


@pytest.mark.parametrize(
    "plans",
    [_scheduler_plans(_ALL_CLASSES), _merge_split_plans()],
    ids=["four_classes", "merge_split"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_property_link_index_is_the_active_flow_set_at_every_drain(plans, data):
    """A link is in the index while, and only while, an active flow crosses
    it — through starts, finishes, dip windows and components that merge
    and split."""
    n_nodes, flows, kwargs, *dip = data.draw(plans)
    drains = []
    net, _ = _run_plan(
        n_nodes, flows, kwargs=kwargs, dip=dip[0] if dip else None,
        network=_index_checked_network(drains),
    )
    assert drains
    assert net._link_flows == {} and net._finished == []


def test_two_drained_flows_and_a_guard_zeroed_one_retire_in_fid_order():
    """Flows 0 and 1 cross ``_BYTE_EPS`` in the same drain; flow 2, 0.01 B
    behind them, is left with a remainder too small to move a 10⁶ s clock
    once it has the downlink alone, so the float guard zeroes it at the
    same instant. The records come out in fid order."""
    env = Environment(initial_time=1e6)
    topo = StarTopology(4, default_spec=LinkSpec(bandwidth=1e9, latency=0.0))
    drains = []
    net = _index_checked_network(drains)(env, topo)
    at_finish = []

    def note_finishes():
        if net._finished:
            remaining = {f.fid: f.remaining for f in net.active_flows}
            at_finish.append(([f.fid for f in net._finished], remaining))

    net.drain_hooks.append(note_finishes)
    for src, size in ((0, 1e6), (1, 1e6), (2, 1e6 + 0.01)):
        net.transfer(src, 3, size)
    env.run()
    [(finished, remaining)] = at_finish
    assert finished == [0, 1]
    assert remaining[2] > _BYTE_EPS  # not the drain's: the guard's
    assert [r.fid for r in net.records] == [0, 1, 2]
    assert len({r.end_time for r in net.records}) == 1


@pytest.mark.parametrize(
    "cls", [PRIO_NORMAL, PRIO_BULK, PRIO_HIGH], ids=["normal", "bulk", "high"]
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_single_class_is_the_plain_fair_shared_fabric(cls, data):
    """All traffic in one class — any class — must not notice the class
    scheduler exists: bit-exact against ``priorities=False``."""
    n_nodes, flows, kwargs, dip = data.draw(_scheduler_plans((cls,)))
    on, _ = _run_plan(n_nodes, flows, kwargs=kwargs, dip=dip)
    off, _ = _run_plan(n_nodes, flows, kwargs=kwargs, dip=dip, priorities=False)
    assert _outcome(on) == _outcome(off)
    assert on.stats["netsim.prio_preemptions"] == 0


@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=10.0, max_value=1e5),
)
@settings(max_examples=40, deadline=None)
def test_property_incast_completion_exact(n_senders, size):
    """N equal simultaneous pushes to one node finish at exactly N*S/b."""
    env = Environment()
    topo = StarTopology(
        n_senders + 1, default_spec=LinkSpec(bandwidth=100.0, latency=0.0)
    )
    net = Network(env, topo)
    dones = [net.transfer(i, n_senders, size) for i in range(n_senders)]
    env.run()
    expected = n_senders * size / 100.0
    for d in dones:
        assert d.value.end_time == pytest.approx(expected, rel=1e-9)


def test_tiny_remaining_bytes_never_livelock():
    """Regression: flows whose remainder is too small to advance the float
    clock must complete rather than re-arm the timer forever (the t≈17.6s
    livelock found during bring-up)."""
    env = Environment(initial_time=1e9)  # huge timestamps -> coarse ulps
    topo = StarTopology(3, default_spec=LinkSpec(bandwidth=1e9, latency=0.0))
    net = Network(env, topo)

    def staggered(env):
        yield env.timeout(1e-7)
        return net.transfer(1, 2, 1000.0)

    d1 = net.transfer(0, 2, 1000.0)
    p = env.process(staggered(env))
    env.run()
    assert d1.value is not None
    assert p.value.value is not None
