"""NodePool placement accounting: exclusive vs shared, rollback, release."""

import pytest

from repro.multijob.pool import NodePool, PLACEMENT_MODES
from repro.simcore.environment import Environment


def _pool(n_hosts=4, slots=1, gpus=None):
    return NodePool(
        Environment(), n_hosts, slots_per_host=slots, gpus_per_host=gpus
    )


def test_exclusive_takes_lowest_free_hosts_whole():
    pool = _pool(4)
    a = pool.allocate("a", 2, "exclusive")
    assert a.hosts == (0, 1)
    b = pool.allocate("b", 2, "exclusive")
    assert b.hosts == (2, 3)
    assert not pool.can_allocate(1, "exclusive")
    pool.release(a)
    assert pool.can_allocate(2, "exclusive")
    c = pool.allocate("c", 2, "exclusive")
    assert c.hosts == (0, 1)


def test_exclusive_overflow_raises_and_changes_nothing():
    pool = _pool(2)
    pool.allocate("a", 2, "exclusive")
    with pytest.raises(RuntimeError, match="cannot place"):
        pool.allocate("b", 1, "exclusive")
    assert pool._free == [0, 0]


def test_shared_spreads_then_stacks_identically():
    # Two same-shape jobs on a just-big-enough pool land on the SAME
    # hosts in the SAME order — the co-location the contention bench
    # relies on.
    pool = _pool(3, slots=2)
    a = pool.allocate("a", 3, "shared")
    b = pool.allocate("b", 3, "shared")
    assert a.hosts == b.hosts == (0, 1, 2)
    assert not pool.can_allocate(1, "shared")


def test_shared_prefers_most_free_host():
    pool = _pool(2, slots=2)
    a = pool.allocate("a", 1, "shared")
    assert a.hosts == (0,)
    # host 1 now has more free slots than host 0
    b = pool.allocate("b", 1, "shared")
    assert b.hosts == (1,)


def test_shared_rollback_on_overflow():
    pool = _pool(2, slots=1)
    with pytest.raises(RuntimeError, match="out of host slots"):
        pool.allocate("big", 3, "shared")
    # partial assignment rolled back: both hosts free again
    assert pool._free == [1, 1]


def test_exclusive_needs_fully_free_hosts():
    pool = _pool(2, slots=2)
    pool.allocate("a", 1, "shared")
    # host 0 is half-occupied: exclusive can only use host 1
    assert pool.can_allocate(1, "exclusive")
    assert not pool.can_allocate(2, "exclusive")
    b = pool.allocate("b", 1, "exclusive")
    assert b.hosts == (1,)


def test_release_restores_consumed_slots():
    pool = _pool(2, slots=2)
    p = pool.allocate("a", 3, "shared")
    assert pool._free == [0, 1]
    pool.release(p)
    assert pool._free == [2, 2]


def test_pool_validation():
    with pytest.raises(ValueError):
        _pool(0)
    with pytest.raises(ValueError):
        _pool(2, slots=0)
    with pytest.raises(ValueError):
        _pool(2, gpus=0)
    pool = _pool(2)
    with pytest.raises(ValueError, match="placement mode"):
        pool.allocate("a", 1, "bogus")
    with pytest.raises(ValueError):
        pool.allocate("a", 0, "shared")
    assert PLACEMENT_MODES == ("exclusive", "shared")


def test_compute_slots_capacity_follows_gpus_per_host():
    pool = _pool(2, slots=2, gpus=1)
    assert pool.compute_slot(0).capacity == 1
    pool2 = _pool(2, slots=2)
    assert pool2.compute_slot(0).capacity == 2  # defaults to slots_per_host


def test_topology_matches_single_tenant_star():
    from repro.netsim.topology import StarTopology

    pool = _pool(5)
    assert isinstance(pool.topology, StarTopology)
    assert pool.topology.n_nodes == 5
    ref = StarTopology(5, default_spec=pool.link)
    assert [l.name for l in pool.topology.links] == [l.name for l in ref.links]
