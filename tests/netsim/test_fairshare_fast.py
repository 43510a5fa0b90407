"""Differential tests: heap fair-share solver ≡ reference progressive filling.

The production solver's whole contract is *bit-identical rate dicts* — not
approximately-equal, ``==``-equal floats — on every input the reference
scan (``reference.py``) accepts. Hypothesis drives randomized
star topologies (the trainer's shape), multi-tier/general topologies,
degenerate eps-scale capacities, and loopback/empty-route flows through
both solvers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import fair_rates
from tests.netsim.reference import reference_fair_rates


# --------------------------------------------------- fast solver unit checks
def test_fast_matches_legacy_on_textbook_cascade():
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


@settings(max_examples=150, deadline=None)
@given(general_cases())
def test_fast_trusted_path_matches_validating_path(case):
    """validate=False (the Network's calling convention) must not change
    results on inputs that satisfy its contract."""
    flows, caps = case
    trusted = {
        fid: tuple(route) for fid, route in flows.items() if route
    }
    if not trusted:
        return
    assert fair_rates(trusted, caps, validate=False) == fair_rates(
        trusted, caps
    )
