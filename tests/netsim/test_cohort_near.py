"""``_Cohort.near`` walks the key heap in place; popping it in order and
pushing the entries back (``tests/netsim/reference.py::near_by_popping``)
is the oracle. On random cohorts — stale entries, exact key ties, members at
every base and members re-rated within their anchor's instant — both return
the same flows, left in the same synced state."""

import copy
import random
from heapq import heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.flows import Flow
from repro.netsim.network import _Cohort
from tests.netsim.reference import near_by_popping

_SYNCED = ("rem_anchor", "t_anchor", "rate", "t_end", "base", "back")


def _flow(fid: int) -> Flow:
    return Flow(
        fid, 1, 0, 1.0, 1.0, (), 0.0, None, None, 0.0, 0.0, (), 0, None, 0.0, 0.0
    )


def _random_cohort(rng: random.Random):
    """A cohort with its steps, and its key heap holding members at every
    base, entries tied on their key and stale entries (finished flows and
    members of a cohort that is gone)."""
    t, rate = rng.uniform(0.0, 5.0), rng.uniform(10.0, 1000.0)
    cohort = _Cohort("down:0", t, rate)
    for _ in range(rng.randint(0, 6)):
        now = t + rng.choice([rng.uniform(1e-3, 0.5), 0.25])
        step = rate * (now - t)
        cohort.steps.append(step)
        cohort.times.append(t)
        cohort.rates.append(rate)
        cohort.cum.append(cohort.cum[-1] + step)
        t, rate = now, rng.uniform(10.0, 1000.0)
    cohort.t, cohort.rate = t, rate
    n_steps = len(cohort.steps)
    gone = _Cohort("down:0", 0.0, 1.0)
    keys: list[float] = []
    for fid in range(rng.randint(0, 40)):
        flow = _flow(fid)
        base = rng.randint(0, n_steps)
        cum = cohort.cum[base]
        if keys and rng.random() < 0.3:
            key = rng.choice(keys)  # an exact tie with an earlier entry
            rem = key - cum
            if rem <= 0.0:
                rem = rng.uniform(1.0, 500.0)
                key = rem + cum
        else:
            rem = rng.choice([rng.uniform(1e-7, 1e-5), rng.uniform(1.0, 500.0)])
            key = rem + cum
        keys.append(key)
        flow.rem_anchor, flow.base = rem, base
        flow.t_anchor = cohort.times[base] if base < n_steps else cohort.t
        flow.rate = cohort.rates[base] if base < n_steps else cohort.rate
        if base == n_steps and rng.random() < 0.3:
            flow.rate = rate * 2.0  # re-rated within its anchor's instant
        flow.t_end = flow.t_anchor + rem / flow.rate
        flow.cohort = rng.choice([cohort] * 4 + [None, gone])
        heappush(cohort.heap, (key, fid, flow))
    return cohort, keys


def _state(flows):
    return {
        f.fid: tuple(getattr(f, name) for name in _SYNCED) for f in flows
    }


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_heap_walk_returns_what_popping_returns(seed):
    rng = random.Random(seed)
    cohort, keys = _random_cohort(rng)
    cum = cohort.cum[-1]
    bounds = [rng.uniform(-1.0, 600.0)] + [k for k in keys[:3]] + [cum, -1.0, 1e9]
    for bound in bounds:
        walked = copy.deepcopy(cohort)
        popped = copy.deepcopy(cohort)
        got = walked.near(bound)
        want = near_by_popping(popped, bound)
        assert len({f.fid for f in got}) == len(got)
        assert sorted(f.fid for f in got) == sorted(f.fid for f in want)
        assert all(f.cohort is walked for f in got)
        assert _state(got) == _state(want)
        members = [e[2] for e in walked.heap if e[2].cohort is walked]
        assert _state(members) == _state(e[2] for e in popped.heap if e[2].cohort is popped)
        assert not walked.heap or walked.heap[0][2].cohort is walked
