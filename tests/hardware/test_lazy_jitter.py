"""``LognormalJitter`` builds worker ``w``'s stream on its first draw.

Whatever order the workers ask in, every ``(worker, iteration)`` factor is
the draw an eagerly built ``PCG64(SeedSequence([seed, w]))`` stream gives
it, ``state_dict()`` is byte for byte the eager model's (all ``n_workers``
streams, the unused ones freshly seeded), and a model restored from it
continues exactly as the original does.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import LognormalJitter


class _Eager:
    """The reference: every stream built up front, a factor drawn the first
    time its ``(worker, iteration)`` is asked for."""

    def __init__(self, sigma, seed, n_workers):
        self.sigma = sigma
        self.streams = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, w])))
            for w in range(n_workers)
        ]
        self.factors = {}

    def sample(self, base, worker, iteration):
        key = (worker, iteration)
        if key not in self.factors:
            draw = self.streams[worker].normal(0.0, self.sigma)
            self.factors[key] = float(np.exp(draw))
        return base * self.factors[key]

    def state_dict(self):
        return {"kind": "lognormal", "streams": [g.bit_generator.state for g in self.streams]}


def _bytes(state):
    return json.dumps(state).encode()


@st.composite
def _plans(draw):
    n_workers = draw(st.integers(1, 6))
    ask = st.tuples(st.integers(0, n_workers - 1), st.integers(0, 4))
    return (
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 2**32)),
        n_workers,
        draw(st.lists(ask, max_size=30)),
        draw(st.lists(ask, max_size=15)),
    )


@given(_plans())
@settings(max_examples=60, deadline=None)
def test_property_lazy_streams_match_eager_ones_in_any_order(plan):
    sigma, seed, n_workers, asks, more = plan
    lazy = LognormalJitter(sigma=sigma, seed=seed, n_workers=n_workers)
    eager = _Eager(sigma, seed, n_workers)
    for worker, iteration in asks:
        assert lazy.sample(2.0, worker, iteration) == eager.sample(2.0, worker, iteration)

    state = lazy.state_dict()
    assert _bytes(state) == _bytes(eager.state_dict())

    restored = LognormalJitter(sigma=sigma, seed=seed, n_workers=n_workers)
    restored.load_state(state)
    assert _bytes(restored.state_dict()) == _bytes(state)
    # the cache is not checkpointed: a restored model draws afresh, so the
    # continuation is compared on iterations none of the models has seen
    for worker, iteration in more:
        expected = eager.sample(1.0, worker, 100 + iteration)
        assert lazy.sample(1.0, worker, 100 + iteration) == expected
        assert restored.sample(1.0, worker, 100 + iteration) == expected
