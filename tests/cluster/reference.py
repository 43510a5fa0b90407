"""Reference implementation the PS aggregation FIFO is tested against.

:class:`ProcessAggregatorContext` — ``transfer_to_ps`` with the aggregator
written as one ``_ingest`` Process per push, serialised on a one-unit
:class:`~repro.simcore.Resource` per PS. It costs more queue entries
per push than the production FIFO of callbacks: two (the process
bootstrap and the grant; its exit has no waiter, so it settles in place),
and three for a loopback push to a co-located PS (its network ``done`` is
processed before the process waits on it, so the wait is one more relay
entry). It must show the same virtual time: each
push's ``done`` pops at the same instant, with the same record, in the same
global order.
"""

from repro.cluster.context import TrainerContext
from repro.simcore import Event, Resource


class ProcessAggregatorContext(TrainerContext):
    """A :class:`TrainerContext` whose pushes are ingested by processes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._agg_resources = [
            Resource(self.env, capacity=1) for _ in self.spec.ps_nodes
        ]

    def transfer_to_ps(self, worker, nbytes, tag=None, ps_index=0, **flow_kwargs):
        net_done = self.network.transfer(
            self.spec.worker_node(worker),
            self.spec.ps_nodes[ps_index],
            nbytes,
            tag=tag,
            **flow_kwargs,
        )
        if self.spec.ps_agg_bandwidth is None or nbytes <= 0:
            return net_done
        done = Event(self.env)
        self.env.process(
            self._ingest(net_done, nbytes, done, self._agg_resources[ps_index])
        )
        return done

    def _ingest(self, net_done, nbytes, done, agg):
        record = yield net_done
        req = agg.request()
        yield req
        try:
            yield self.env.timeout(nbytes / self.spec.ps_agg_bandwidth)
        finally:
            agg.release()
        done.succeed(record)
