"""WFBP — Wait-Free Backpropagation (Shi et al., MG-WFBP; paper §2.2.1).

The other way to overlap communication with computation: as backpropagation
proceeds from the last layer toward the first, each layer's gradient is
pushed the moment it is ready, overlapping the *remaining* backward pass.
The paper positions OSP against it: WFBP needs framework surgery and can
only hide transfers inside the tail of the current backward pass, while
OSP hides its deferred gradients inside the *whole next iteration*.

Model: the iteration's compute has already run when ``synchronize`` is
called (the trainer's structure), so we reconstruct the overlap window
analytically — layer *l*'s gradient becomes available at
``t_ready(l) = T_bwd · (flops fraction of layers after l)`` before the
compute event's end; its push starts then. We realise this by scheduling
per-layer pushes with virtual "readiness offsets" *into the recorded sync
phase*, crediting back the overlap: the sync clock starts at the end of
compute, but pushes that would have completed inside the backward window
contribute no exposed time.

Concretely: per layer (last to first) :func:`wfbp_overlap` runs a FIFO
finish-time recurrence — a push starts at ``max(ready, link_free)`` and
whatever it moves before the ``2/3·T_c`` backward window closes is hidden.
The exposed BST is the remainder — the same accounting WFBP papers use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.context import TrainerContext

from repro.hardware.compute import BACKWARD_FACTOR
from repro.netsim.prio import PRIO_HIGH, PRIO_NORMAL
from repro.sync.base import SyncModel


def wfbp_overlap(layer_bytes, t_bwd: float, fair_rate: float):
    """FIFO hidden/exposed decomposition of WFBP's layer-wise pushes.

    ``layer_bytes`` is ``(layer, nbytes)`` pairs in backward order
    (output-side first). Layer *i* becomes ready after the backward work of
    layers before it (approximated by byte share of ``t_bwd``); its push
    starts at ``max(ready_i, link_free)`` — transfers are FIFO on the
    worker's uplink, so a push cannot start while an earlier layer's bytes
    are still leaving. Bytes moved before ``t_bwd`` are hidden inside the
    backward pass; the rest are exposed.

    Returns ``[(layer, hidden_bytes, exposed_bytes), ...]`` with
    ``hidden + exposed == nbytes`` for every layer. An earlier buggy
    accounting subtracted a cumulative ``hidden_so_far`` from each layer's
    own ready-to-``t_bwd`` window, double-charging bytes that earlier
    layers had already sent *before* the later layer's window opened (the
    shared budget was debited once by time via ``link_free`` and again by
    volume), so layers ready after an idle uplink gap lost hidden capacity
    they really had.
    """
    total = sum(b for _l, b in layer_bytes)
    out = []
    ready = 0.0
    link_free = 0.0  # when the uplink finishes the previous layer's push
    for layer, nbytes in layer_bytes:
        if fair_rate > 0 and nbytes > 0:
            start = max(ready, link_free)
            link_free = start + nbytes / fair_rate
            hidden = min(float(nbytes), max(0.0, (t_bwd - start) * fair_rate))
        else:
            hidden = 0.0
        out.append((layer, hidden, nbytes - hidden))
        if total > 0:
            ready += t_bwd * (nbytes / total)
    return out


class WFBP(SyncModel):
    """Layer-wise push overlapped with the backward pass (BSP semantics)."""

    name = "wfbp"

    def setup(self, ctx: TrainerContext) -> None:
        super().setup(ctx)
        # Layers in backward order (output-side first): reversed splitter
        # order, since leaf_layers lists input-side first.
        self._layers_bwd = tuple(reversed(ctx.engine.splitter.layers))
        # P3-style priority schedule: the next forward pass consumes
        # parameters input-side first, so pushes for the first half of the
        # *forward* order are urgent (HIGH) and the output-side rest can
        # ride behind them (NORMAL). With priorities disabled the Network
        # coerces everything back to NORMAL and behaviour is unchanged.
        fwd = ctx.engine.splitter.layers
        self._prio_layers = frozenset(fwd[: max(1, len(fwd) // 2)])
        t_c = ctx.engine.base_compute_time(ctx.spec)
        self._t_bwd = t_c * BACKWARD_FACTOR / (1.0 + BACKWARD_FACTOR)

    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        engine = ctx.engine
        # Readiness times measured backward from compute end: layer i (in
        # backward order) is ready after the backward work of layers
        # 0..i-1. We approximate per-layer backward cost as proportional to
        # its byte share (documented approximation; conv FLOP shares are
        # not represented in the cards).
        # All N workers backprop in near-lockstep, so the overlapped window
        # moves bytes at the incast fair share b/N. Layers become ready
        # sequentially and transfers are FIFO per worker, so a layer's push
        # starts only once the uplink has finished the previous one.
        fair_rate = ctx.spec.link.bandwidth / ctx.spec.n_workers
        schedule = wfbp_overlap(
            [(layer, engine.layer_bytes[layer]) for layer in self._layers_bwd],
            self._t_bwd,
            fair_rate,
        )
        # The exposed push: one concurrent flow per layer with bytes left
        # over, all under one span.
        exposed = [
            (layer, nbytes, PRIO_HIGH if layer in self._prio_layers else PRIO_NORMAL, 0)
            for layer, _hidden, nbytes in schedule
            if nbytes > 0
        ]
        total = sum(nbytes for _l, _h, nbytes in schedule)
        yield from self.push(ctx, worker, iteration, "wfbp", total, parts=exposed)
        yield from self.sync_round(ctx, worker, iteration, grads)
        yield from self.pull(ctx, worker, iteration, "wfbp", engine.model_bytes, prio=PRIO_HIGH)
        ctx.engine.sync_replica(worker, ctx.ps)


__all__ = ["WFBP", "wfbp_overlap"]
