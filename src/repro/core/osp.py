"""OSP — Overlapped Synchronization Parallel (paper §3–§4).

Per iteration, each worker:

1. waits for its previous iteration's ICS *push* to clear its uplink (the
   Eq. 5 budget makes this wait ≈0 in the common case);
2. splits its gradients by the current GIB into important ``G^i`` /
   unimportant ``G^u`` (Fig. 5 "Gradient splitter");
3. **RS** — pushes ``G^i``; the PS averages and applies once all workers
   deposit; a barrier closes the stage; the worker pulls the updated
   important parameters;
4. applies **LGP Eq. 6**: adopt global important params, advance
   unimportant params with the local gradient as a prediction;
5. launches **ICS** in the background: push ``G^u`` (overlapping the next
   iteration's compute), PS averages and applies when all arrive, worker
   pulls the global unimportant parameters and applies **LGP Eq. 7**
   (replace prediction with the global result, filtered by the current GIB
   so re-classified layers are never regressed).

The PS recomputes PGP importance and the GIB whenever an ICS round
completes (i.e. during the workers' compute — §3.2 challenge 1) and
broadcasts the new bitmap (tiny transfer); workers adopt it at the next RS
barrier so every worker always splits one iteration with one bitmap.

Degradation (§4.3): ``force="bsp"`` pins the GIB to all-important (OSP ≡
BSP + no-op ICS); ``force="asp"`` pins all-unimportant (RS carries no
payload; all traffic overlaps compute, ASP-like).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.context import TrainerContext

from typing import Optional

import numpy as np

from repro.bounds import COUNT, FRACTION, Bound, check_bounds
from repro.core.gib import GIB
from repro.core.lgp import EMALGPCorrector, LGPCorrector
from repro.core.tuning import MAX_MODEL_FRACTION, SGuTuner, ics_upper_bound
from repro.netsim.prio import PRIO_BULK, PRIO_HIGH, PRIO_URGENT
from repro.sync.base import SyncModel


class OSP(SyncModel):
    """Overlapped Synchronization Parallel.

    Parameters
    ----------
    max_model_fraction:
        Algorithm 1 line 2 cap on U_max (paper: 0.8).
    lgp:
        ``"local"`` (paper's LGP), ``"ema"`` (EMA-LGP ablation, §4.2) or
        ``"none"`` (no correction — stale-parameter ablation).
    force:
        ``None`` (adaptive, Algorithm 1), ``"bsp"`` or ``"asp"`` (§4.3
        degradation modes).
    fixed_budget_fraction:
        Ablation knob: bypass Algorithm 1 and hold S(G^u) constant at this
        fraction of the model size from the first iteration (still clipped
        to U_max so Eq. 5 is honoured).
    quorum_timeout:
        Optional virtual-seconds deadline for the RS barrier, measured from
        a round's first arrival. On expiry the round proceeds with whoever
        arrived (reweighted average over the present deposits) instead of
        deadlocking — the PS-side resilience of §4.3. ``None`` keeps the
        classic blocking barrier (though the quorum still shrinks when a
        worker is *known* dead via the fault schedule).
    deadline_k:
        §4.3 degradation trigger: after this many *consecutive* RS rounds
        in which some worker found its previous ICS push still on the
        uplink (the Eq. 5 deadline was blown), pin the GIB to
        all-important — BSP mode — for ``fallback_rounds`` rounds, then
        resume adaptive operation. ``None`` (default) disables the
        fallback; deadline misses are still counted.
    fallback_rounds:
        How long a triggered BSP fallback lasts, in RS rounds.
    """

    name = "osp"

    BOUNDS = {
        "max_model_fraction": FRACTION, "fallback_rounds": COUNT,
        "fixed_budget_fraction": Bound(0, 1, ends="[]", optional=True),
        "quorum_timeout": Bound(0, ends="()", optional=True),
        "deadline_k": Bound(1, integer=True, optional=True),
    }  # fmt: skip

    def __init__(
        self,
        max_model_fraction: float = MAX_MODEL_FRACTION,
        lgp: str = "local",
        force: Optional[str] = None,
        fixed_budget_fraction: Optional[float] = None,
        quorum_timeout: Optional[float] = None,
        deadline_k: Optional[int] = None,
        fallback_rounds: int = 8,
    ) -> None:
        if lgp not in ("local", "ema", "none"):
            raise ValueError(f"unknown lgp mode {lgp!r}")
        if force not in (None, "bsp", "asp"):
            raise ValueError(f"unknown force mode {force!r}")
        self.max_model_fraction = max_model_fraction
        self.lgp_mode = lgp
        self.force = force
        self.fixed_budget_fraction = fixed_budget_fraction
        self.quorum_timeout = quorum_timeout
        self.deadline_k = deadline_k
        self.fallback_rounds = fallback_rounds
        check_bounds(self)
        #: called with no arguments each time a PGP pass has staged (and
        #: broadcast) a new bitmap; read it from :attr:`staged_gib`
        self.gib_staged_hooks: list = []
        if force:
            self.name = f"osp-forced-{force}"
        elif fixed_budget_fraction is not None:
            self.name = f"osp-fixed-{fixed_budget_fraction:.0%}"

    # ------------------------------------------------------------- setup
    def setup(self, ctx: TrainerContext) -> None:
        super().setup(ctx)
        engine = ctx.engine
        self.splitter = engine.splitter
        layers = self.splitter.layers

        u_max = self._eq5_u_max(ctx, len(ctx.alive_workers))
        self._tuner = SGuTuner(u_max)
        ctx.trace.gauge("osp.u_max", u_max)
        ctx.membership_hooks.append(lambda n_alive: self._on_membership(ctx, n_alive))
        if self.fixed_budget_fraction is not None:
            # Ablation: constant budget from the start, Eq. 5-clipped.
            self._budget = min(
                self.fixed_budget_fraction * engine.model_bytes, u_max
            )
        else:
            self._budget = 0.0  # Algorithm 1: S(G^u)_1 = 0

        ctx.trace.gauge("osp.sgu_budget", self._budget)

        # Algorithm 1 starts all-important, which is also the §4.3 BSP pin.
        pin = GIB.all_unimportant if self.force == "asp" else GIB.all_important
        self._gib = pin(layers)
        self._pending_gib: Optional[GIB] = None
        #: The bitmap :attr:`_split_bytes` (RS bytes, ICS bytes) belongs to.
        self._split_gib: Optional[GIB] = None
        self._split_bytes = (0.0, 0.0)
        #: iteration -> RS deposits present when the round closed; the ICS
        #: round for that iteration expects the same quorum (a dead worker
        #: never pushes its ICS share, so waiting for N would hang).
        self._ics_expected: dict[int, int] = {}
        #: Eq. 5 deadline tracking for the §4.3 BSP fallback.
        self._round_blown: dict[int, bool] = {}
        self._consecutive_blown = 0
        self._fallback_remaining = 0

        n = ctx.spec.n_workers
        self._ics_push_done = [None] * n
        self._ics_proc = [None] * n
        self._ics_ready: dict[int, object] = {}
        #: worker -> wire bytes of an ICS push not yet fully arrived at the
        #: PS (checkpoint discard-policy accounting).
        self._ics_unarrived: dict[int, float] = {}
        corrector_cls = {
            "local": LGPCorrector,
            "ema": EMALGPCorrector,
            "none": None,
        }[self.lgp_mode]
        self._correctors = [
            corrector_cls(engine.worker_params(w)) if corrector_cls else None
            for w in range(n)
        ]

    def _eq5_u_max(self, ctx, n_alive: int) -> float:
        """Eq. 5: the PS-side link is the shared bottleneck for N ICS pushes.
        N is the *alive* worker count — it equals spec.n_workers for static
        runs, and the checkpoint-restored / elastic-initial count otherwise;
        membership changes re-derive it via _on_membership."""
        return ics_upper_bound(
            bandwidth=ctx.spec.link.bandwidth,
            loss_rate=1.0 - (1.0 - ctx.spec.link.loss_rate) ** 2,
            compute_time=ctx.engine.base_compute_time(ctx.spec),
            n_workers=max(1, n_alive),
            model_bytes=ctx.engine.model_bytes,
            max_model_fraction=self.max_model_fraction,
        )

    def _on_membership(self, ctx, n_alive: int) -> None:
        """Eq. 5 re-derivation when the worker set changes (elastic
        join/leave or crash/restart): N concurrent ICS pushes share the PS
        link, so U_max — and therefore the budget ceiling — moves with N.
        The GIB itself rebuilds at the next PGP pass."""
        if n_alive < 1:
            return
        u_max = self._eq5_u_max(ctx, n_alive)
        self._tuner.set_u_max(u_max)
        ctx.trace.gauge("osp.u_max", u_max)
        if self.fixed_budget_fraction is not None:
            self._budget = min(self.fixed_budget_fraction * ctx.engine.model_bytes, u_max)
        else:
            # A shrunk ceiling clips the current budget immediately; a grown
            # one takes effect at the next Algorithm 1 step.
            self._budget = min(self._budget, u_max)
        ctx.trace.gauge("osp.sgu_budget", self._budget)

    # ----------------------------------------------------------- tuning
    def on_epoch_end(self, ctx, epoch, train_loss, metric) -> None:
        if self.force is not None:
            return
        if self.fixed_budget_fraction is None:
            self._budget = self._tuner.budget(train_loss)
            ctx.trace.gauge("osp.sgu_budget", self._budget)
        # Recompute the bitmap now that the budget (or importance) moved —
        # this is also what bootstraps the first non-empty ICS (until then
        # the GIB is all-important and no ICS round ever completes to
        # trigger a refresh).
        self._refresh_gib(ctx)

    @property
    def u_max(self) -> float:
        """Eq. 5 upper bound in bytes (after the 80% cap)."""
        return self._tuner.u_max

    @property
    def current_budget(self) -> float:
        """Current S(G^u) in bytes."""
        return self._budget

    @property
    def current_gib(self) -> GIB:
        return self._gib

    @property
    def staged_gib(self) -> Optional[GIB]:
        """The bitmap the last PGP pass staged; adopted at the next round close."""
        return self._pending_gib

    def ics_quorum(self, iteration: int) -> Optional[int]:
        """Deposits ``iteration``'s ICS round waits for (frozen at its RS close)."""
        return self._ics_expected.get(iteration)

    # ------------------------------------------------------ synchronization
    def synchronize(self, ctx, worker, epoch, iteration, grads, loss):
        trace = ctx.env.tracer
        # (1) our previous ICS push must have left the uplink. Having to
        # wait here means the ICS blew its Eq. 5 deadline (the budget no
        # longer fits inside T_c — loss burst, bandwidth dip, ...).
        prev_push = self._ics_push_done[worker]
        if prev_push is not None and not prev_push.triggered:
            if not self._round_blown.get(iteration):
                self._round_blown[iteration] = True
                ctx.recorder.incr("osp.deadline_miss")
                if trace:
                    trace.instant(
                        "osp.deadline_miss", actor="faults", track="faults",
                        worker=worker, iteration=iteration,
                    )
            if trace:
                stall = trace.begin(
                    "ics_stall", f"worker {worker}", worker=worker, iteration=iteration
                )
            yield prev_push
            if trace:
                trace.end(stall)

        gib = self._gib  # capture: one bitmap per iteration, all stages
        if gib is not self._split_gib:
            # The split's byte sums change only with the bitmap: computed
            # once per GIB adopted, however it was assigned.
            self._split_gib = gib
            self._split_bytes = (
                ctx.engine.bytes_of_layers(gib.important_layers),
                ctx.engine.bytes_of_layers(gib.unimportant_layers),
            )
        imp_layers = gib.important_layers
        unimp_layers = gib.unimportant_layers
        imp_bytes, unimp_bytes = self._split_bytes
        if trace:  # push + pull both move every layer of each stage
            trace.add_traffic("rs", imp_layers, ctx.engine.layer_bytes, moves=2)
            trace.add_traffic("ics", unimp_layers, ctx.engine.layer_bytes, moves=2)

        if grads is not None:
            g_imp, g_unimp = self.splitter.split(grads, gib)
        else:
            g_imp = g_unimp = None

        # (2) RS push, then the synchronous round over G^i (SyncModel.sync_round).
        yield from self.push(ctx, worker, iteration, "rs", imp_bytes, prio=PRIO_HIGH)
        yield from self.sync_round(ctx, worker, iteration, g_imp)

        # (3) RS pull: updated important parameters.
        yield from self.pull(ctx, worker, iteration, "rs", imp_bytes, prio=PRIO_HIGH)

        # (4) LGP Eq. 6.
        corrector = self._correctors[worker]
        if ctx.ps.numeric:
            with ctx.trace.span(
                "lgp_correction", f"worker {worker}", worker=worker, iteration=iteration, eq=6
            ):
                imp_names = self.splitter.params_of(imp_layers)
                if corrector is not None:
                    # Read-only, consumed before the next yield — safe to
                    # skip the deep copy (see ParameterServer.snapshot).
                    snap = ctx.ps.snapshot(imp_names, copy=False)
                    corrector.apply_rs(snap, g_unimp or {}, lr=ctx.current_lr)
                else:
                    # no-LGP ablation: adopt important params, leave the
                    # rest stale
                    ctx.engine.sync_replica(worker, ctx.ps, imp_names)

        # (5) ICS in the background (overlaps the next compute).
        if unimp_layers:
            self._ics_proc[worker] = ctx.env.process(
                self._ics_process(
                    ctx, worker, iteration, g_unimp, unimp_layers, unimp_bytes
                )
            )
        else:
            self._ics_push_done[worker] = None

    def on_round_close(self, ctx, iteration, n_deposits) -> None:
        # The ICS round of this iteration waits for the same quorum.
        self._ics_expected[iteration] = n_deposits

        # Adopt a freshly-broadcast GIB exactly once per barrier generation,
        # i.e. after every worker has split this iteration with the old one.
        if self._pending_gib is not None:
            self._gib = self._pending_gib
            self._pending_gib = None

        if self.force is not None:
            return
        # §4.3 deadline-triggered degradation to BSP and back.
        blown = self._round_blown.pop(iteration, False)
        if self._fallback_remaining > 0:
            self._fallback_remaining -= 1
            if self._fallback_remaining == 0:
                ctx.recorder.incr("osp.bsp_fallback_exit")
                self._refresh_gib(ctx)  # resume adaptive splitting
            return
        if blown and self.deadline_k is not None:
            self._consecutive_blown += 1
            if self._consecutive_blown >= self.deadline_k:
                ctx.recorder.incr("osp.bsp_fallback")
                self._consecutive_blown = 0
                self._fallback_remaining = self.fallback_rounds
                self._gib = GIB.all_important(self.splitter.layers)
                self._pending_gib = None
        elif not blown:
            self._consecutive_blown = 0

    def _ics_process(self, ctx, worker, iteration, g_unimp, unimp_layers, unimp_bytes):
        trace = ctx.env.tracer
        if trace:
            # Separate timeline row per worker: the whole point of ICS is
            # that these spans overlap the next iteration's compute span.
            actor = f"worker {worker} (ics)"
            trace.gauge_delta("osp.inflight_ics_bytes", unimp_bytes)
            span = trace.begin(
                "ics_push", actor, track="ics",
                worker=worker, iteration=iteration, bytes=unimp_bytes,
            )
        self._ics_unarrived[worker] = unimp_bytes
        push = ctx.transfer_to_ps(
            worker, unimp_bytes, tag=("ics-push", worker, iteration), prio=PRIO_BULK
        )
        self._ics_push_done[worker] = push
        yield push
        self._ics_unarrived.pop(worker, None)
        if trace:
            trace.end(span)
            trace.gauge_delta("osp.inflight_ics_bytes", -unimp_bytes)

        bucket = f"ics:{iteration}"
        # The RS round already fixed how many workers participate in this
        # iteration; a crashed worker's ICS share will never arrive.
        expected = self._ics_expected.get(iteration, ctx.spec.n_workers)
        ready = self._ready(ctx, iteration)
        if ctx.ps.accumulate(bucket, worker, g_unimp) >= expected and not ready.triggered:
            ctx.ps.apply_average(bucket)
            snapshot = (
                ctx.ps.snapshot(self.splitter.params_of(unimp_layers))
                if ctx.ps.numeric
                else {}
            )
            ready.succeed(snapshot)
            self._refresh_gib(ctx)
            # Hygiene: ready-events three iterations back are guaranteed
            # consumed (the RS barrier serialises rounds), so drop them to
            # keep memory flat over long runs.
            self._ics_ready.pop(iteration - 3, None)
            self._ics_expected.pop(iteration - 3, None)

        if trace:
            span = trace.begin("ics_wait", actor, track="ics", worker=worker, iteration=iteration)
        snapshot = yield ready
        if trace:
            trace.end(span)
        yield from self.pull(ctx, worker, iteration, "ics", unimp_bytes,
                             span="ics_pull", prio=PRIO_BULK, track="ics")

        # LGP Eq. 7, filtered by the *current* bitmap so layers promoted to
        # RS since are never overwritten with an older value.
        corrector = self._correctors[worker]
        if corrector is not None and ctx.ps.numeric and snapshot:
            with ctx.trace.span(
                "lgp_correction", f"worker {worker} (ics)", track="ics",
                worker=worker, iteration=iteration, eq=7,
            ):
                still_unimp = set(
                    self.splitter.params_of(self._gib.unimportant_layers)
                )
                filtered = {
                    n: v for n, v in snapshot.items() if n in still_unimp
                }
                corrector.apply_ics(filtered)

    def _ready(self, ctx, iteration):
        ev = self._ics_ready.get(iteration)
        if ev is None:
            ev = ctx.env.event()
            self._ics_ready[iteration] = ev
        return ev

    def _refresh_gib(self, ctx) -> None:
        """PS side: recompute importance + bitmap; broadcast to workers."""
        if self.force is not None:
            return
        if self._fallback_remaining > 0:
            # BSP fallback pins the bitmap; late ICS completions from
            # pre-fallback iterations must not stage a new one.
            return
        trace = ctx.trace
        with trace.span("pgp_compute", "ps", track="ps", cat="ps"):
            importance = ctx.engine.ps_layer_importance(ctx.ps)
            new_gib = GIB.from_importance(
                importance,
                ctx.engine.layer_bytes,
                self._budget,
                layers=self.splitter.layers,
            )
        self._pending_gib = new_gib
        trace.instant(
            "gib_fetch", actor="ps", track="ps",
            wire_bytes=new_gib.wire_bytes(),
            unimportant_layers=len(new_gib.unimportant_layers),
        )
        # Traffic accounting for the (tiny) bitmap broadcast (§4.1.2). The
        # bitmap gates the next split on every worker, so it jumps the queue
        # ahead of even RS payload traffic.
        for w in range(ctx.spec.n_workers):
            ctx.transfer_from_ps(
                w, new_gib.wire_bytes(), tag=("gib", w), prio=PRIO_URGENT
            )
        for hook in self.gib_staged_hooks:
            hook()

    def finalize(self, ctx, worker):
        proc = self._ics_proc[worker]
        if proc is not None and not proc.triggered:
            yield proc

    # --------------------------------------------------------- checkpointing
    def checkpoint_state(self, ctx) -> dict:
        """OSP-specific state for a checkpoint: the SGuTuner (U_max and the
        Algorithm 1 normaliser L), the budget, the current and staged GIBs,
        and the §4.3 fallback counters.  Captured at a drained epoch
        boundary, so no per-round ICS bookkeeping needs to travel."""
        pending = self._pending_gib
        return {
            "kind": "osp",
            "force": self.force,
            "lgp": self.lgp_mode,
            "u_max": float(self._tuner.u_max),
            "initial_loss": self._tuner.initial_loss,
            "budget": float(self._budget),
            "gib_layers": list(self._gib.layers),
            "gib_bits": self._gib.pack().hex(),
            "pending_gib_bits": pending.pack().hex() if pending is not None else None,
            "consecutive_blown": int(self._consecutive_blown),
            "fallback_remaining": int(self._fallback_remaining),
        }

    def checkpoint_arrays(self, ctx) -> dict:
        out = {}
        for worker, corrector in enumerate(self._correctors):
            ema = getattr(corrector, "_ema", None)
            if ema:
                for name, arr in ema.items():
                    out[f"lgp_ema/{worker}/{name}"] = arr
        return out

    def restore_state(self, ctx, state, arrays) -> None:
        from repro.ckpt.snapshot import CheckpointError

        if state.get("kind") != "osp":
            raise CheckpointError("checkpoint was not written by an OSP run")
        if state.get("force") != self.force or state.get("lgp") != self.lgp_mode:
            raise CheckpointError(
                "OSP configuration (force/lgp mode) differs from the checkpointed run"
            )
        layers = tuple(state["gib_layers"])
        if layers != tuple(self.splitter.layers):
            raise CheckpointError("layer list differs from the checkpointed run")
        self._tuner.load_state({"u_max": state["u_max"], "initial_loss": state["initial_loss"]})
        self._budget = float(state["budget"])
        self._gib = GIB.unpack(bytes.fromhex(state["gib_bits"]), layers)
        pending = state.get("pending_gib_bits")
        self._pending_gib = GIB.unpack(bytes.fromhex(pending), layers) if pending else None
        self._consecutive_blown = int(state["consecutive_blown"])
        self._fallback_remaining = int(state["fallback_remaining"])
        for key, arr in arrays.items():
            if not key.startswith("lgp_ema/"):
                continue
            _prefix, worker, name = key.split("/", 2)
            corrector = self._correctors[int(worker)]
            if corrector is not None:
                corrector._ema[name] = np.array(arr, copy=True)
        ctx.trace.gauge("osp.u_max", self._tuner.u_max)
        ctx.trace.gauge("osp.sgu_budget", self._budget)

    def inflight_events(self, ctx) -> list:
        """Open ICS processes: draining them runs the push → apply → pull →
        Eq. 7 chain to completion before the snapshot is taken."""
        return [p for p in self._ics_proc if p is not None and not p.triggered]

    def inflight_bytes(self, ctx) -> float:
        """Wire bytes of ICS pushes still on the network (discard policy)."""
        return float(sum(self._ics_unarrived.values()))

    def worker_signals(self, ctx) -> dict:
        # ICS backlog per worker: unimportant-gradient bytes pushed but not
        # yet landed on the PS. A worker whose backlog never drains before
        # its next RS close is the one blowing the Eq. 5 budget.
        signals = {
            f"osp.worker.{w}.ics_backlog_bytes": 0.0 for w in ctx.alive_workers
        }
        for w, unarrived in self._ics_unarrived.items():
            signals[f"osp.worker.{w}.ics_backlog_bytes"] = float(unarrived)
        return signals


__all__ = ["OSP"]
