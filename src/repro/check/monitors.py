"""Runtime invariant monitors (``repro.check``).

Three subsystems (faults, obs, elastic ckpt) mutate shared
PS/worker/network state concurrently, and every correctness claim in the
paper — GIB partitions (§4.2), the S(G^u) ≤ U_max ≤ 0.8·model-bytes chain
(Eq. 5), the §4.3 degradation theorems, SSP/DSSP staleness bounds — was
enforced only implicitly. The monitors here turn those claims into cheap,
opt-in runtime checks that fire *at the simulation event where the
invariant breaks* instead of surfacing as downstream accuracy drift.

Mechanics: a monitor *subscribes* — it appends a bound method to the hook
lists of ``repro.obs.registry.HOOKS`` that ``Network``, ``ParameterServer``,
``TrainerContext`` and ``OSP`` own, and reads public state only: nothing is
patched, no underscore name touched (``tests/check/test_no_private_reach.py``).
Subscribers run synchronously where the owner emits and are strictly passive
(no simulation events, timeouts or processes — a checked run's virtual
timeline is bit-identical to an unchecked one's); an empty list costs a
``for`` over nothing.

Usage::

    trainer = DistributedTrainer(spec, plan, engine, OSP())
    result, report = run_checked(trainer)          # strict: raises on
    assert report.ok                               # the first violation

or via the CLI: ``python -m repro check --sync osp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

from repro.core.osp import OSP
from repro.netsim.network import _BYTE_EPS
from repro.netsim.topology import route_loss
from repro.sync.ssp import SSP


_CARRIED = attrgetter("bytes_carried")


class InvariantViolation(AssertionError):
    """A monitor's invariant failed, with event-time context attached."""

    def __init__(self, monitor: str, message: str, *, time=None, context=None):
        self.monitor = monitor
        self.time = time
        self.context = dict(context or {})
        stamp = "" if time is None else f" at t={time:.6f}"
        super().__init__(f"[{monitor}]{stamp} {message}")


class Monitor:
    """Base class: one named invariant, a check counter, and violations."""

    #: registry key; also the prefix shown in violation messages.
    name = "abstract"
    #: one-line cost note (documented in docs/invariants.md).
    cost = ""

    def __init__(self) -> None:
        self.checks = 0
        self.violations: list[InvariantViolation] = []
        self._checker: Optional["InvariantChecker"] = None

    def attach(self, checker: "InvariantChecker", trainer) -> bool:
        """Report to ``checker`` and subscribe; False when not applicable."""
        self._checker = checker
        return self.subscribe(trainer)

    def subscribe(self, trainer) -> bool:
        """Append to ``trainer``'s hook lists; False when not applicable."""
        raise NotImplementedError

    def finish(self, trainer) -> None:
        """End-of-run checks (after ``trainer.run()`` returned)."""

    def fail(self, message: str, **context) -> None:
        violation = InvariantViolation(
            self.name, message, time=self._checker.now, context=context
        )
        self.violations.append(violation)
        self._checker.on_violation(violation)


class NetworkConservationMonitor(Monitor):
    """Netsim byte conservation: flow bytes in == bytes carried on links.

    A flow credits its links when it finishes, so at *every* drain — and
    through bandwidth-dip/flap/loss-burst windows, since faults change
    rates, never conservation — the links' ``bytes_carried`` must equal the
    sum over finished flows of ``effective · len(route)`` (effective = size
    × (1 + loss at start), recomputed from the topology exactly as the
    scheduler samples it, not read off the flow). In-flight progress would
    add the same partial bytes to both sides (:meth:`Network.ledger`), so
    the check reads the finished flows only. The tolerance covers float
    summation order.

    A flow is tracked from when it goes on the wire until its record
    appears in ``Network.records``; a cursor over the records folds each
    finished flow in once, so a drain costs O(links + flows finished since
    the last one). The topology is asked for each ``(src, dst)`` route once;
    the loss is folded over that route at every flow start.
    """

    name = "net.conservation"
    cost = "O(links + newly finished flows) per network drain, O(route) per flow start"

    def subscribe(self, trainer) -> bool:
        net = trainer.network
        if net.active_flows:  # attached mid-run: history is unreconstructable
            return False
        self._net = net
        self._links = tuple(net.topology.links)
        self._routes: dict[tuple, tuple] = {}  # (src, dst) -> links
        self._flows: dict[int, tuple[float, int]] = {}  # fid -> (eff, links)
        #: Link-bytes of the finished flows, and how many records are folded.
        self._done_bytes = 0.0
        self._cursor = len(net.records)
        self._baseline = sum(map(_CARRIED, self._links))
        net.flow_hooks.append(self._on_flow)
        net.drain_hooks.append(self._verify)
        return True

    def _on_flow(self, flow) -> None:
        # Recomputed from the topology, not read off the flow: the monitor
        # must not trust the scheduler's own inflation of the payload. The
        # loss is a live read over the route (fault windows move it).
        key = (flow.src, flow.dst)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = tuple(self._net.topology.route(*key))
        effective = flow.size * (1.0 + route_loss(route))
        if route and effective > _BYTE_EPS:
            self._flows[flow.fid] = (effective, len(route))

    def _verify(self) -> None:
        records = self._net.records
        if len(records) > self._cursor:
            flows = self._flows
            for record in records[self._cursor:]:
                tracked = flows.pop(record.fid, None)
                if tracked is not None:
                    effective, n_links = tracked
                    self._done_bytes += effective * n_links
            self._cursor = len(records)
        carried = sum(map(_CARRIED, self._links)) - self._baseline
        expected = self._done_bytes
        tol = 1e-3 + 1e-9 * max(abs(carried), abs(expected))
        self.checks += 1
        if abs(carried - expected) > tol:
            self.fail(
                f"link bytes_carried {carried:.3f} != finished flows' bytes "
                f"{expected:.3f} (|diff| {abs(carried - expected):.3f} > "
                f"tol {tol:.3f})",
                carried=carried,
                expected=expected,
            )

    def finish(self, trainer) -> None:
        self._verify()


def _degraded(recorder) -> bool:
    """Whether a round of the run was degraded or shrunk (a crash, a quorum
    timeout or a leave): such a round legitimately strands late deposits
    and ICS bytes, so the end-of-run ledgers excuse what is left over."""
    return bool(
        recorder.counter("faults.worker_crash")
        or recorder.counter("osp.quorum_timeout")
        or recorder.counter("elastic.worker_leave")
    )


class PSLedgerMonitor(Monitor):
    """PS ``accumulate``/``apply_average`` pairing and no-lost-deposit.

    A shadow ledger mirrors every bucket: duplicate deposits, applies on
    buckets with no observed deposits, and ledger/PS count desyncs fail at
    the call. At run end, any deposit that never reached an apply is a lost
    gradient — enforced only on clean runs (no crashes, no degraded-quorum
    timeouts, no elastic leaves), since those legitimately strand late
    deposits; see docs/invariants.md.
    """

    name = "ps.ledger"
    cost = "O(1) per deposit/apply"

    def subscribe(self, trainer) -> bool:
        ps = trainer.ps
        self._ps = ps
        self._deposits: dict[str, set[int]] = {}
        ps.deposit_hooks.append(self._on_deposit)
        ps.apply_hooks.append(self._on_apply)
        return True

    def _on_deposit(self, bucket, worker) -> None:
        # Runs before the PS stores the deposit, so a duplicate is reported
        # here rather than as the PS's own RuntimeError.
        self.checks += 1
        seen = self._deposits.setdefault(bucket, set())
        if worker in seen:
            self.fail(
                f"worker {worker} deposited twice in bucket {bucket!r}",
                bucket=bucket,
                worker=worker,
            )
        count = self._ps.pending(bucket)
        if count != len(seen):
            self.fail(
                f"bucket {bucket!r}: PS reports {count} deposits, ledger "
                f"saw {len(seen)}",
                bucket=bucket,
            )
        seen.add(worker)

    def _on_apply(self, bucket) -> None:
        self.checks += 1
        if bucket is None:  # apply_immediate: no bucket, nothing to pair
            return
        seen = self._deposits.get(bucket, set())
        if not seen:
            self.fail(
                f"apply_average on bucket {bucket!r} with no observed "
                "deposits",
                bucket=bucket,
            )
        elif self._ps.pending(bucket) != len(seen):
            self.fail(
                f"bucket {bucket!r}: PS holds {self._ps.pending(bucket)} "
                f"deposits, ledger saw {len(seen)}",
                bucket=bucket,
            )
        self._deposits.pop(bucket, None)

    def finish(self, trainer) -> None:
        stranded = {b: sorted(s) for b, s in self._deposits.items() if s}
        if not stranded:
            return
        if _degraded(trainer.recorder):
            return  # late arrivals after a degraded/shrunk round: by design
        self.checks += 1
        self.fail(
            f"lost deposits at run end: {stranded} (no crash/timeout/leave "
            "to excuse them)",
            stranded=stranded,
        )


class GIBInvariantMonitor(Monitor):
    """GIB partition + Eq. 5 budget-chain invariants for OSP.

    At every GIB *build* (``gib_staged_hooks``): RS ∪ ICS covers exactly the
    model's layers, the two sets are disjoint, and the deferred bytes obey
    S(G^u) ≤ budget ≤ U_max ≤ ``max_model_fraction`` · model bytes. At
    every round close (``round_close_hooks``), the adopted bitmap is
    re-validated — the budget is *not* rechecked there, because a
    membership change may legally clip it after a GIB was staged (the
    bitmap rebuilds at the next PGP pass). Forced modes additionally pin
    the §4.3 degenerate partitions (all-RS / all-ICS).
    """

    name = "osp.gib"
    cost = "O(layers) per PGP refresh / RS round close"

    def subscribe(self, trainer) -> bool:
        sync = trainer.sync_model
        if not isinstance(sync, OSP):
            return False
        self._sync = sync
        self._engine = trainer.engine
        self._layers = frozenset(trainer.engine.splitter.layers)
        sync.gib_staged_hooks.append(self._on_staged)
        trainer.ctx.round_close_hooks.append(self._on_close)
        return True

    def _check_partition(self, gib, where: str) -> None:
        important = set(gib.important_layers)
        unimportant = set(gib.unimportant_layers)
        overlap = important & unimportant
        if overlap:
            self.fail(
                f"{where}: RS ∩ ICS not empty: {sorted(overlap)}",
                overlap=sorted(overlap),
            )
        union = important | unimportant
        if union != self._layers:
            missing = sorted(self._layers - union)
            foreign = sorted(union - self._layers)
            self.fail(
                f"{where}: RS ∪ ICS != model layers "
                f"(missing {missing}, foreign {foreign})",
                missing=missing,
                foreign=foreign,
            )

    def _on_staged(self) -> None:
        gib = self._sync.staged_gib
        self.checks += 1
        self._check_partition(gib, "staged GIB")
        deferred = self._engine.bytes_of_layers(gib.unimportant_layers)
        budget = self._sync.current_budget
        u_max = self._sync.u_max
        cap = self._sync.max_model_fraction * self._engine.model_bytes
        eps = 1e-6 + 1e-9 * self._engine.model_bytes
        if deferred > budget + eps:
            self.fail(
                f"S(G^u) {deferred:.0f} B exceeds budget {budget:.0f} B",
                deferred=deferred,
                budget=budget,
            )
        if budget > u_max + eps:
            self.fail(
                f"budget {budget:.0f} B exceeds Eq. 5 U_max {u_max:.0f} B",
                budget=budget,
                u_max=u_max,
            )
        if u_max > cap + eps:
            self.fail(
                f"U_max {u_max:.0f} B exceeds "
                f"{self._sync.max_model_fraction:.0%} of model bytes "
                f"({cap:.0f} B)",
                u_max=u_max,
                cap=cap,
            )

    def _on_close(self, iteration, n_deposits) -> None:
        self.checks += 1
        gib = self._sync.current_gib
        self._check_partition(gib, f"adopted GIB (iteration {iteration})")
        n_layers = len(self._layers)
        if self._sync.force == "bsp" and gib.n_important != n_layers:
            self.fail(
                f"force='bsp' but GIB defers "
                f"{n_layers - gib.n_important} layers (§4.3 all-RS ≡ BSP)",
                iteration=iteration,
            )
        if self._sync.force == "asp" and gib.n_important != 0:
            self.fail(
                f"force='asp' but GIB keeps {gib.n_important} layers in RS "
                "(§4.3 all-ICS ≡ ASP)",
                iteration=iteration,
            )


class StalenessBoundMonitor(Monitor):
    """SSP/DSSP: ``iteration − min(progress) ≤ staleness`` at compute start.

    Asserted synchronously after ``before_compute``'s wait completes (no
    yields in between, so no other worker can advance the clock before the
    check) against the *current* bound — DSSP's adaptation included.
    """

    name = "sync.staleness"
    cost = "O(workers) per compute start"

    def subscribe(self, trainer) -> bool:
        sync = trainer.sync_model
        if not isinstance(sync, SSP):  # DSSP subclasses SSP
            return False
        self._sync = sync
        self._ctx = trainer.ctx
        trainer.ctx.compute_start_hooks.append(self._on_compute_start)
        return True

    def _on_compute_start(self, worker, iteration) -> None:
        self.checks += 1
        # Alive-only floor, mirroring the bound SSP actually enforces —
        # a crashed worker's frozen progress is not a legal gate.
        lag = iteration - self._sync.floor(self._ctx)
        bound = self._sync.staleness
        if lag > bound:
            self.fail(
                f"worker {worker} starts iteration {iteration} with lag "
                f"{lag} > staleness bound {bound}",
                worker=worker,
                iteration=iteration,
                lag=lag,
                bound=bound,
            )


class QuorumConsistencyMonitor(Monitor):
    """Membership timeline vs live quorum sizes (ROADMAP item).

    Reads the spec's membership timeline (crash, restart, join, leave: one
    list per worker in the fault schedule) for the worker set that *should*
    be alive when each epoch completes, and at every epoch boundary — of a
    resumed run too, from its first epoch on — asserts:

    * the context's live set matches the timeline (crash/leave events
      dated a *later* epoch may legitimately have fired already — a fast
      worker reaches its epoch top before stragglers finish an earlier
      epoch, by one epoch under a barrier and by as many as the staleness
      bound allows under SSP/DSSP/ASP — so those are tolerated as early
      departures);
    * every :class:`QuorumBarrier` the context handed out is sized
      ``max(1, |alive|)`` — the resize every membership change promises.

    For OSP it additionally checks, at every RS round close, that the
    frozen ICS quorum (the deposit count the ICS stage will wait for)
    never exceeds the live worker count at freeze time.
    """

    name = "elastic.quorum"
    cost = "O(workers) per epoch boundary / RS round close"

    def subscribe(self, trainer) -> bool:
        spec = trainer.spec
        if spec.faults is None or not spec.faults.membership_events:
            return False
        self._ctx = trainer.ctx
        self._timeline = spec.faults
        self._workers = range(spec.n_workers)
        trainer.ctx.epoch_end_hooks.append(self._on_epoch_end)
        sync = trainer.sync_model
        if isinstance(sync, OSP):
            self._sync = sync
            trainer.ctx.round_close_hooks.append(self._on_round_close)
        return True

    def _on_epoch_end(self, epoch: int, train_loss: float, metric: float) -> None:
        ctx = self._ctx
        if ctx.stopped:
            return  # early stop cuts the schedule short: sets legally differ
        self.checks += 1
        timeline = self._timeline
        expected = {w for w in self._workers if timeline.present(w, epoch)}
        # Later-epoch crash/leave events may already have fired (see class
        # docstring); later joins and restarts cannot — admission waits on
        # the preceding epoch's completion event, which succeeds after
        # these hooks.
        early = {
            w for w in self._workers
            for at, entering, _ev in timeline.transitions(w)
            if not entering and at > epoch
        }  # fmt: skip
        alive = set(ctx.alive_workers)
        if not (expected - early <= alive <= expected):
            self.fail(
                f"epoch {epoch}: live workers {sorted(alive)} do not match "
                f"membership timeline (expected {sorted(expected)}, "
                f"tolerating early departure of {sorted(early)})",
                epoch=epoch,
                alive=sorted(alive),
                expected=sorted(expected),
            )
        want_parties = max(1, len(alive))
        for i, barrier in enumerate(ctx.quorum_barriers):
            if barrier.parties != want_parties:
                self.fail(
                    f"epoch {epoch}: quorum barrier #{i} sized "
                    f"{barrier.parties}, but {len(alive)} workers are alive "
                    f"(want {want_parties})",
                    epoch=epoch,
                    barrier=i,
                    parties=barrier.parties,
                    alive=len(alive),
                )

    def _on_round_close(self, iteration, n_deposits) -> None:
        self.checks += 1
        frozen = self._sync.ics_quorum(iteration)
        n_alive = len(self._ctx.alive_workers)
        if frozen is not None and frozen > n_alive:
            self.fail(
                f"iteration {iteration}: frozen ICS quorum {frozen} exceeds "
                f"{n_alive} live workers",
                iteration=iteration,
                frozen=frozen,
                alive=n_alive,
            )


class ICSInflightMonitor(Monitor):
    """OSP ICS in-flight accounting: netsim vs gauge vs protocol state.

    Three views of "unimportant-gradient bytes on the wire" must agree at
    every network drain:

    * the netsim ground truth — payload sizes of active ``ics-push`` flows;
    * the traced ``osp.inflight_ics_bytes`` gauge (what dashboards sample);
    * OSP's own unarrived-push ledger, ``inflight_bytes()`` (what checkpoint
      discard policy and ``worker_signals`` report).

    The gauge/ledger pair must match exactly (both are updated in the same
    synchronous stretch of the ICS push process). The netsim view is a
    *lower* bound on the gauge rather than an equality: the gauge is bumped
    just before ``transfer()`` installs the flow, and stays up until the
    pushing process resumes after the flow completed — both windows contain
    drains where netsim legitimately trails. At run end all three must be
    zero, except after crashes / quorum timeouts / elastic leaves, which
    legally strand an in-flight share (same excuse list as ``ps.ledger``).

    The netsim view is a running tally: an ``ics-push`` flow's payload is
    added when it goes on the wire (``flow_hooks``) and taken off when its
    record appears in ``Network.records`` (a cursor, as ``net.conservation``
    keeps), so a drain costs O(flows finished since the last one). Payload
    sizes are integral, so the tally is exactly the sum over the active
    ``ics-push`` flows.
    """

    name = "osp.ics_inflight"
    cost = "O(1 + newly finished flows) per network drain, O(1) per flow start"

    def subscribe(self, trainer) -> bool:
        sync = trainer.sync_model
        if not isinstance(sync, OSP) or not trainer.env.tracer:
            return False
        self._sync = sync
        self._ctx = trainer.ctx
        net = self._net = trainer.network
        self._tracer = trainer.env.tracer
        #: fid -> payload of each ics-push flow on the wire, and their sum.
        self._pushes = {f.fid: f.size for f in net.active_flows if _is_ics_push(f)}
        self._wire = sum(self._pushes.values())
        self._cursor = len(net.records)
        net.flow_hooks.append(self._on_flow)
        net.drain_hooks.append(self._verify)
        return True

    def _on_flow(self, flow) -> None:
        if _is_ics_push(flow):
            self._pushes[flow.fid] = flow.size
            self._wire += flow.size

    def _verify(self) -> None:
        self.checks += 1
        records = self._net.records
        if len(records) > self._cursor:
            pushes = self._pushes
            for record in records[self._cursor:]:
                size = pushes.pop(record.fid, None)
                if size is not None:
                    self._wire -= size
            self._cursor = len(records)
        wire = self._wire
        gauge = self._tracer.gauge_value("osp.inflight_ics_bytes")
        ledger = self._sync.inflight_bytes(self._ctx)
        eps = 1e-6 + 1e-9 * max(gauge, ledger, wire)
        if abs(gauge - ledger) > eps:
            self.fail(
                f"gauge osp.inflight_ics_bytes {gauge:.3f} B != OSP "
                f"unarrived ledger {ledger:.3f} B",
                gauge=gauge,
                ledger=ledger,
            )
        if wire > gauge + eps:
            self.fail(
                f"netsim carries {wire:.3f} B of active ics-push payload "
                f"but gauge claims only {gauge:.3f} B in flight",
                wire=wire,
                gauge=gauge,
            )

    def finish(self, trainer) -> None:
        if _degraded(trainer.recorder):
            return
        self.checks += 1
        gauge = self._tracer.gauge_value("osp.inflight_ics_bytes")
        ledger = self._sync.inflight_bytes(self._ctx)
        if abs(gauge) > 1e-6 or abs(ledger) > 1e-6:
            self.fail(
                f"ICS in-flight not drained at run end: gauge {gauge:.3f} B, "
                f"ledger {ledger:.3f} B (no crash/timeout/leave to excuse)",
                gauge=gauge,
                ledger=ledger,
            )


def _is_ics_push(flow) -> bool:
    tag = flow.tag
    return isinstance(tag, tuple) and bool(tag) and tag[0] == "ics-push"


DEFAULT_MONITORS: tuple[type, ...] = (
    NetworkConservationMonitor,
    PSLedgerMonitor,
    GIBInvariantMonitor,
    StalenessBoundMonitor,
    QuorumConsistencyMonitor,
    ICSInflightMonitor,
)


@dataclass(frozen=True)
class CheckReport:
    """Per-monitor check/violation counts after a checked run."""

    monitors: dict[str, tuple[int, int]]  # name -> (checks, violations)
    skipped: tuple[str, ...]  # monitors not applicable to this trainer
    violations: tuple[InvariantViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_checks(self) -> int:
        return sum(c for c, _v in self.monitors.values())

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "total_checks": self.total_checks,
            "monitors": {
                name: {"checks": c, "violations": v}
                for name, (c, v) in self.monitors.items()
            },
            "skipped": list(self.skipped),
            "violations": [str(v) for v in self.violations],
        }

    def render(self) -> str:
        lines = ["invariant monitors:"]
        for name, (checks, violations) in sorted(self.monitors.items()):
            verdict = "OK" if violations == 0 else f"{violations} VIOLATIONS"
            lines.append(f"  {name:<18} {checks:>8} checks  {verdict}")
        for name in self.skipped:
            lines.append(f"  {name:<18} {'-':>8}        not applicable")
        for violation in self.violations:
            lines.append(f"  !! {violation}")
        return "\n".join(lines)


class InvariantChecker:
    """Attach a set of monitors to a constructed (un-run) trainer.

    ``strict=True`` (default) raises :class:`InvariantViolation` at the
    offending event — the simulation stops with a stack into the exact
    dispatch that broke the invariant. ``strict=False`` collects
    violations and keeps running (the CLI's reporting mode).
    """

    def __init__(self, trainer, monitors: Optional[Sequence] = None, strict: bool = True):
        self.trainer = trainer
        self.strict = strict
        self.violations: list[InvariantViolation] = []
        self.monitors: list[Monitor] = []
        self.skipped: list[str] = []
        for factory in DEFAULT_MONITORS if monitors is None else monitors:
            monitor = factory() if isinstance(factory, type) else factory
            if monitor.attach(self, trainer):
                self.monitors.append(monitor)
            else:
                self.skipped.append(monitor.name)

    @property
    def now(self) -> float:
        return self.trainer.env.now

    @property
    def ok(self) -> bool:
        return not self.violations

    def on_violation(self, violation: InvariantViolation) -> None:
        self.violations.append(violation)
        self.trainer.recorder.incr("check.violation")
        self.trainer.ctx.trace.instant(
            "check.violation",
            actor="check",
            track="check",
            monitor=violation.monitor,
            message=str(violation),
        )
        if self.strict:
            raise violation

    def finish(self) -> CheckReport:
        """Run end-of-run checks and produce the report."""
        for monitor in self.monitors:
            monitor.finish(self.trainer)
        total = sum(m.checks for m in self.monitors)
        if total:
            self.trainer.recorder.incr("check.events_checked", total)
        return self.report()

    def report(self) -> CheckReport:
        return CheckReport(
            monitors={
                m.name: (m.checks, len(m.violations)) for m in self.monitors
            },
            skipped=tuple(self.skipped),
            violations=tuple(self.violations),
        )


def run_checked(trainer, monitors: Optional[Sequence] = None, strict: bool = True):
    """Attach monitors, run the trainer, return (result, report)."""
    checker = InvariantChecker(trainer, monitors=monitors, strict=strict)
    result = trainer.run()
    return result, checker.finish()


__all__ = [
    "CheckReport",
    "DEFAULT_MONITORS",
    "GIBInvariantMonitor",
    "ICSInflightMonitor",
    "InvariantChecker",
    "InvariantViolation",
    "Monitor",
    "NetworkConservationMonitor",
    "PSLedgerMonitor",
    "StalenessBoundMonitor",
    "run_checked",
]
