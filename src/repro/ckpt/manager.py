"""Epoch-boundary checkpoint barrier and writer.

The manager imposes a rendezvous at every checkpointed epoch boundary:
each alive worker, after ``epoch_done``, parks on a shared release event;
the last arrival spawns the snapshot process, which first settles
in-flight ICS pushes per the drain/discard policy, captures the state,
writes it atomically, and then releases everyone.

Arrival order at the barrier is recorded into the checkpoint
(``release_order``): a resumed run recreates worker processes in that
order so event-id tie-breaks — and therefore floating-point gradient
summation order — match the uninterrupted run exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.bounds import COUNT, check_bounds
from repro.ckpt.layout import PlaneLayout
from repro.ckpt.snapshot import (
    Checkpoint,
    capture,
    verify_roundtrip,
    write_checkpoint,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.context import TrainerContext
    from repro.cluster.trainer import DistributedTrainer

POLICIES = ("drain", "discard")


class CheckpointManager:
    """Write a checkpoint every ``every`` epochs into ``directory``.

    ``policy`` controls in-flight ICS pushes at the boundary: ``"drain"``
    waits for them to apply (keeping numerics identical to an
    uninterrupted run), ``"discard"`` snapshots immediately and records
    the dropped bytes under the ``ckpt.ics_discarded_bytes`` counter.
    """

    BOUNDS = {"every": COUNT}

    def __init__(
        self,
        trainer: "DistributedTrainer",
        every: int,
        directory: str | Path,
        policy: str = "drain",
    ) -> None:
        self.every = every
        check_bounds(self)
        if policy not in POLICIES:
            raise ValueError(f"checkpoint policy must be one of {POLICIES}, got {policy!r}")
        self.trainer = trainer
        self.directory = Path(directory)
        self.policy = policy
        self.latest: Optional[Checkpoint] = None
        self.saved: list[Path] = []
        self._arrived: dict[int, int] = {}
        self._order: dict[int, list[int]] = {}
        self._release: dict[int, object] = {}

    def due(self, epoch: int) -> bool:
        """True when finishing ``epoch`` (0-indexed) lands on a boundary.

        Uses absolute epoch numbering so a resumed run hits the same
        boundaries as the original.
        """
        return (epoch + 1) % self.every == 0

    def checkpoint_path(self, epoch: int) -> Path:
        return self.directory / f"ckpt-epoch{epoch + 1:04d}.npz"

    def pause(self, ctx: "TrainerContext", worker: int, epoch: int):
        """Worker-side barrier generator; yields until the snapshot is written."""
        if not self.due(epoch):
            return
        release = self._release.get(epoch)
        if release is None:
            release = ctx.env.event()
            self._release[epoch] = release
        self._arrived[epoch] = self._arrived.get(epoch, 0) + 1
        self._order.setdefault(epoch, []).append(worker)
        if self._arrived[epoch] >= len(ctx.alive_workers) and not release.triggered:
            ctx.env.process(self._snapshot_proc(ctx, epoch, release))
        yield release

    def gate(self, epoch: int):
        """Pending release event for ``epoch``'s checkpoint, if one is open.

        Workers admitted at a boundary (elastic joins, crash restarts)
        must not race ahead of the snapshot drain; they yield this gate.
        """
        release = self._release.get(epoch)
        if release is not None and not release.triggered:
            return release
        return None

    def _snapshot_proc(self, ctx: "TrainerContext", epoch: int, release):
        sync = self.trainer.sync_model
        discarded = 0.0
        if self.policy == "drain":
            for event in sync.inflight_events(ctx):
                if not event.triggered:
                    yield event
        else:
            discarded = float(sync.inflight_bytes(ctx))
            if discarded > 0:
                ctx.recorder.incr("ckpt.ics_discarded_bytes", int(round(discarded)))
        # Count the save before capturing so the snapshot's own recorder
        # includes it; a resumed run then reproduces the continued run's
        # ckpt.save totals.
        ctx.recorder.incr("ckpt.save")
        snapshot = capture(
            self.trainer,
            next_epoch=epoch + 1,
            release_order=list(self._order.get(epoch, [])),
            ics_policy=self.policy,
            ics_discarded_bytes=discarded,
        )
        path = write_checkpoint(snapshot, self.checkpoint_path(epoch))
        # A checkpoint is only durable once the written file provably
        # decodes back to the captured snapshot; a corrupt save must fail
        # here, at write time, not at some future restore.
        verify_roundtrip(snapshot, path)
        ctx.recorder.incr("ckpt.roundtrip_verified")
        self.latest = snapshot
        self.saved.append(path)
        ctx.trace.instant(
            "ckpt.save",
            actor="ckpt",
            track="ckpt",
            epoch=epoch,
            next_epoch=epoch + 1,
            path=str(path),
            discarded_bytes=discarded,
        )
        release.succeed(epoch)

    def recover_worker(self, worker: int) -> bool:
        """Restore ``worker``'s replica from the latest in-memory snapshot.

        Used by the ``recover="checkpoint"`` crash path; returns False when
        no snapshot (or no replica plane, e.g. timing mode) is available,
        in which case the caller falls back to a cold PS sync.
        """
        snapshot = self.latest
        if snapshot is None:
            return False
        key = f"replica/{worker}"
        if key not in snapshot.arrays:
            return False
        engine = self.trainer.engine
        layout = PlaneLayout.of(engine, self.trainer.ps)
        layout.unpack_into(snapshot.arrays[key], engine.worker_params(worker))
        return True


__all__ = ["CheckpointManager", "POLICIES"]
