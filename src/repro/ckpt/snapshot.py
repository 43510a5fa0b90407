"""Checkpoint snapshot format: capture, serialise, and re-apply run state.

A checkpoint is one ``.npz`` file holding a JSON metadata blob (under the
reserved ``__meta__`` key) plus the numeric planes:

- ``ps/params``, ``ps/velocity``, ``ps/aggregate`` — the parameter
  server's parameter, momentum, and last-aggregated-gradient planes, laid
  out by :class:`repro.ckpt.layout.PlaneLayout` (packed here from the
  name→array dicts the PS, its optimizer and the engine hold).
- ``replica/{w}`` — each worker's local model plane.
- ``sync/...`` — sync-model-owned arrays (e.g. EMA-LGP state).

Everything else (epoch counters, GIB bitmap, SGuTuner state, jitter RNG
streams, the alive-worker set, the recorder) travels in the metadata blob.
The membership timeline (crash, restart, join, leave) is not stored: it is
the spec's, and a resumed run reads it from its own spec, as it does the
fault windows.
Writes are atomic (tmp file + ``os.replace``) and the format is versioned;
an unreadable file, a mismatched version, a missing or wrong-typed metadata
key, a metadata value this trainer's run cannot have reached, or a plane
that is missing or of the wrong size or dtype raises :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.autograd.tensor import DEFAULT_DTYPE
from repro.bounds import COUNT, INDEX, INTEGER, NON_NEGATIVE, REAL, Bound, read_record
from repro.ckpt.layout import PlaneLayout
from repro.cluster.spec import TrainingPlan
from repro.metrics.export import RECORDER, recorder_from_dict, recorder_to_dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.trainer import DistributedTrainer

FORMAT_VERSION = 2

_META_KEY = "__meta__"
_SYNC_PREFIX = "sync/"
_WORKERS = Bound(0, integer=True, each=True)

#: The training plan a checkpoint was written under, with ``TrainingPlan``'s
#: bounds. A resume must keep every key but ``n_epochs``, which may grow.
PLAN = {
    key: TrainingPlan.BOUNDS[key]
    for key in ("n_epochs", "lr", "momentum", "weight_decay", "seed")
}

#: The metadata record. The keys ``TrainerContext`` and :func:`apply_checkpoint`
#: read without a default are required; the sync model's, the engine's and
#: the jitter model's state are theirs to read.
META = {
    "format_version": Bound(FORMAT_VERSION, FORMAT_VERSION, ends="[]", integer=True),
    "next_epoch": INTEGER,
    "time": REAL,
    "sync": str,
    "mode": frozenset({"numeric", "timing"}),
    "n_workers": COUNT,
    "iterations_per_epoch": COUNT,
    "plan": PLAN,
    "alive": _WORKERS,
    "early_stop?": {
        "best_metric?": Bound(-math.inf),  # -inf while early stopping is off
        "epochs_since_improvement?": INDEX,
        "stop_after_epoch?": Bound(0, integer=True, optional=True),
    },
    "lr?": Bound(0, optional=True),
    "release_order?": Bound(0, integer=True, optional=True, each=True),
    "ics?": {"policy?": str, "discarded_bytes?": NON_NEGATIVE},
    "jitter?": (None, dict),
    "engine_state?": dict,
    "sync_state?": dict,
    "recorder": RECORDER,
    "params?": {"names": [str], "sizes": _WORKERS},
    "aggregate_seen?": [str],
}


class CheckpointError(ValueError):
    """A checkpoint cannot be loaded or applied to this trainer."""


@dataclass
class Checkpoint:
    """In-memory checkpoint: JSON-able metadata plus named float planes."""

    meta: dict
    arrays: dict[str, np.ndarray]
    #: the file this checkpoint was loaded from (named in restore errors)
    source: str = "<in-memory checkpoint>"

    @property
    def format_version(self) -> int:
        return int(self.meta["format_version"])

    @property
    def next_epoch(self) -> int:
        """First epoch the resumed run will execute (0-indexed)."""
        return int(self.meta["next_epoch"])

    @property
    def time(self) -> float:
        """Virtual clock at the snapshot instant."""
        return float(self.meta["time"])

    def sync_arrays(self) -> dict[str, np.ndarray]:
        """Arrays owned by the sync model, with the ``sync/`` prefix stripped."""
        return {
            key[len(_SYNC_PREFIX):]: arr
            for key, arr in self.arrays.items()
            if key.startswith(_SYNC_PREFIX)
        }


def write_checkpoint(ckpt: Checkpoint, path: str | Path) -> Path:
    """Atomically write ``ckpt`` to ``path`` (tmp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta_bytes = np.frombuffer(json.dumps(ckpt.meta).encode("utf-8"), dtype=np.uint8)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **{_META_KEY: meta_bytes}, **ckpt.arrays)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write must not leave debris behind
            tmp.unlink()
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint, refusing unreadable files, unknown formats and versions."""
    path = Path(path)
    try:
        loaded = np.load(path)
        if isinstance(loaded, np.ndarray):
            raise ValueError("a bare .npy array, not an .npz archive")
        with loaded as data:
            arrays = {key: data[key] for key in data.files}
        meta = arrays.pop(_META_KEY, None)
        if meta is not None:
            meta = json.loads(bytes(meta.tobytes()).decode("utf-8"))
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        # What np.load and the zip reader raise on a missing, truncated,
        # non-zip or corrupt file.
        raise CheckpointError(
            f"{path}: not a readable checkpoint ({type(exc).__name__}: {exc})"
        ) from exc
    if meta is None:
        raise CheckpointError(f"{path}: not a repro checkpoint (missing metadata entry)")
    try:
        read_record(meta, META, str(path))
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    return Checkpoint(meta=meta, arrays=arrays, source=str(path))


def verify_roundtrip(ckpt: Checkpoint, path: str | Path) -> None:
    """Re-load the checkpoint just written to ``path`` and prove it equals
    the in-memory snapshot — metadata as canonical JSON, every plane
    bit-exact (key set, dtype, shape, bytes).

    Called by :class:`repro.ckpt.CheckpointManager` between the atomic
    write and declaring the checkpoint durable: a snapshot that cannot be
    read back identically (filesystem corruption, a non-JSON-stable meta
    value, an array silently cast by ``np.savez``) must fail the *save*,
    not the eventual restore. Raises :class:`CheckpointError`.
    """
    path = Path(path)
    reloaded = load_checkpoint(path)
    want = json.dumps(ckpt.meta, sort_keys=True)
    got = json.dumps(reloaded.meta, sort_keys=True)
    if want != got:
        raise CheckpointError(
            f"{path}: round-trip metadata mismatch (written checkpoint does "
            "not decode to the captured snapshot)"
        )
    if set(reloaded.arrays) != set(ckpt.arrays):
        missing = sorted(set(ckpt.arrays) - set(reloaded.arrays))
        foreign = sorted(set(reloaded.arrays) - set(ckpt.arrays))
        raise CheckpointError(
            f"{path}: round-trip array keys differ "
            f"(missing {missing}, foreign {foreign})"
        )
    for key, arr in ckpt.arrays.items():
        back = reloaded.arrays[key]
        src = np.asarray(arr)
        if back.dtype != src.dtype or back.shape != src.shape:
            raise CheckpointError(
                f"{path}: plane {key!r} round-tripped as "
                f"{back.dtype}{back.shape}, captured {src.dtype}{src.shape}"
            )
        if src.tobytes() != back.tobytes():
            raise CheckpointError(
                f"{path}: plane {key!r} is not bit-identical after re-load"
            )


def _recorder_state(trainer: "DistributedTrainer") -> dict:
    """The recorder as a checkpoint holds it. A trainer's network credits
    its byte counters when a flow finishes; where it mirrors them into this
    recorder, the snapshot takes them from :meth:`Network.ledger`, so flows
    still in flight count with the bytes they have moved so far."""
    state = recorder_to_dict(trainer.ctx.recorder)
    net = trainer.network
    if net.recorder is trainer.ctx.recorder:
        counters = state["counters"]
        for name, value in net.ledger().counters.items():
            if name in counters:
                counters[name] = value
    return state


def capture(
    trainer: "DistributedTrainer",
    next_epoch: int,
    release_order: Optional[list[int]] = None,
    ics_policy: str = "drain",
    ics_discarded_bytes: float = 0.0,
) -> Checkpoint:
    """Snapshot ``trainer`` at an epoch boundary.

    ``next_epoch`` is the first epoch a resumed run will execute;
    ``release_order`` records the order workers arrived at the checkpoint
    barrier so the resumed run can recreate worker processes in the same
    order (event-id tie-breaks, and therefore gradient summation order,
    depend on it).
    """
    ctx = trainer.ctx
    ps, engine, spec, plan = trainer.ps, trainer.engine, trainer.spec, trainer.plan
    numeric = ps.numeric

    jitter_state_fn = getattr(spec.jitter, "state_dict", None)
    meta = {
        "format_version": FORMAT_VERSION,
        "next_epoch": int(next_epoch),
        "time": float(ctx.env.now),
        "sync": trainer.sync_model.name,
        "mode": "numeric" if numeric else "timing",
        "n_workers": spec.n_workers,
        "iterations_per_epoch": trainer.iterations_per_epoch,
        "plan": {key: getattr(plan, key) for key in PLAN},
        **ctx.checkpoint_meta(),
        "lr": float(ps.optimizer.lr) if ps.optimizer is not None else None,
        "release_order": list(release_order) if release_order else None,
        "ics": {"policy": ics_policy, "discarded_bytes": float(ics_discarded_bytes)},
        "jitter": jitter_state_fn() if jitter_state_fn is not None else None,
        "engine_state": engine.checkpoint_state(),
        "sync_state": trainer.sync_model.checkpoint_state(ctx),
        "recorder": _recorder_state(trainer),
    }

    arrays: dict[str, np.ndarray] = {}
    if numeric:
        layout = PlaneLayout.of(engine, ps)
        meta["params"] = layout.fingerprint()
        arrays["ps/params"] = layout.pack(ps.snapshot(copy=False))
        arrays["ps/velocity"] = layout.pack(ps.optimizer.velocity)
        arrays["ps/aggregate"] = layout.pack(ps.last_aggregated)
        meta["aggregate_seen"] = sorted(ps.last_aggregated)
        for w in range(spec.n_workers):
            arrays[f"replica/{w}"] = layout.pack(engine.worker_params(w))
    for key, arr in trainer.sync_model.checkpoint_arrays(ctx).items():
        arrays[_SYNC_PREFIX + key] = np.asarray(arr)
    return Checkpoint(meta=meta, arrays=arrays)


def params_plane(engine, ps) -> np.ndarray:
    """The PS's global parameters as one plane: the bytes ``ps/params``
    stores, and what the replay stream's parameter digest hashes."""
    return PlaneLayout.of(engine, ps).pack(ps.snapshot(copy=False))


def _plane(ckpt: Checkpoint, key: str, layout: PlaneLayout) -> np.ndarray:
    """``ckpt.arrays[key]``, refused unless it is a whole plane of ``layout``."""
    want = f"expected {np.dtype(DEFAULT_DTYPE)} of size {layout.size}"
    plane = ckpt.arrays.get(key)
    if plane is None:
        raise CheckpointError(f"{ckpt.source}: plane {key!r} is missing ({want})")
    if plane.dtype != DEFAULT_DTYPE or plane.shape != (layout.size,):
        raise CheckpointError(
            f"{ckpt.source}: plane {key!r} is {plane.dtype} of shape {plane.shape} ({want})"
        )
    return plane


def _check_run_state(ckpt: Checkpoint, recorder, n_workers: int) -> None:
    """Refuse metadata values a run of ``n_workers`` cannot have reached at
    a checkpoint: the membership, the epoch counter against the recorded
    epochs, the clock against the last epoch's, and the release order."""
    meta = ckpt.meta

    def distinct_workers(value) -> bool:
        return len(set(value)) == len(value) and all(w < n_workers for w in value)

    epochs = len(recorder.epochs)
    last = recorder.epochs[-1].time if recorder.epochs else 0.0
    order = meta.get("release_order")
    for key, wrong, must in (
        ("alive", not meta["alive"] or not distinct_workers(meta["alive"]),
         f"a non-empty list of distinct workers in range({n_workers})"),
        ("next_epoch", meta["next_epoch"] < 1 or meta["next_epoch"] != epochs,
         f"the number of recorded epochs ({epochs}), at least 1"),
        ("time", meta["time"] < last, f"no earlier than the last recorded epoch ({last!r})"),
        ("release_order", order is not None and not distinct_workers(order),
         f"null or a list of distinct workers in range({n_workers})"),
    ):  # fmt: skip
        if wrong:
            raise CheckpointError(
                f"{ckpt.source}: {key} must be {must}, got {reprlib.repr(meta[key])}"
            )


def apply_checkpoint(trainer: "DistributedTrainer", ckpt: Checkpoint) -> None:
    """Load ``ckpt`` into a freshly-constructed trainer.

    Called from ``DistributedTrainer.__init__`` after the optimizer and LR
    scheduler exist: the restored LR must not disturb ``StepLR``'s captured
    base rate. Sync-model state is applied later, in ``run()``, once
    ``setup()`` has built it.

    Everything is validated before anything is written, so a refused
    checkpoint raises :class:`CheckpointError` and leaves the trainer as
    it was.
    """
    meta = ckpt.meta
    ctx, ps, engine = trainer.ctx, trainer.ps, trainer.engine
    mode = "numeric" if ps.numeric else "timing"
    if meta["mode"] != mode:
        raise CheckpointError(f"checkpoint is a {meta['mode']} run; this trainer is {mode}")
    if meta["sync"] != trainer.sync_model.name:
        raise CheckpointError(
            f"checkpoint was written by sync model {meta['sync']!r}, "
            f"not {trainer.sync_model.name!r}"
        )
    if meta["n_workers"] != trainer.spec.n_workers:
        raise CheckpointError(
            f"checkpoint has {meta['n_workers']} workers; spec has {trainer.spec.n_workers}"
        )
    if meta["iterations_per_epoch"] != trainer.iterations_per_epoch:
        raise CheckpointError("iterations-per-epoch differs from the checkpointed run")
    for key in PLAN:
        saved, ours = meta["plan"][key], getattr(trainer.plan, key)
        if key != "n_epochs" and saved != ours:
            raise CheckpointError(
                f"{ckpt.source}: plan.{key} is {saved!r} in the checkpoint "
                f"but {ours!r} in this run"
            )
    if meta["next_epoch"] > trainer.plan.n_epochs:
        raise CheckpointError(
            f"checkpoint resumes at epoch {meta['next_epoch']} but the plan "
            f"only has {trainer.plan.n_epochs} epochs"
        )
    jitter_state = meta.get("jitter")
    load_jitter = getattr(trainer.spec.jitter, "load_state", None)
    if jitter_state is not None and load_jitter is None:
        raise CheckpointError(
            "checkpoint carries jitter RNG state but this spec's jitter "
            "model cannot restore it"
        )
    recorder = recorder_from_dict(meta["recorder"])
    _check_run_state(ckpt, recorder, trainer.spec.n_workers)

    if ps.numeric:
        layout = PlaneLayout.of(engine, ps)
        if meta.get("params") != layout.fingerprint():
            raise CheckpointError("model parameter layout differs from the checkpointed run")
        seen = meta.get("aggregate_seen", [])
        if not set(seen) <= set(layout.slices):
            raise CheckpointError(f"{ckpt.source}: aggregate_seen names unknown parameters")
        replica_keys = [f"replica/{w}" for w in range(trainer.spec.n_workers)]
        planes = {
            key: _plane(ckpt, key, layout)
            for key in ("ps/params", "ps/velocity", "ps/aggregate", *replica_keys)
        }

    # The first write: a refused jitter state (a stream count that is not
    # this model's) is refused before the model changes.
    if jitter_state is not None:
        try:
            load_jitter(jitter_state)
        except ValueError as exc:
            raise CheckpointError(f"{ckpt.source}: metadata key 'jitter': {exc}") from exc
    if ps.numeric:
        layout.unpack_into(planes["ps/params"], ps.snapshot(copy=False))
        # Every name gets a buffer; zeros for a never-stepped parameter are
        # what its lazy zero-init would have produced.
        ps.optimizer.velocity = layout.unpack(planes["ps/velocity"])
        ps.last_aggregated = layout.unpack(planes["ps/aggregate"], seen)
        for w, key in enumerate(replica_keys):
            layout.unpack_into(planes[key], engine.worker_params(w))
        if meta.get("lr") is not None:
            ps.optimizer.lr = float(meta["lr"])

    engine.restore_checkpoint_state(meta.get("engine_state", {}))
    ctx.load_checkpoint_meta(meta)
    ctx.recorder.restore_from(recorder)


def describe(ckpt: Checkpoint) -> dict:
    """Human/JSON-friendly summary of a checkpoint (for ``repro ckpt inspect``)."""
    meta = ckpt.meta
    recorder = meta.get("recorder", {})
    return {
        "format_version": ckpt.format_version,
        "mode": meta.get("mode"),
        "sync": meta.get("sync"),
        "next_epoch": ckpt.next_epoch,
        "time": ckpt.time,
        "n_workers": meta.get("n_workers"),
        "alive": meta.get("alive"),
        "ics_policy": meta.get("ics", {}).get("policy"),
        "ics_discarded_bytes": meta.get("ics", {}).get("discarded_bytes"),
        "epochs_recorded": len(recorder.get("epochs", [])),
        "iterations_recorded": len(recorder.get("iterations", [])),
        "counters": dict(recorder.get("counters", {})),
        "arrays": {
            key: {"size": int(arr.size), "dtype": str(arr.dtype)}
            for key, arr in sorted(ckpt.arrays.items())
        },
    }


__all__ = [
    "FORMAT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "apply_checkpoint",
    "capture",
    "describe",
    "load_checkpoint",
    "params_plane",
    "verify_roundtrip",
    "write_checkpoint",
]
