"""Span-based tracing over virtual time.

The :class:`Tracer` records what the flat :class:`~repro.metrics.recorder.
Recorder` cannot: *where* inside an iteration the time went. It collects

* hierarchical **spans** (``iteration > compute / rs_push / rs_barrier_wait
  / rs_pull / lgp_correction`` on the worker tracks, ``ics_push / ics_wait
  / ics_pull`` on the per-worker ICS tracks, ``ps_apply / pgp_compute`` on
  the PS track) with worker/iteration attribution;
* **instants** (point events: fault windows opening/closing, GIB
  broadcasts, evaluations);
* **counter tracks** (streaming gauges: in-flight ICS bytes, the S(G^u)
  budget, quorum size, PS version) sampled at virtual timestamps;
* per-``(stage, layer)`` **traffic** accounting (RS vs ICS bytes),
  counted per use of a layer tuple and materialised when read.

Span parenting uses the simulation kernel's *process-local current-span
context*: :class:`~repro.simcore.environment.Environment` exposes
``active_process`` while a generator step runs, and each process carries
its own open-span stack, so concurrently interleaved worker processes
never cross-parent each other's spans. A span begun before a ``yield`` and
ended after it still nests correctly because both calls run inside the
same process's steps.

Tracing is strictly passive: the tracer never creates events, timeouts or
processes, so a traced run's virtual-time outputs are bit-identical to an
untraced run. When disabled (the default — ``Environment.tracer`` is
``None`` and call sites go through :data:`NULL_TRACER`), every call is a
no-op.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np


@dataclass(slots=True)
class Span:
    """One named interval on an actor's timeline (``end`` None while open)."""

    sid: int
    name: str
    actor: str  # timeline row (Chrome "tid"), e.g. "worker 3"
    track: str  # timeline group (Chrome "pid"), e.g. "workers"
    cat: str
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None  # parent span's sid
    worker: Optional[int] = None
    iteration: Optional[int] = None
    #: Owning co-tenant job (from the creating process's job namespace),
    #: or None on single-tenant runs. Lets multi-job traces be filtered
    #: per tenant even though worker ids are job-local.
    job: Optional[str] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start


@dataclass(frozen=True)
class Instant:
    """A point event (fault fired, GIB broadcast, evaluation, ...)."""

    name: str
    time: float
    actor: str
    track: str
    attrs: dict[str, Any] = field(default_factory=dict)


class Histogram:
    """A named value distribution (sync-time tails, flow durations)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    def mean(self) -> float:
        return float(np.mean(self._values)) if self._values else 0.0

    def percentile(self, q: float) -> float:
        """Percentile of the observed values (``q`` in [0, 100])."""
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"q must be in [0,100], got {q}")
        if not self._values:
            return 0.0
        return float(np.percentile(self._values, q))

    def summary(self) -> dict[str, float]:
        """count/mean/p50/p90/p99/max in one dict (report tables)."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": float(max(self._values)) if self._values else 0.0,
        }


class _NullSpan:
    """Shared inert span handle returned by the null tracer."""

    __slots__ = ()

    sid = -1
    name = actor = track = cat = ""
    start = 0.0
    end = 0.0
    parent = worker = iteration = job = None
    duration = 0.0


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op stand-in used when tracing is disabled.

    Falsy (``bool() is False``) so call sites can guard larger blocks with
    ``if tracer:``; individual calls are safe either way.
    """

    def __bool__(self) -> bool:
        return False

    def begin(self, *_a, **_k) -> _NullSpan:
        return _NULL_SPAN

    def end(self, *_a, **_k) -> None:
        return None

    @contextmanager
    def span(self, *_a, **_k):
        yield _NULL_SPAN

    def instant(self, *_a, **_k) -> None:
        return None

    def gauge(self, *_a, **_k) -> None:
        return None

    def gauge_delta(self, *_a, **_k) -> None:
        return None

    def add_traffic(self, *_a, **_k) -> None:
        return None


#: Module-wide disabled tracer (all methods no-ops).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans/instants/gauges/traffic against an environment's
    virtual clock. Attach with ``env.tracer = Tracer(env)`` (or
    :meth:`~repro.cluster.trainer.DistributedTrainer.enable_tracing`)."""

    def __init__(self, env) -> None:
        self.env = env
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        #: counter-track samples: name -> [(virtual time, value), ...]
        self.counters: dict[str, list[tuple[float, float]]] = {}
        #: (stage, layers, moves, id(layer_bytes)) -> [uses, layer_bytes],
        #: in first-use order (what :attr:`traffic` is materialised from)
        self._traffic_uses: dict[tuple, list] = {}
        #: counter track -> its most recent sample (what the sampler mirrors)
        self.gauge_last: dict[str, float] = {}
        self._stacks: dict[Any, list[Span]] = {}
        self._root_stack: list[Span] = []
        self._next_sid = 0

    @property
    def now(self) -> float:
        return self.env.now

    # -- spans -------------------------------------------------------------
    def begin(
        self,
        name: str,
        actor: str,
        *,
        track: str = "workers",
        cat: str = "phase",
        parent: Optional[Span] = None,
        worker: Optional[int] = None,
        iteration: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span now; close it with :meth:`end`.

        With no explicit ``parent`` the span nests under the calling
        process's innermost open span (the process-local context).
        """
        env = self.env
        proc = env.active_process
        if proc is None:
            stack = self._root_stack
            job = None
        else:
            stack = self._stacks.get(proc)
            if stack is None:
                stack = self._stacks[proc] = []
            job = proc.job
        if parent is not None:
            parent_sid = parent.sid
        elif stack:
            parent_sid = stack[-1].sid
        else:
            parent_sid = None
        sid = self._next_sid
        self._next_sid = sid + 1
        # Positional, in field order: sid, name, actor, track, cat, start,
        # end, parent, worker, iteration, job, attrs (a fresh dict per call).
        span = Span(
            sid, name, actor, track, cat, env.now, None, parent_sid, worker,
            iteration, job, attrs,
        )  # fmt: skip
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close an open span at the current virtual time."""
        if span is _NULL_SPAN:
            return span
        if span.end is not None:
            raise RuntimeError(f"span {span.name!r} (sid={span.sid}) already ended")
        env = self.env
        span.end = env.now
        if attrs:
            span.attrs.update(attrs)
        proc = env.active_process
        stack = self._root_stack if proc is None else self._stacks.get(proc)
        if stack and stack[-1] is span:  # the usual case: innermost open span
            stack.pop()
        elif stack and span in stack:
            stack.remove(span)
        else:  # ended from a different process than it was begun in
            for other in self._stacks.values():
                if span in other:
                    other.remove(span)
                    break
            else:
                if span in self._root_stack:
                    self._root_stack.remove(span)
        return span

    @contextmanager
    def span(self, name: str, actor: str, **kwargs: Any):
        """Context-manager span for straight-line (non-yielding) sections.

        Do not ``yield`` simulation events inside the ``with`` block — use
        explicit :meth:`begin`/:meth:`end` around waits instead.
        """
        s = self.begin(name, actor, **kwargs)
        try:
            yield s
        finally:
            self.end(s)

    # -- instants / counters ------------------------------------------------
    def instant(self, name: str, actor: str = "", track: str = "events", **attrs: Any) -> Instant:
        inst = Instant(name=name, time=self.now, actor=actor, track=track, attrs=dict(attrs))
        self.instants.append(inst)
        return inst

    def gauge(self, name: str, value: float) -> None:
        """Sample a counter track at the current virtual time."""
        value = float(value)
        self.counters.setdefault(name, []).append((self.now, value))
        self.gauge_last[name] = value

    def gauge_delta(self, name: str, delta: float) -> None:
        """Adjust a running counter track by ``delta`` (starts at 0)."""
        self.gauge(name, self.gauge_last.get(name, 0.0) + delta)

    def gauge_value(self, name: str) -> float:
        """Most recent sample of a counter track (0.0 if never sampled)."""
        return self.gauge_last.get(name, 0.0)

    def add_traffic(
        self, stage: str, layers: tuple[str, ...], layer_bytes, moves: int = 1
    ) -> None:
        """Account one use of ``layers`` by a traffic stage (``rs``/``ics``/...):
        each layer moves ``moves × layer_bytes[layer]`` bytes.

        A use is a count: per-layer bytes are multiplied out only when
        :attr:`traffic` is read, so ``layer_bytes`` is read then and must
        not change in between (an engine's sizes are fixed for its run).
        """
        key = (stage, layers, moves, id(layer_bytes))
        uses = self._traffic_uses.get(key)
        if uses is None:  # holds the mapping, so its id stays its own
            self._traffic_uses[key] = [1, layer_bytes]
        else:
            uses[0] += 1

    @property
    def traffic(self) -> dict[tuple[str, str], float]:
        """(stage, layer) -> total payload bytes moved, in first-use order.

        Byte counts are ints, so ``uses × moves × bytes`` is exactly the
        float a running per-use sum would reach.
        """
        out: dict[tuple[str, str], float] = {}
        for (stage, layers, moves, _id), (uses, layer_bytes) in self._traffic_uses.items():
            for layer in layers:
                key = (stage, layer)
                out[key] = out.get(key, 0.0) + float(uses * moves * layer_bytes[layer])
        return out

    # -- views ---------------------------------------------------------------
    def spans_named(self, *names: str) -> list[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]


__all__ = [
    "Histogram",
    "Instant",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
]
