"""Per-layer ledger: the benchmark's own spans, and host self time by layer.

Two instruments, both living in ``bench/`` (nothing inside ``src/`` is
instrumented; spans inside the program are a later change):

* :class:`SpanLog` — spans the benchmark records around its own calls
  (``dataset``, ``build``, ``run``, ``digest`` under one root per
  workload), kept in memory and written out when the benchmark ends.
* :func:`layer_ledger` — a ``cProfile`` of the ``run`` span reduced to
  self time per ``repro`` package. A function's self time is its own
  inline time plus the time of the C/builtin calls and the numpy/stdlib
  Python wrappers it calls, so ``heapq``/``numpy`` work is charged to the
  layer that asked for it.
"""

from __future__ import annotations

import cProfile
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

#: The ``repro`` packages reported as layers. Time in code outside them is
#: charged to the layer function that called it (see :func:`_self_seconds`);
#: what no layer called lands in ``other``, so the ledger sums to the ``run`` span.
LAYERS = (
    "simcore",
    "netsim",
    "sync",
    "core",
    "cluster",
    "autograd",
    "nn",
    "optim",
    "hardware",
    "metrics",
    "obs",
    "check",
    "multijob",
    "harness",
)
OTHER = "other"
#: Counts of simulated work the benchmark reads off public objects after an
#: op (``workloads.py``); exact for a seed, 0 where there is no object to read.
COUNT_METRICS = (
    "netsim.flows",
    "netsim.rerates",
    "netsim.rerate_skipped",
    "netsim.fairshare_calls",
    "netsim.prio_preemptions",
    "obs.spans",
    "obs.samples",
    "check.violations",
)
#: Call-chain depth through non-layer code that is followed before giving up
#: (numpy's wrappers nest three or four deep; recursion there is cut here).
_MAX_DEPTH = 16


class SpanLog:
    """In-memory span recorder: name, start, end, parent, shared trace id."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {
            "trace": self.trace_id,
            "id": sid,
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start_s": time.perf_counter(),
            "end_s": None,
        }
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end_s"] = time.perf_counter()


def _layer_of(filename: str, package_root: str) -> str:
    if not filename.startswith(package_root):
        return OTHER
    head = filename[len(package_root):].lstrip(os.sep).split(os.sep, 1)[0]
    return head if head in LAYERS else OTHER


def profiled(fn: Callable[[], Any]) -> tuple[Any, list]:
    """Run ``fn`` under cProfile; returns (its result, raw profile entries)."""
    prof = cProfile.Profile()
    result = prof.runcall(fn)
    return result, prof.getstats()


def _self_seconds(stats: list, package_root: str) -> tuple[dict, dict, float]:
    """Self time per layer function, with the time of everything it calls
    outside the layers (C builtins, numpy and stdlib Python wrappers,
    generated dataclass ``__init__``) pushed up to it.

    cProfile records, per caller, how much of a callee's inline time was
    spent on that caller's behalf; a non-layer callee's seconds are split
    over its callers in that proportion, transitively (``ndarray.var`` is a
    builtin that calls numpy Python that calls builtins). What reaches no
    layer function (this directory's own frames) is returned as leftover.
    """
    layer = {
        e.code: OTHER if isinstance(e.code, str) else _layer_of(e.code.co_filename, package_root)
        for e in stats
    }
    seconds = {e.code: e.inlinetime for e in stats}
    callers: dict[Any, list[tuple[Any, float]]] = defaultdict(list)
    for e in stats:
        for sub in e.calls or ():
            if sub.code is not e.code:
                callers[sub.code].append((e.code, sub.inlinetime))

    pending = {code: s for code, s in seconds.items() if layer[code] == OTHER}
    leftover = 0.0
    for _ in range(_MAX_DEPTH):
        pushed: dict[Any, float] = defaultdict(float)
        for code, s in pending.items():
            edges = callers.get(code, ())
            total = sum(w for _, w in edges)
            if total <= 0:
                leftover += s
                continue
            for caller, w in edges:
                if layer[caller] == OTHER:
                    pushed[caller] += s * w / total
                else:
                    seconds[caller] += s * w / total
        pending = pushed
        if not pending:
            break
    return seconds, layer, leftover + sum(pending.values())


def layer_ledger(stats: list, package_root: str) -> dict:
    """Reduce raw cProfile entries to ``{layer: {self_s, calls}}`` plus the
    two ``netsim`` file rows and the ``Environment.step`` call count."""
    seconds, layer, leftover = _self_seconds(stats, package_root)
    ledger = {name: {"self_s": 0.0, "calls": 0} for name in (*LAYERS, OTHER)}
    ledger[OTHER]["self_s"] = leftover
    files = {
        os.path.join(package_root, "netsim", "fairshare.py"): "netsim.solver_self_s",
        os.path.join(package_root, "netsim", "network.py"): "netsim.network_self_s",
    }
    extra = {name: 0.0 for name in files.values()}
    step_file = os.path.join(package_root, "simcore", "environment.py")
    events = 0
    for entry in stats:
        code = entry.code
        if isinstance(code, str):
            continue
        row = ledger[layer[code]]
        row["calls"] += entry.callcount
        if layer[code] == OTHER:
            continue
        row["self_s"] += seconds[code]
        if code.co_filename in files:
            extra[files[code.co_filename]] += seconds[code]
        if code.co_filename == step_file and code.co_name == "step":
            events += entry.callcount
    return {"layers": ledger, "extra": extra, "events": events}


def ledger_metrics(ledger: dict, run_s: float, host_s: float) -> dict[str, float]:
    """Flatten a :func:`layer_ledger` into the declared per-layer metric names;
    ``run_s`` is the traced ``run`` span, ``host_s`` the untraced op."""
    total = sum(row["self_s"] for row in ledger["layers"].values())
    out: dict[str, float] = {}
    for layer, row in ledger["layers"].items():
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = row["self_s"] / total if total > 0 else 0.0
        out[f"{layer}.calls"] = row["calls"]
    out.update(ledger["extra"])
    out["simcore.events"] = ledger["events"]
    out["simcore.us_per_event"] = 1e6 * host_s / ledger["events"]
    out["trace.overhead_x"] = run_s / host_s
    return out
