#!/usr/bin/env python3
"""Compare two ``run.py --out`` documents: ``python3 bench/compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians, both IQRs,
the ratio B/A (A is the base) and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``within``     — B's median is no worse than A's by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — either side's IQR/median is wider than the bound, so the
  two files cannot tell (unless every sample of B beats every sample of A).

Then exact-equality rows: digest, planned/recorded iterations, failed ops,
every ``model.*`` value and every count metric. Exit status 1 on any
``worse`` row or any exact row that differs; ``unresolved`` does not fail.
"""

from __future__ import annotations

import json
import os
import sys

from ledger import COUNT_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that are counts of simulated work: equal on equal inputs.
EXACT_LAYER_METRICS = ("simcore.events", *COUNT_METRICS)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _samples(doc: dict, metric: str) -> list[float]:
    if metric == "host_s":
        return doc["op_norm_s"]
    if metric == "iters_per_s":
        return [doc["planned"] / s for s in doc["op_norm_s"]]
    if metric == "setup_s":
        return doc["setup_samples"]
    return [doc["metrics"][metric]]


def verdict(a: dict, b: dict, spec: dict) -> tuple[float, str]:
    """(ratio B/A, verdict) of one end-to-end metric of one workload."""
    name, bound, lower = spec["name"], spec["bound"], spec["better"] == "lower"
    ma, mb = a["metrics"][name], b["metrics"][name]
    worsening = (mb - ma) / ma if lower else (ma - mb) / ma
    spread = max(
        side["timings"].get(name, {}).get("iqr", 0.0) / side["metrics"][name] for side in (a, b)
    )
    if spread > bound:
        sa, sb = _samples(a, name), _samples(b, name)
        clear = max(sb) < min(sa) if lower else min(sb) > max(sa)
        return mb / ma, "within" if clear else "unresolved"
    return mb / ma, "worse" if worsening > bound else "within"


def exact_rows(name: str, wa: dict, wb: dict) -> list[tuple[str, object, object]]:
    rows = []
    for title in sorted(set(wa) & set(wb)):
        a, b = wa[title], wb[title]
        for key in ("digest", "planned", "iterations", "failed"):
            rows.append((f"{title}:{key}", a[key], b[key]))
        for key in sorted(set(a["model"]) | set(b["model"])):
            rows.append((f"{title}:{key}", a["model"].get(key), b["model"].get(key)))
        if title == "per-layer":
            for key in EXACT_LAYER_METRICS:
                rows.append((f"{title}:{key}", a["metrics"].get(key), b["metrics"].get(key)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    doc_a, doc_b = (_load(p)["workloads"] for p in argv)
    specs = _load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
    bad = 0

    print(f"{'workload':<14} {'metric':<12} {'A median':>11} {'A iqr':>9} {'B median':>11} {'B iqr':>9} {'B/A':>7}  verdict")
    for name in doc_a:
        if name not in doc_b:
            print(f"{name:<14} missing from B")
            bad += 1
            continue
        a, b = doc_a[name].get("end-to-end"), doc_b[name].get("end-to-end")
        for spec in specs if a and b else ():
            ratio, word = verdict(a, b, spec)
            m = spec["name"]
            iqr_a, iqr_b = (s["timings"].get(m, {}).get("iqr", 0.0) for s in (a, b))
            print(
                f"{name:<14} {m:<12} {a['metrics'][m]:>11.5g} {iqr_a:>9.3g} "
                f"{b['metrics'][m]:>11.5g} {iqr_b:>9.3g} {ratio:>7.3f}  {word}"
            )
            bad += word == "worse"

    print("\nexact rows (must be equal)")
    for name in doc_a:
        for key, va, vb in exact_rows(name, doc_a[name], doc_b.get(name, {})):
            same = va == vb
            bad += not same
            shown = str(va)[:24] if same else f"{va!r} != {vb!r}"
            print(f"{name:<14} {key:<36} {'equal' if same else 'DIFFERS':<8} {shown}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
