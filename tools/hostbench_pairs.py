#!/usr/bin/env python3
"""Alternating parent / change pairs of benchmark workloads.

    python3 tools/hostbench_pairs.py --parent HEAD~1 --workload cotenant_pair --metric host_s
    python3 tools/hostbench_pairs.py --parent HEAD~1 --workload t8_osp --workload t128_osp

The protocol every performance PR has to report (choosing-metrics §8):
the parent commit and the working tree are each copied into a fresh
temporary directory (``git archive`` and ``git ls-files``, so neither copy
carries a ``__pycache__`` and ``.git`` is left alone), and the benchmark
command of ``BENCHMARK.json`` runs ``--workload W --seed s --seconds N
--trace 0`` on both with a fresh seed per pair and the order flipped every
pair. Every end-to-end metric but the claimed one is held to its
``BENCHMARK.json`` bound over the same runs: ``within``, ``worse``, or
``unresolved`` when the parent's own IQR is wider than the bound (unless
every run of the change beats every run of the parent).

With ``--metric`` the change claims a gain on that metric and is said to win
only if it is better in at least nine tenths of the pairs (ties count for
neither side), its median differs from the parent's by more than the
parent's interquartile range, and no larger share of its ops failed; exit
status 0 on a win with no ``worse`` row, 1 otherwise. Without it nothing is
claimed and every metric is judged: exit status 0 if and only if none is
``worse`` and no larger share of the change's ops failed. A claim takes
exactly one ``--workload``; without one, ``--workload`` may be repeated and
each named workload gets its own pairs and verdict over the same two copies
(exit status 0 only if every verdict is "nothing worse"). Run it alone on
the machine (``TMPDIR`` chooses where the copies go).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *argv], check=True, **kwargs)


def export_parent(ref: str, dest: str) -> None:
    archive = os.path.join(dest, "parent.tar")
    _git("archive", "--format=tar", "-o", archive, ref)
    shutil.unpack_archive(archive, dest)
    os.remove(archive)


def export_working_tree(dest: str) -> None:
    listed = _git(
        "ls-files", "-z", "--cached", "--others", "--exclude-standard",
        stdout=subprocess.PIPE,
    ).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a tracked file deleted in the tree is skipped
            target = os.path.join(dest, rel)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(src, target)


def run_once(checkout: str, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; its last stdout line is the result document."""
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:  # a run with failed ops exits non-zero but still prints its document
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode} in {checkout}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: list[float], change: list[float], spec: dict) -> str:
    """An unclaimed metric against its bound (the rule of ``bench/compare.py``)."""
    lower = spec["better"] == "lower"
    (p1, pm, p3), cm = quartiles(parent), quartiles(change)[1]
    if (p3 - p1) / pm > spec["bound"]:
        clear = max(change) < min(parent) if lower else min(change) > max(parent)
        return "within" if clear else "unresolved"
    worsening = (cm - pm) / pm if lower else (pm - cm) / pm
    return "worse" if worsening > spec["bound"] else "within"


def run_pairs(where: dict, contract: dict, workload: str, args) -> bool:
    """The pairs of one workload and their verdict; True if it passes."""
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    sides = ("parent", "change")
    values = {s: {name: [] for name in metrics} for s in sides}
    ops = {s: [0, 0] for s in sides}  # attempted, failed
    wins = ties = 0
    print(f"{workload}, {args.pairs} alternating pairs, parent {args.parent} vs "
          f"working tree, {contract['run_seconds']} s per run, "
          + (f"claim on {args.metric}" if args.metric else "no claim"))
    print("pair seed first  side   " + " ".join(f"{n:>12}" for n in metrics)
          + "  failed/attempted")
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            doc = run_once(where[side], contract["command"], workload,
                           seed, contract["run_seconds"])
            row = {n: doc["metrics"][n]["value"] for n in metrics}
            for n, v in row.items():
                values[side][n].append(v)
            # A run whose output checks failed counts as a failed op.
            failed = max(doc["failed"], 0 if doc["correct"] else 1)
            ops[side][0] += doc["attempted"]
            ops[side][1] += failed
            print(f"{i + 1:>4} {seed:>4} {order[0]:<6} {side:<6} "
                  + " ".join(f"{row[n]:>12.4f}" for n in metrics)
                  + f"  {failed}/{doc['attempted']}", flush=True)
        if args.metric:
            p, c = (values[s][args.metric][-1] for s in sides)
            if p == c:
                ties += 1
            elif (c < p) == (metrics[args.metric]["better"] == "lower"):
                wins += 1

    stats = {s: {n: quartiles(values[s][n]) for n in metrics} for s in sides}
    worse = []
    for n in metrics:
        (p1, p2, p3), (c1, c2, c3) = (stats[s][n] for s in sides)
        word = "claimed"
        if n != args.metric:
            word = judge(values["parent"][n], values["change"][n], metrics[n])
            if word == "worse":
                worse.append(n)
        print(f"{n:<12} parent q1/med/q3 {p1:.4g}/{p2:.4g}/{p3:.4g} (IQR {p3 - p1:.3g})  "
              f"change {c1:.4g}/{c2:.4g}/{c3:.4g} (IQR {c3 - c1:.3g})  "
              f"change/parent {c2 / p2:.3f}  {word}")
    fail_share = {s: ops[s][1] / max(1, ops[s][0]) for s in sides}
    passed = fail_share["change"] <= fail_share["parent"]
    failed = (f"failed ops parent {ops['parent'][1]}/{ops['parent'][0]} "
              f"change {ops['change'][1]}/{ops['change'][0]}")
    if args.metric:
        q1, median, q3 = stats["parent"][args.metric]
        gap = median - stats["change"][args.metric][1]
        if metrics[args.metric]["better"] != "lower":
            gap = -gap
        needed = -(-9 * args.pairs // 10)  # ceil(0.9 * pairs)
        passed = passed and wins >= needed and gap > q3 - q1
        print(f"{args.metric}: change better in {wins} of {args.pairs} pairs (need {needed}), "
              f"{ties} ties; medians apart by {gap:.4g} vs parent IQR {q3 - q1:.3g}; {failed}")
        print("verdict:", "change wins" if passed else "no win shown")
    else:
        print(f"no claim; {failed}")
        print("verdict:", "nothing worse" if passed and not worse else "regression shown")
    if worse:
        print("worse than its bound:", ", ".join(worse))
    return passed and not worse


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--workload", required=True, action="append",
                    choices=[w["name"] for w in contract["workloads"]],
                    help="repeatable when no gain is claimed")
    ap.add_argument("--metric", choices=sorted(m["name"] for m in contract["end_to_end"]),
                    help="the metric a gain is claimed on (default: no claim)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=71, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.metric and len(args.workload) != 1:
        ap.error("a claim (--metric) takes exactly one --workload")

    verdicts = {}
    with tempfile.TemporaryDirectory(prefix="hostbench-pairs-") as tmp:
        where = {s: os.path.join(tmp, s) for s in ("parent", "change")}
        for path in where.values():
            os.mkdir(path)
        export_parent(args.parent, where["parent"])
        export_working_tree(where["change"])
        for workload in args.workload:
            verdicts[workload] = run_pairs(where, contract, workload, args)
            print()
    if len(verdicts) > 1:
        print("all workloads:", ", ".join(
            f"{w} {'pass' if ok else 'FAIL'}" for w, ok in verdicts.items()))
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
