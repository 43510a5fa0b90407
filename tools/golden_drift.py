#!/usr/bin/env python3
"""Float drift between two directories of replay streams.

    python3 tools/golden_drift.py OLD_DIR NEW_DIR

Both directories hold replay streams in ``repro.check.dump_stream``'s
JSON-lines format (``*.jsonl``: a schema header, then one record per line).
Files are paired by name and compared record by record. Structure, every
int, string, bool, null and key must be equal. Floats may differ, and for
each file the largest relative drift ``|a - b| / max(|a|, |b|)`` is printed.

Exit status 0 when every pair differs only in floats, each by at most
1e-9 relative; 1 when a file is missing from either side, a record is
missing, anything but a float differs, or a float drifts further. A change
that reorders floating-point work (different operand order, same
mathematics) should pass; one that changes what the simulation does should
not.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

#: Largest relative float drift that still counts as the same run.
MAX_DRIFT = 1e-9


class Mismatch(Exception):
    """Something other than a float differs; the message says where."""


def _drift(a, b, where: str) -> float:
    """Largest relative float drift between two JSON values of one shape."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            raise Mismatch(f"{where}: {a!r} != {b!r}")
        return abs(a - b) / max(abs(a), abs(b))
    if type(a) is not type(b):
        kinds = f"{type(a).__name__} != {type(b).__name__}"
        raise Mismatch(f"{where}: {a!r} != {b!r} ({kinds})")
    if isinstance(a, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: {len(a)} items != {len(b)}")
        pairs = enumerate(zip(a, b))
        return max((_drift(x, y, f"{where}[{i}]") for i, (x, y) in pairs), default=0.0)
    if isinstance(a, dict):
        if list(a) != list(b):
            raise Mismatch(f"{where}: keys {list(a)} != {list(b)}")
        return max((_drift(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if a != b:
        raise Mismatch(f"{where}: {a!r} != {b!r}")
    return 0.0


def file_drift(old: Path, new: Path) -> tuple[float, int]:
    """(largest relative drift, the record it is in) of two stream files;
    raises :class:`Mismatch` where anything but a float differs."""
    a = old.read_text().splitlines()
    b = new.read_text().splitlines()
    worst, at = 0.0, 0
    for i, (x, y) in enumerate(zip(a, b)):
        drift = _drift(json.loads(x), json.loads(y), f"record {i}")
        if drift > worst:
            worst, at = drift, i
    if len(a) != len(b):
        at = min(len(a), len(b))
        raise Mismatch(f"record {at}: missing ({len(a)} lines != {len(b)})")
    return worst, at


def compare_dirs(old: Path, new: Path) -> tuple[list[str], bool]:
    """One report line per stream file, and whether the two directories
    agree within :data:`MAX_DRIFT`."""
    names = sorted({p.name for d in (old, new) for p in d.glob("*.jsonl")})
    lines, ok = [], True
    for name in names:
        if not (old / name).is_file() or not (new / name).is_file():
            side = "old" if not (old / name).is_file() else "new"
            lines.append(f"{name}: missing from {side}")
            ok = False
            continue
        try:
            worst, at = file_drift(old / name, new / name)
        except Mismatch as exc:
            lines.append(f"{name}: {exc}")
            ok = False
            continue
        verdict = "ok" if worst <= MAX_DRIFT else f"DRIFT > {MAX_DRIFT:g}"
        ok = ok and worst <= MAX_DRIFT
        lines.append(f"{name}: max relative drift {worst:.3e} (record {at}) {verdict}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="directory of the old streams")
    parser.add_argument("new", type=Path, help="directory of the new streams")
    args = parser.parse_args(argv)
    lines, ok = compare_dirs(args.old, args.new)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
