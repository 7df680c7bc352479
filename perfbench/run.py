"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload insitu-128 --seed 42 --seconds 50 --trace 0

Prints a provenance record (one JSON line prefixed ``record``), then as
the last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, the per-layer ones with ``--trace 1``.  Exits 1 when a
hard output check fails, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = bench.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), ROOT, ROOT / ".perfbench"
    )
    print("record " + json.dumps(result.record, sort_keys=True))
    for line in result.record.get("errors", []):
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(bench.result_json(result)))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
