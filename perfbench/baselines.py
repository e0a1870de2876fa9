"""The three ROADMAP hot spots, each timed once from a checkout root:

    python3 perfbench/baselines.py

* `analyze --source pade:41,40 --json` (gcd in _reduce_pair),
* `order2_certificate(16, 8)` and `compare --n 16 --m 8 --json`
  (rational-gamma delays plus interpolation),
* a 100k-point `sweep` of pade:10,10 (float evaluation), as rows/s.

These sizes are too large for the timed workloads, which need at least 100
ops per run; the numbers are recorded in README.md next to each release of
the benchmark.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("BESSELPADE_PRECISION", None)
    from run import Bench

    from besselpade.budak import order2_certificate

    bench = Bench(root, reference={})
    elapsed, status, _, _ = bench.run_cli(["analyze", "--source", "pade:41,40", "--json"])
    print(f"analyze pade:41,40: {elapsed:.3f} s (exit {status})")

    start = perf_counter()
    order2_certificate(16, 8)
    print(f"order2_certificate(16, 8): {perf_counter() - start:.3f} s")
    elapsed, status, _, _ = bench.run_cli(["compare", "--n", "16", "--m", "8", "--json"])
    print(f"compare --n 16 --m 8: {elapsed:.3f} s (exit {status})")

    points = 100_000
    argv = ["sweep", "--source", "pade:10,10", "--omega-max", "10", "--points", str(points)]
    elapsed, status, _, _ = bench.run_cli(argv + ["--output", str(bench.csv_path)])
    bench.csv_path.unlink(missing_ok=True)
    print(f"sweep pade:10,10 {points} points: {elapsed:.3f} s, {points / elapsed:.0f} rows/s (exit {status})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
