"""Record the reference digests the analyze and compare checks compare against.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark records the seed commit's):

    python3 perfbench/make_reference.py

Every analyze source and compare pair the generators can emit is run once
through `besselpade.cli.main`; the digest of each JSON report goes to
`perfbench/reference.json`. An op in that universe that fails is an error:
the timed workloads must not contain failing ops.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import checks
from run import Bench
from workloads import reference_universe


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("BESSELPADE_PRECISION", None)
    bench = Bench(root, reference={})
    universe = reference_universe()
    out: dict[str, dict[str, str]] = {"analyze": {}, "compare": {}}
    jobs = [("analyze", spec, ["analyze", "--source", spec, "--json"]) for spec in universe["analyze"]]
    jobs += [("compare", f"{n},{m}", ["compare", "--n", str(n), "--m", str(m), "--json"]) for n, m in universe["compare"]]
    for kind, key, argv in jobs:
        _, status, stdout, stderr = bench.run_cli(argv)
        if status != 0:
            print(f"error: {' '.join(argv)} exited {status}: {stderr.strip()}", file=sys.stderr)
            return 1
        out[kind][key] = checks.digest(stdout)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(out['analyze'])} analyze and {len(out['compare'])} compare digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
