"""besselpade benchmark: one seeded workload per run, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 25 --trace 0

The library is imported from `src/` of the checkout and driven through its
public entry points in this process: `besselpade.cli.main(argv)` for the
CLI workloads and `besselpade.stability.routh_hurwitz` for routh-fuzz. One
client sends ops in a closed loop. A run repeats one seeded pass of ops
for about `--seconds` (whole passes, at least three), so each op is timed
several times, spread over the run; its latency is the median of its
times. Each time is scaled to reference seconds by a host-speed
calibration loop timed between ops (calibration.py), so that runs minutes
apart on a shared host agree. Every output is checked between ops,
outside the timed region.

--trace 0 reports the end-to-end metrics. --trace 1 runs one pass, each
op untraced and then again with every public function of the layer
modules wrapped in spans, then the known-defect probes traced, and
reports per-layer metrics. The last line of standard output is the JSON
result; the lines above it restate every metric with its unit, sample
count and input size.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import checks
import layers
from calibration import HostSpeed
from spans import Patch, Recorder, layer_totals
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
MIN_PASSES = 3  # so that every op's median latency has three samples or more
MIN_SAMPLES = 100  # successful timings a run needs, whatever the pass size
_SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import besselpade.cli as cli\n"
    "cli.build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)


class Bench:
    """The library under test and where this run puts its files."""

    def __init__(self, root: Path, reference: dict):
        import besselpade
        import besselpade.cli
        import besselpade.core
        import besselpade.stability

        self.package = besselpade
        self.cli = besselpade.cli
        self.core = besselpade.core
        self.stability = besselpade.stability
        self.root = root
        self.out_dir = BENCH_DIR / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.csv_path = self.out_dir / "sweep.csv"
        self.reference = reference

    def run_cli(self, argv: list[str]) -> tuple[float, int, str, str]:
        """(seconds, exit status, stdout, stderr); an escaped exception is status -1."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                status = self.cli.main(argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an op that crashes counts as failed
                status = -1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = perf_counter() - start
        return elapsed, status, out.getvalue(), err.getvalue()

    def execute(self, op: dict) -> tuple[float, bool, str]:
        """Run one op: (seconds, ok, output). The output is the Routh
        verdict, the report on stdout, or the text of the CSV written."""
        if op["kind"] == "routh":
            poly = self.core.Polynomial(op["coeffs"])
            start = perf_counter()
            try:
                verdict = str(self.stability.routh_hurwitz(poly).verdict)
            except Exception:
                return perf_counter() - start, False, ""
            return perf_counter() - start, True, verdict

        argv = list(op["argv"])
        if op["check"] == "sweep":
            argv += ["--output", str(self.csv_path)]
        elapsed, status, stdout, _ = self.run_cli(argv)
        if status != 0 or op["check"] != "sweep":
            return elapsed, status == 0, stdout
        text = self.csv_path.read_text(encoding="utf-8")
        self.csv_path.unlink()
        return elapsed, True, text

    def check(self, op: dict, output: str) -> list[str]:
        if op["kind"] == "routh":
            return checks.check_routh(op, output)
        if op["check"] == "analyze":
            return checks.check_analyze(op["source"], output, self.reference)
        if op["check"] == "compare":
            return checks.check_compare(op["n"], op["m"], output, self.reference)
        return checks.check_sweep_csv(op, output)


class Tally:
    """Outcomes of a pass of ops run one or more times: every op's
    successful timings, and the failures. Each op's first output is checked
    in full; a repeat must give the same output, compared by digest.
    Timings wait in `pending` until `settle` scales them."""

    def __init__(self, bench: Bench, ops: list[dict]):
        self.bench = bench
        self.ops = ops
        self.times = [array("d") for _ in ops]
        self.pending: list[tuple[int, float]] = []
        self.digests: list[bytes | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0  # seconds inside the library, failed ops included
        self.problems: list[str] = []
        self.passes = 0

    def run(self, index: int) -> float:
        op = self.ops[index]
        elapsed, ok, output = self.bench.execute(op)
        self.attempted += 1
        self.busy += elapsed
        if not ok:
            self.failed += 1
            return elapsed
        self.pending.append((index, elapsed))
        digest = hashlib.sha256(output.encode()).digest()
        if self.digests[index] is None:
            self.digests[index] = digest
            self.problems.extend(self.bench.check(op, output))
        elif digest != self.digests[index]:
            self.problems.append(f"op {index} ({op.get('argv') or op['coeffs']}): output differs from its first run")
        return elapsed

    def settle(self, factor: float) -> None:
        for index, elapsed in self.pending:
            self.times[index].append(elapsed * factor)
        self.pending.clear()

    def medians(self) -> list[float]:
        """Median latency of each op that succeeded, in pass order."""
        return [statistics.median(times) for times in self.times if times]

    def samples(self) -> int:
        return sum(len(times) for times in self.times)


class SetupTimer:
    """setup_s samples, taken between passes and spread evenly over the
    run, so that they see the same machine as the timed ops, and scaled to
    reference seconds by calibration readings on either side."""

    def __init__(self, root: Path, speed: HostSpeed):
        self.root = root
        self.speed = speed
        self.samples: list[float] = []
        measure_setup(root)  # warm-up: the first import fills the file cache

    def catch_up(self, fraction: float) -> None:
        while len(self.samples) < round(SETUP_SAMPLES * min(fraction, 1.0)):
            seconds = measure_setup(self.root)
            self.samples.append(seconds * self.speed.factor())


def run_stream(bench: Bench, ops: list[dict], seconds: float, speed: HostSpeed, setup: SetupTimer) -> Tally:
    """Whole passes until the one that ends nearest to `seconds`, and at
    least MIN_PASSES passes and MIN_SAMPLES successful timings."""
    tally = Tally(bench, ops)
    start = perf_counter()
    while True:
        for index in range(len(ops)):
            tally.run(index)
            if speed.due():
                tally.settle(speed.factor())
        tally.settle(speed.factor())
        tally.passes += 1
        elapsed = perf_counter() - start
        setup.catch_up(elapsed / seconds)
        # stop at the pass boundary nearest to `seconds`
        if (
            elapsed + elapsed / tally.passes / 2 >= seconds
            and tally.passes >= MIN_PASSES
            and tally.samples() >= MIN_SAMPLES
        ):
            return tally


def measure_setup(root: Path) -> float:
    """Seconds a fresh interpreter needs to import besselpade.cli and build
    the parser, measured in a child process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


def run_probes(bench: Bench, workload, seed: int) -> tuple[list[str], list[str]]:
    """Known-defect inputs, outside every timed region: (report lines, problems)."""
    lines, problems = [], []
    routh = raised = wrong = 0
    for op in workload.probes(seed):
        if op["kind"] == "routh":
            routh += 1
            try:
                verdict = str(bench.stability.routh_hurwitz(bench.core.Polynomial(op["coeffs"])).verdict)
            except ArithmeticError:
                raised += 1
                continue
            found = checks.check_routh(op, verdict)
            wrong += bool(found)
            problems.extend(found)
            continue
        argv = list(op["argv"])
        if op["check"] == "sweep":
            argv += ["--output", str(bench.csv_path)]
        _, status, _, stderr = bench.run_cli(argv)
        bench.csv_path.unlink(missing_ok=True)
        message = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        lines.append(f"probe {' '.join(op['argv'][:3])}: exit {status} {message}".rstrip())
    if routh:
        lines.append(
            f"probe routh degenerate class: {routh} polynomials, "
            f"{raised} raised ArithmeticError, {wrong} wrong verdicts"
        )
    return lines, problems


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _describe(workload, seed: int, tally: Tally) -> str:
    degrees = [op["degree"] for op in tally.ops]
    return (
        f"workload {workload.name} seed {seed}: {len(tally.ops)} ops a pass x {tally.passes} "
        f"passes = {tally.attempted} ops ({tally.failed} failed), degrees {min(degrees)}..{max(degrees)}, "
        f"closed loop, 1 client, {tally.busy:.3f} s inside the library"
    )


def end_to_end(bench: Bench, workload, seed: int, seconds: float) -> dict:
    speed = HostSpeed(workload.calibration)
    setup = SetupTimer(bench.root, speed)
    tally = run_stream(bench, workload.pass_ops(seed), seconds, speed, setup)
    setup.catch_up(1.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_lines, probe_problems = run_probes(bench, workload, seed)

    medians = tally.medians()
    pass_s = sum(medians)
    p90 = _p90(medians)
    beyond_p90 = sum(x > p90 for x in medians)
    samples = f"{len(medians)} ops, each the median of its {tally.passes} timings"
    metrics = {
        "setup_s": (statistics.median(setup.samples), "s", f"median of {len(setup.samples)} child interpreters"),
        "ops_per_s": (len(medians) / pass_s, "1/s", f"{len(medians)} ok ops / {pass_s:.4f} s, sum of their medians"),
        "latency_p50_s": (statistics.median(medians), "s", samples),
        "latency_p90_s": (p90, "s", f"{samples}; {beyond_p90} beyond"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
    }
    print(_describe(workload, seed, tally))
    print(
        f"  host speed: {speed.name} calibration loop median {statistics.median(speed.readings) * 1e3:.4f} ms "
        f"over {len(speed.readings)} readings; times below are scaled to {speed.reference_s * 1e3:g} ms"
    )
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<16} {value:.6g} {unit}  ({note})")
    print(f"  {'failed_frac':<16} {tally.failed / tally.attempted:.6g} ratio  ({tally.failed}/{tally.attempted})")
    rows = sum(op.get("points", 0) for op, times in zip(tally.ops, tally.times) if times)
    if rows:
        print(f"  {'rows_per_s':<16} {rows / pass_s:.6g} 1/s  ({rows} CSV rows a pass / {pass_s:.4f} s)")
    for line in probe_lines:
        print(f"  {line}")
    return _result(
        tally, probe_problems, {name: (value, unit) for name, (value, unit, _) in metrics.items()}
    )


def traced(bench: Bench, workload, seed: int, seconds: float) -> dict:
    """One pass, each op run untraced and then traced back to back, so the
    overhead compares like with like and every count repeats exactly for a
    given seed; then the known-defect probes, traced, so that the failing
    paths show in the layer counts. `seconds` does not apply here."""
    rec = Recorder(layers.OBSERVERS)
    patch = Patch(rec, bench.package)
    ops = workload.pass_ops(seed)
    plain, tally = Tally(bench, ops), Tally(bench, ops)
    for index in range(len(ops)):
        plain.run(index)
        rec.op = index
        patch.apply()
        try:
            tally.run(index)
        finally:
            patch.revert()
    plain.settle(1.0)  # traced times stay in seconds as measured
    tally.settle(1.0)
    plain.passes = tally.passes = 1
    rec.op = len(ops)
    patch.apply()
    try:
        probe_lines, probe_problems = run_probes(bench, workload, seed)
    finally:
        patch.revert()
    rec.write(bench.out_dir / f"spans-{workload.name}.jsonl")

    totals = layer_totals(rec.spans)
    values = layers.layer_metrics(totals, rec.counters)
    values["trace_overhead_frac"] = tally.busy / plain.busy - 1
    units = dict(layers.metric_names())
    print(_describe(workload, seed, tally))
    print(f"  traced {len(rec.spans)} spans; untraced {plain.busy:.3f} s, traced {tally.busy:.3f} s")
    for name, value in values.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    for line in probe_lines:
        print(f"  {line} (traced)")
    problems = plain.problems + probe_problems + [
        f"traced run: layer {layer} recorded no call on {workload.name}"
        for layer in layers.STRESSED[workload.name]
        if not totals.get(layer, {}).get("calls")
    ]
    return _result(tally, problems, {name: (value, units[name]) for name, value in values.items()})


def _result(tally: Tally, extra_problems: list[str], metrics: dict) -> dict:
    problems = tally.problems + extra_problems
    for problem in problems[:20]:
        print(f"WRONG OUTPUT: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "besselpade" / "cli.py").is_file():
        print(f"error: {root} holds no src/besselpade; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("BESSELPADE_PRECISION", None)  # reports use the default precision
    bench = Bench(root, checks.load_reference())
    if not Path(bench.package.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: besselpade imported from {bench.package.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    result = run(bench, workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
