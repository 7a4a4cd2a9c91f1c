"""orbinv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fields --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run happens in a fresh single-threaded
interpreter (bench/worker.py). With --trace 0 the last line of stdout is a
JSON object whose metrics are the end-to-end metrics of BENCHMARK.json,
timings calibrated to the host's nominal speed (bench/calibration.py); with
--trace 1 they are the per-layer metrics of the traced run, and the spans are
written to .bench_out/. The lines before it print every metric by name with
its unit. Workloads, metrics and known defects are described in
bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from calibration import REFERENCE_NOMINAL_S  # noqa: E402

WORKER = BENCH_DIR / "worker.py"
SPANS_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("spinor_k5", "fields", "cli_mix", "spinor_q", "cli_limits")
SETUP_REPEATS = 5  # set-up-only interpreters per run; setup_s is their median
TIME_BUDGET_S = 170.0  # the whole run, all interpreters included

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class RunFailed(Exception):
    pass


def _spawn(worker_args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds from spawn to READY, rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *worker_args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        if line.strip() != "READY":
            raise RunFailed(f"worker did not finish set-up (got {line!r})")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed("worker ran past the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return setup, rest


def _calibrated_setup(common: list[str], deadline: float) -> float:
    """Set-up time of one fresh interpreter, scaled to the host's nominal
    speed by the reference loads it times once set up."""
    setup, out = _spawn(common + ["--seconds", "0", "--setup-only"], deadline)
    refs = json.loads(out.strip().splitlines()[-1])["reference_s"]
    return setup * REFERENCE_NOMINAL_S / statistics.median(refs)


def _p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def calibrate(result: dict) -> tuple[list[float], float, list[float]]:
    """Scale every op's latency to the host's nominal speed by the reference
    load timed just before and just after its pass (see calibration.py).

    Returns the scaled latencies of the correct ops, the scaled op time of
    all ops, and the pass factors."""
    refs = result["reference_s"]
    factors = [REFERENCE_NOMINAL_S / ((refs[p] + refs[p + 1]) / 2) for p in range(result["passes"])]
    scaled = [t * factors[p] for t, p in zip(result["latencies_s"], result["pass_index"])]
    return [t for t, ok in zip(scaled, result["correct"]) if ok], sum(scaled), factors


def _ops_per_s(result: dict) -> float:
    """Correct ops per second of calibrated op time. The loop has no think
    time, so this is the closed loop's throughput with the checks left out."""
    latencies, op_time, _ = calibrate(result)
    return len(latencies) / op_time


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    latencies, op_time, factors = calibrate(result)
    if not latencies:
        raise RunFailed("no op completed correctly")
    p90, beyond = _p90(latencies)
    n = len(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / op_time,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": p90 * 1000,
        "peak_rss_mib": result["peak_rss_mib"],
    }
    notes = {
        "setup_s": f"calibrated, median of {len(setups)} fresh interpreters",
        "ops_per_s": f"{n} correct ops in {op_time:.3f} s of calibrated op time,"
        f" {result['passes']} passes",
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {beyond} samples beyond"
        + ("" if beyond >= 10 else "; fewer than 10, too short a run for p90"),
        "peak_rss_mib": "ru_maxrss of the measuring interpreter",
    }
    lines = [f"{k} {v!r} {END_TO_END_UNITS[k]} ({notes[k]})" for k, v in values.items()]
    ratio = result["failed"] / result["attempted"]
    lines.append(f"failed_op_ratio {ratio!r} 1 ({result['failed']}/{result['attempted']} ops)")
    raw = [t for t, ok in zip(result["latencies_s"], result["correct"]) if ok]
    lines.append(
        f"uncalibrated: ops_per_s {n / result['op_time_s']:.4g} 1/s, op_p50_ms"
        f" {statistics.median(raw) * 1000:.4g} ms, op_p90_ms {_p90(raw)[0] * 1000:.4g} ms;"
        f" pass speed factors {min(factors):.3g}..{max(factors):.3g},"
        f" median {statistics.median(factors):.3g}"
    )
    return values, lines


def _result(out: str, workload: str) -> dict:
    result = json.loads(out.strip().splitlines()[-1])
    for error in result["errors"]:
        sys.stderr.write(f"{workload}: {error}\n")
    return result


def traced_run(workload: str, seed: int, seconds: float, deadline: float):
    """An untraced run for half of `seconds`, then the same passes with spans
    recorded. Each runs in its own fresh interpreter, so caches warmed by the
    first (sympy's prime sieve, for one) cannot speed up the second."""
    common = ["--workload", workload, "--seed", str(seed)]
    untraced = _result(_spawn(common + ["--seconds", str(seconds / 2)], deadline)[1], workload)
    spans = SPANS_DIR / f"spans-{workload}-seed{seed}.tsv"
    traced_args = ["--seconds", "0", "--trace", "1", "--passes", str(untraced["passes"]),
                   "--spans-out", str(spans)]
    traced = _result(_spawn(common + traced_args, deadline)[1], workload)
    metrics = traced["per_layer"]
    metrics["trace.ops_per_s"] = _ops_per_s(traced)
    metrics["trace.untraced_ops_per_s"] = _ops_per_s(untraced)
    metrics["trace.overhead_ops_per_s"] = (
        metrics["trace.untraced_ops_per_s"] - metrics["trace.ops_per_s"]
    )
    units = traced["per_layer_units"]
    lines = [f"{name} {value!r} {units[name]}" for name, value in metrics.items()]
    lines.append(f"spans written to {spans.relative_to(ROOT)}")
    return metrics, units, lines, [untraced, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbinv" / "__init__.py").is_file():
        sys.stderr.write(f"orbinv sources not found under {ROOT / 'src'}; run from a checkout\n")
        return 2

    deadline = time.monotonic() + TIME_BUDGET_S
    try:
        if args.trace:
            metrics, units, lines, results = traced_run(
                args.workload, args.seed, args.seconds, deadline
            )
        else:
            common = ["--workload", args.workload, "--seed", str(args.seed)]
            setups = [_calibrated_setup(common, deadline) for _ in range(SETUP_REPEATS)]
            out = _spawn(common + ["--seconds", str(args.seconds)], deadline)[1]
            results = [_result(out, args.workload)]
            metrics, lines = end_to_end(results[0], setups)
            units = END_TO_END_UNITS
    except RunFailed as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("\n".join(lines))
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
