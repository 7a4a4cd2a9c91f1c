"""One workload run in a fresh single-threaded interpreter; started by run.py.

Prints READY once set-up is done (imports, workload construction and a
warm-up on fixed inputs that does the library's first-use lazy work). With
--setup-only it then times the reference load of calibration.py and prints
those times as one JSON line; otherwise it runs the closed loop for --seconds
of op time (or for --passes passes) and prints one JSON line with the raw
measurements. With --trace 1, spans are recorded around every traced
library call.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from calibration import reference_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_ERRORS_KEPT = 5
SETUP_REFERENCES = 3  # reference loads timed after a set-up-only start


def measure(workload, seed, seconds: float, tracer=None, max_passes=None) -> dict:
    """Closed loop over whole passes until `seconds` of op time have been
    measured, or over the first `max_passes` passes: each op starts once the
    previous one and its untimed correctness check are done. The reference
    load is timed before the first pass and after every pass.

    Returns the op time, every op's pass index and latency, which ops were
    correct, the reference times and the counts.
    """
    latencies, pass_index, correct, errors = [], [], [], []
    attempted = failed = completed_passes = 0
    op_time = 0.0
    references = [reference_seconds()]
    for batch in workload.passes(seed):
        done = op_time >= seconds if max_passes is None else completed_passes == max_passes
        if completed_passes and done:
            break
        for item in batch:
            attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = workload.op(item)
                else:
                    output = tracer.run_op(workload.kind(item), workload.op, item)
            except Exception as exc:  # a crashing op is a failed op, not a failed run
                elapsed = time.perf_counter() - start
                ok = False
                errors.append(f"op raised {type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - start
                try:
                    ok = workload.check(item, output)
                except Exception as exc:
                    ok = False
                    errors.append(f"check raised {type(exc).__name__}: {exc}")
                if not ok:
                    errors.append(f"wrong output for {item!r}"[:500])
            op_time += elapsed
            latencies.append(elapsed)
            pass_index.append(completed_passes)
            correct.append(ok)
            failed += not ok
        completed_passes += 1
        references.append(reference_seconds())
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": completed_passes,
        "op_time_s": op_time,
        "latencies_s": latencies,
        "pass_index": pass_index,
        "correct": correct,
        "reference_s": references,
        "errors": errors[:MAX_ERRORS_KEPT],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, help="run this many passes instead of --seconds")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.warmup()
    print("READY", flush=True)
    if args.setup_only:
        print(json.dumps({"reference_s": [reference_seconds() for _ in range(SETUP_REFERENCES)]}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, metric_units

        tracer = Tracer()
        tracer.install()
    result = measure(workload, args.seed, args.seconds, tracer, max_passes=args.passes)
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["per_layer_units"] = metric_units()
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
