"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload for one pass through the real command and checks that
every metric of BENCHMARK.json prints by name with its unit, that timings
are scaled by the reference load around their pass, that a wrong expected
digest counts as a failed op, that the over-limit growth-bound
requests are exactly the failed ops of cli_limits, and that the command
refuses to run without the orbinv sources.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
from calibration import REFERENCE_NOMINAL_S  # noqa: E402
from workloads import CLI_LIMITS_STRATA, CLI_MIX_STRATA, CliWorkload, load_cli_requests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
INT_STR_DIGITS = 4300


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _assert_reported(lines, result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["spinor_q", "cli_limits"])
def test_end_to_end_metrics_print_with_units(workload):
    lines, result = _run(workload, trace=0)
    _assert_reported(lines, result, SPEC["end_to_end"])
    assert any(line.startswith("failed_op_ratio ") for line in lines)
    if workload != "cli_limits":
        assert result["correct"] and result["failed"] == 0


def test_traced_run_reports_every_per_layer_metric():
    lines, result = _run("cli_mix", trace=1)
    _assert_reported(lines, result, SPEC["per_layer"])
    m = {name: v["value"] for name, v in result["metrics"].items()}
    layer_self = sum(m[f"{layer}.self_s"] for layer in
                     ("exact_arith", "spinor", "field_invariants", "growth_bound", "cli"))
    assert math.isclose(layer_self + m["trace.unattributed_s"], m["trace.op_time_s"], rel_tol=1e-6)


def test_wrong_expected_digest_counts_as_failed_op():
    requests = copy.deepcopy(load_cli_requests())
    for request in requests["check_normalizer"]:
        request["sha256"] = "0" * 64
    result = worker.measure(CliWorkload(CLI_MIX_STRATA, requests), seed=7, seconds=0, max_passes=2)
    # one request per stratum per pass, so two of them carried a wrong digest
    assert result["attempted"] == 2 * len(CLI_MIX_STRATA)
    assert result["failed"] == 2


def test_calibration_scales_each_pass_by_its_reference_time():
    nominal = REFERENCE_NOMINAL_S
    result = {
        "passes": 2,
        "latencies_s": [0.010, 0.030, 0.020],
        "pass_index": [0, 0, 1],
        "correct": [True, False, True],
        # pass 0 between references at nominal speed, pass 1 at half of it
        "reference_s": [nominal, nominal, 3 * nominal],
    }
    latencies, op_time, factors = run.calibrate(result)
    assert factors == pytest.approx([1.0, 0.5])
    assert latencies == pytest.approx([0.010, 0.010])
    assert op_time == pytest.approx(0.050)


def _over_limit(argv) -> bool:
    # independent of the benchmark's digit counter: compare against 10**4300
    args = dict(zip(argv[1::2], argv[2::2]))
    if "--certify" in args:
        r, degree = int(args["--certify"]), 1
    else:
        r, degree = int(args["--r"]), int(args["--degree"])
    numerator = 1
    for i in range(1, r + 1):
        numerator *= math.factorial(2 * i - 1)
    return numerator**degree >= 10**INT_STR_DIGITS


def test_cli_limits_fails_exactly_the_over_limit_requests():
    workload = CliWorkload(CLI_LIMITS_STRATA)
    passes = 6
    batches = workload.passes(11)
    over = sum(_over_limit(r["argv"]) for _ in range(passes) for r in next(batches)
               if r["argv"][0] == "growth-bound")
    assert over > 0
    result = worker.measure(workload, seed=11, seconds=0, max_passes=passes)
    assert result["failed"] == over


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fields", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
