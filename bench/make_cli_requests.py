"""Write bench/cli_requests.json: the committed request strata of the CLI
workloads, each request with the sha256 of the stdout it must produce.

    PYTHONPATH=src python3 bench/make_cli_requests.py

The requests are drawn from a fixed seed. The digests are those of the code
this script runs against, so rerun it only on a commit whose CLI output is
known to be right; a request that exits nonzero gets no digest and can never
pass. Every request of the cli_mix strata must get one.
"""

from __future__ import annotations

import json
import math
import random
import sys

from orbinv import spinor
from orbinv.exact_arith import TotallyRealField, format_element

from workloads import (
    CHAIN_LENGTHS,
    CLI_MIX_STRATA,
    CLI_REQUESTS,
    ENTRY_RANGE,
    SPINOR_DIMS,
    decimal_digits,
    is_squarefree_int,
    run_cli,
    stdout_digest,
)

GENERATOR_SEED = 20261017
PER_STRATUM = 9
INT_STR_DIGITS = 4300  # CPython's default int->str conversion limit
GOLDEN_LABEL = "1/2+1/2*sqrt(5)"


def _squarefree_ds(rng, lo, hi, count):
    out = set()
    while len(out) < count:
        d = rng.randrange(lo, hi)
        if is_squarefree_int(d):
            out.add(d)
    return sorted(out)


def _field_invariants(rng, lo, hi, count, with_q=False):
    out = [["field-invariants", "--field", "Q"]] if with_q else []
    for d in _squarefree_ds(rng, lo, hi, count - len(out)):
        argv = ["field-invariants", "--field", f"Q(sqrt {d})"]
        if rng.random() < 0.25:
            argv += ["--id-place", "1"]
        out.append(argv)
    return out


def _isometry_matrix(rng, field, dim):
    """Product of 1-8 reflections in integer vectors with entries in
    ENTRY_RANGE, so determinant -1 appears as well."""
    form = spinor.standard_admissible_form(field, dim - 1)
    matrix = spinor.identity_matrix(field, dim)
    for _ in range(rng.randint(1, max(CHAIN_LENGTHS))):
        while True:
            v = tuple(rng.randint(*ENTRY_RANGE) for _ in range(dim))
            if any(v) and form.evaluate(v):
                break
        matrix = spinor.mat_mul(matrix, spinor.reflect(v, form))
    return [[format_element(x) for x in row] for row in matrix]


def _spinor_requests(rng, subcommand, field):
    lead = "1" if field.is_rationals else GOLDEN_LABEL
    out = []
    for i in range(PER_STRATUM):
        dim = SPINOR_DIMS[i % len(SPINOR_DIMS)]
        out.append([
            subcommand,
            "--field", field.label(),
            "--form", ",".join([lead] + ["-1"] * (dim - 1)),
            "--matrix", json.dumps(_isometry_matrix(rng, field, dim), separators=(",", ":")),
        ])
    return out


def _growth_numerator_digits(r, degree):
    """Decimal digits of the growth-bound numerator (prod_{i<=r} (2i-1)!)**degree."""
    return decimal_digits(math.prod(math.factorial(2 * i - 1) for i in range(1, r + 1)) ** degree)


def _largest_in_limit_r(degree):
    r = 1
    while _growth_numerator_digits(r + 1, degree) <= INT_STR_DIGITS:
        r += 1
    return r


def _growth_r(rng, across_limit):
    out = []
    for i in range(12):
        degree = 1 + i % 3
        top = _largest_in_limit_r(degree)
        lo, hi = (top - 12, top + 12) if across_limit else (1, top)
        out.append(["growth-bound", "--r", str(rng.randint(lo, hi)), "--degree", str(degree)])
    return out


def _growth_certify(rng, across_limit):
    top = _largest_in_limit_r(1)
    lo, hi = (top - 10, top + 10) if across_limit else (3, top)
    return [["growth-bound", "--certify", str(rng.randint(lo, hi))] for _ in range(8)]


def build_strata() -> dict:
    rng = random.Random(GENERATOR_SEED)
    q = TotallyRealField.rationals()
    k5 = TotallyRealField.real_quadratic(5)
    return {
        "field_invariants_small": _field_invariants(rng, 2, 1_000, PER_STRATUM, with_q=True),
        "field_invariants_mid": _field_invariants(rng, 1_000, 100_000, PER_STRATUM),
        "field_invariants_large": _field_invariants(rng, 100_000, 1_000_000, PER_STRATUM),
        "spinor_norm_q": _spinor_requests(rng, "spinor-norm", q),
        "spinor_norm_k5": _spinor_requests(rng, "spinor-norm", k5),
        "decompose_q": _spinor_requests(rng, "decompose", q),
        "decompose_k5": _spinor_requests(rng, "decompose", k5),
        "check_normalizer": [
            ["check-normalizer", "--field", label, "--n", str(n)]
            for label in ("Q", "Q(sqrt 5)") for n in (4, 6, 8)
        ],
        "growth_bound_r": _growth_r(rng, across_limit=False),
        "growth_bound_certify": _growth_certify(rng, across_limit=False),
        "growth_bound_r_across_limit": _growth_r(rng, across_limit=True),
        "growth_bound_certify_across_limit": _growth_certify(rng, across_limit=True),
        "sweep": [["sweep", "--dmax", str(rng.randint(10, 60))] for _ in range(6)],
    }


def main() -> int:
    strata = {}
    for name, requests in build_strata().items():
        strata[name] = []
        for argv in requests:
            code, out, err = run_cli(argv)
            ok = code == 0 and not err
            if not ok and name in CLI_MIX_STRATA:
                sys.stderr.write(f"cli_mix request failed: {argv}\n{err}")
                return 1
            strata[name].append({"argv": argv, "sha256": stdout_digest(out) if ok else None})
    doc = {"generator_seed": GENERATOR_SEED, "strata": strata}
    CLI_REQUESTS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
