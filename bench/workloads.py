"""Seeded workloads of the orbinv benchmark.

Every workload is a closed loop with one client: `passes(seed)` yields lists
of op inputs, `op(item)` runs one op through the library and returns its
output, and `check(item, output)` decides, outside the timed region, whether
that output is correct. Each pass takes one input from every stratum of the
workload's input space and shuffles them, so a run covers the space evenly
whatever its seed, and passes cost about the same.

The library receives only the generated inputs; it never sees the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from orbinv import cli, spinor
from orbinv import field_invariants as fi
from orbinv.exact_arith import SquareClass, TotallyRealField

BENCH_DIR = Path(__file__).resolve().parent
CLI_REQUESTS = BENCH_DIR / "cli_requests.json"

SPINOR_DIMS = (3, 4, 5)
CHAIN_LENGTHS = (2, 4, 6, 8)
ENTRY_RANGE = (-5, 5)
# log-spaced bands of the discriminant D for the fields workload, two fields per
# band per pass, one with D = d and one with D = 4d; the oracle's cost grows
# with D, not with d, and at equal D is about twice as high for D = d
FIELD_DISC_MIN, FIELD_DISC_MAX, FIELD_BANDS = 100, 10_000, 16

WARMUP_SEED = "warm-up"


def is_squarefree_int(n: int) -> bool:
    # benchmark-side copy, so drawing inputs calls nothing in the library
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


class Workload:
    def kind(self, item) -> str:
        """Label of an op, used by the traced run to split counters by request type."""
        return "op"

    def reset(self):
        """Forget state carried from one op to the next."""


# ---------------------------------------------------------------------------
# spinor_q / spinor_k5
# ---------------------------------------------------------------------------


class SpinorWorkload(Workload):
    """Isometries of <c,-1,...,-1> built from 2-8 reflections; every second op
    also takes the spinor norm of the product with the previous isometry."""

    def __init__(self, field: TotallyRealField):
        self.forms = {dim: spinor.standard_admissible_form(field, dim - 1) for dim in SPINOR_DIMS}
        self.prev = None  # (isometry, spinor norm) of the previous op

    def _vectors(self, rng: random.Random, form, count: int) -> tuple:
        out = []
        while len(out) < count:
            v = tuple(rng.randint(*ENTRY_RANGE) for _ in range(form.dim))
            if any(v) and form.evaluate(v):
                out.append(v)
        return tuple(out)

    def passes(self, seed):
        """Each pass: two pairs per dimension, the four chain lengths split
        between them at random, pairs in random order. An item is
        (form, reflection vectors, whether it closes a pair)."""
        rng = random.Random(seed)
        while True:
            pairs = []
            for dim in SPINOR_DIMS:
                lengths = list(CHAIN_LENGTHS)
                rng.shuffle(lengths)
                pairs += [(dim, lengths[0], lengths[1]), (dim, lengths[2], lengths[3])]
            rng.shuffle(pairs)
            batch = []
            for dim, first, second in pairs:
                form = self.forms[dim]
                batch.append((form, self._vectors(rng, form, first), False))
                batch.append((form, self._vectors(rng, form, second), True))
            yield batch

    def warmup(self):
        for item in next(self.passes(WARMUP_SEED))[:4]:
            self.check(item, self.op(item))
        self.prev = None

    def op(self, item):
        form, vectors, closes_pair = item
        g = spinor.Isometry.from_reflections(form, vectors)
        theta = spinor.spinor_norm(g)
        decomposition = spinor.cartan_dieudonne_decompose(g)
        pair = None
        if closes_pair and self.prev is not None:
            pair = (self.prev[1], spinor.spinor_norm(self.prev[0] * g))
        self.prev = (g, theta)
        return g, theta, decomposition, pair

    def check(self, item, output) -> bool:
        form, _, closes_pair = item
        g, theta, decomposition, pair = output
        if decomposition.recompose() != g.matrix:
            return False
        reversed_order = tuple(reversed(range(form.dim)))
        again = spinor.cartan_dieudonne_decompose(g, reversed_order)
        cls = SquareClass.trivial(form.field)
        for v in again.vectors:
            cls = cls * SquareClass.of(form.field, form.evaluate(v))
        if not cls == theta:
            return False
        if closes_pair:
            if pair is None:
                return False
            prev_theta, product_theta = pair
            if not product_theta == prev_theta * theta:
                return False
        return True

    def reset(self):
        self.prev = None


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class FieldsWorkload(Workload):
    """One sweep row: the restricted 2-class number bundle of Q(sqrt d) plus
    the analytic class number oracle."""

    def __init__(self):
        ratio = FIELD_DISC_MAX / FIELD_DISC_MIN
        self.bands = [
            (round(FIELD_DISC_MIN * ratio ** (i / FIELD_BANDS)),
             round(FIELD_DISC_MIN * ratio ** ((i + 1) / FIELD_BANDS)))
            for i in range(FIELD_BANDS)
        ]

    @staticmethod
    def _draw(rng: random.Random, lo: int, hi: int, d_is_disc: bool) -> int:
        """A squarefree d whose discriminant lies in [lo, hi): D = d with
        d = 1 mod 4 if `d_is_disc`, else D = 4d with d = 2, 3 mod 4."""
        while True:
            d = rng.randrange(lo, hi) if d_is_disc else rng.randrange(lo // 4, (hi + 3) // 4)
            disc = d if d % 4 == 1 else 4 * d
            if (d % 4 == 1) == d_is_disc and lo <= disc < hi and is_squarefree_int(d):
                return d

    def passes(self, seed):
        rng = random.Random(seed)
        while True:
            batch = [self._draw(rng, lo, hi, d_is_disc)
                     for lo, hi in self.bands for d_is_disc in (True, False)]
            rng.shuffle(batch)
            yield batch

    def warmup(self):
        for d in (101, 1009):
            self.check(d, self.op(d))

    def op(self, d):
        inv = fi.restricted_class_number(TotallyRealField.real_quadratic(d))
        return inv, fi.analytic_class_number_oracle(d)

    def check(self, d, output) -> bool:
        inv, analytic_h = output
        narrow_factor = 2 if inv.units.unit_norm == 1 else 1
        return inv.h == analytic_h and inv.h_plus == inv.h * narrow_factor


# ---------------------------------------------------------------------------
# cli_mix / cli_limits
# ---------------------------------------------------------------------------

# strata of committed requests that each CLI workload draws from; cli_limits
# swaps the in-limit growth-bound strata for ones drawn across the 4300-digit
# int->str limit
CLI_MIX_STRATA = (
    "field_invariants_small",
    "field_invariants_mid",
    "field_invariants_large",
    "spinor_norm_q",
    "spinor_norm_k5",
    "decompose_q",
    "decompose_k5",
    "check_normalizer",
    "growth_bound_r",
    "growth_bound_certify",
    "sweep",
)
CLI_LIMITS_STRATA = tuple(
    s + "_across_limit" if s.startswith("growth_bound") else s for s in CLI_MIX_STRATA
)


def load_cli_requests() -> dict:
    """Stratum name -> list of {"argv", "sha256"}; sha256 is null for a
    request that has no committed output."""
    return json.loads(CLI_REQUESTS.read_text(encoding="utf-8"))["strata"]


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliWorkload(Workload):
    """Short requests through orbinv.cli.main, run in-process with stdout and
    stderr captured. Expected stdout digests are committed beside the
    benchmark; a request without one cannot pass."""

    def __init__(self, strata_names, requests: dict | None = None):
        requests = load_cli_requests() if requests is None else requests
        self.strata = [requests[name] for name in strata_names]

    def passes(self, seed):
        """Each pass takes the next request of every stratum, walking each
        stratum in a seeded order that is reshuffled when it wraps."""
        rng = random.Random(seed)
        orders = [[] for _ in self.strata]
        while True:
            batch = []
            for stratum, order in zip(self.strata, orders):
                if not order:
                    order.extend(rng.sample(range(len(stratum)), len(stratum)))
                batch.append(stratum[order.pop()])
            rng.shuffle(batch)
            yield batch

    def warmup(self):
        # the first request of every stratum, which includes spinor norms
        # over Q large enough to reach the lazily imported factoring code
        for stratum in self.strata:
            run_cli(stratum[0]["argv"])

    def op(self, request):
        return run_cli(request["argv"])

    def check(self, request, output) -> bool:
        code, out, err = output
        expected = request["sha256"]
        return code == 0 and not err and expected is not None and stdout_digest(out) == expected

    def kind(self, request) -> str:
        return request["argv"][0]


def decimal_digits(n: int) -> int:
    """Digit count of |n| without int->str, which refuses past 4300 digits."""
    n = abs(n)
    k = max(1, int(n.bit_length() * math.log10(2)))
    while 10**k <= n:
        k += 1
    while k > 1 and 10 ** (k - 1) > n:
        k -= 1
    return k


# ---------------------------------------------------------------------------


WORKLOADS = {
    "spinor_q": lambda: SpinorWorkload(TotallyRealField.rationals()),
    "spinor_k5": lambda: SpinorWorkload(TotallyRealField.real_quadratic(5)),
    "fields": FieldsWorkload,
    "cli_mix": lambda: CliWorkload(CLI_MIX_STRATA),
    "cli_limits": lambda: CliWorkload(CLI_LIMITS_STRATA),
}
