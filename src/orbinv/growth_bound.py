"""Super-exponential lower bound for the Euler characteristic.

The bound in half-dimension r over a field of the given degree is

    B(r) = (prod_{i=1}^{r} (2i-1)!)**degree / (2*pi)**(degree * r * (r+1)),

kept as an exact integer numerator and a (2*pi) exponent; float evaluations
carry a stated bit precision. The multiplicative constant in front of the
bound is unspecified and taken as 1, which does not affect any growth claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import mpmath

__all__ = [
    "GrowthBoundValue",
    "GrowthCertificate",
    "euler_char_bound",
    "superexponential_certificate",
]


@dataclass(frozen=True)
class GrowthBoundValue:
    r: int
    degree: int
    exact_numerator: int
    pi_power: int
    float_value: mpmath.mpf
    precision_bits: int


def euler_char_bound(r: int, degree: int, precision_bits: int = 128) -> GrowthBoundValue:
    """Exact numerator and (2*pi) exponent of B(r), plus a float evaluation.

    pi is computed with 32 guard bits beyond `precision_bits` and the result
    rounded back, so the float agrees with the exact value to the stated
    precision.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if precision_bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {precision_bits}")
    base = 1
    for i in range(1, r + 1):
        base *= factorial(2 * i - 1)
    numerator = base**degree
    pi_power = degree * r * (r + 1)  # = degree * sum of 2i for i <= r
    with mpmath.workprec(precision_bits + 32):
        value = mpmath.mpf(numerator) / (2 * mpmath.pi) ** pi_power
        with mpmath.workprec(precision_bits):
            value = +value
    return GrowthBoundValue(r, degree, numerator, pi_power, value, precision_bits)


@dataclass(frozen=True)
class GrowthCertificate:
    """Tabulated bound values for degree 1 with the exact ratio law and the
    thresholds past which the bound grows super-exponentially."""

    r_max: int
    precision_bits: int
    values: tuple[GrowthBoundValue, ...]
    ratio_identity_verified: bool
    value_increase_threshold: int | None
    factorial_ratio_threshold: int | None
    monotone_from_threshold: bool
    threshold_reached: bool


def superexponential_certificate(r_max: int, precision_bits: int = 128) -> GrowthCertificate:
    """Certify B(r+1)/B(r) = (2r+1)!/(2*pi)^(2r+2) exactly for r < r_max and
    locate the growth thresholds.

    value_increase_threshold is the least r0 with B(r) increasing from r0 up
    to r_max; factorial_ratio_threshold the least r0 where B(r)/(2r-1)! starts
    to increase (monotonicity up to r_max is then confirmed separately). Either
    may be None when r_max is too small, reported as threshold not reached.
    """
    if r_max < 3:
        raise ValueError(f"r_max must be >= 3, got {r_max}")
    values = tuple(euler_char_bound(r, 1, precision_bits) for r in range(1, r_max + 1))

    ratio_ok = all(
        values[r].exact_numerator == values[r - 1].exact_numerator * factorial(2 * r + 1)
        and values[r].pi_power == values[r - 1].pi_power + 2 * r + 2
        for r in range(1, r_max)
    )

    # q_r = B(r+1)/B(r) = (2r+1)!/(2*pi)^(2r+2), read off the table: B
    # increases at r iff q_r > 1, and B(r)/(2r-1)! iff q_r > (2r+1)!/(2r-1)!.
    # Each tabulated value is within a relative 2^-p of B(r), p = precision_bits,
    # so their quotient, taken with 32 guard bits, is within a relative 2^(2-p)
    # of q_r; outside the margin bound * 2^(8-p) it lies on the side of q_r.
    value_up, ratio_up = [], []
    with mpmath.workprec(precision_bits + 32):
        margin = mpmath.mpf(2) ** (8 - precision_bits)
        for r in range(1, r_max):
            q = values[r].float_value / values[r - 1].float_value
            for flags, bound in ((value_up, 1), (ratio_up, 2 * r * (2 * r + 1))):
                if abs(q - bound) < bound * margin:
                    raise ValueError("comparison too close to decide at this precision")
                flags.append(q > bound)

    value_threshold = next((r for r, up in enumerate(value_up, 1) if up), None)
    ratio_threshold = next((r for r, up in enumerate(ratio_up, 1) if up), None)
    reached = value_threshold is not None and ratio_threshold is not None
    return GrowthCertificate(
        r_max=r_max,
        precision_bits=precision_bits,
        values=values,
        ratio_identity_verified=ratio_ok,
        value_increase_threshold=value_threshold,
        factorial_ratio_threshold=ratio_threshold,
        monotone_from_threshold=reached
        and all(value_up[value_threshold - 1:])
        and all(ratio_up[ratio_threshold - 1:]),
        threshold_reached=reached,
    )
