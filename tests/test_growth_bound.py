import dataclasses
import json
from math import factorial

import mpmath
import pytest

from orbinv import GrowthBoundValue, euler_char_bound, superexponential_certificate
from orbinv import growth_bound as gb
from orbinv.cli import main


def reference_value(numerator: int, pi_power: int, prec: int = 512) -> mpmath.mpf:
    with mpmath.workprec(prec):
        return mpmath.mpf(numerator) / (2 * mpmath.pi) ** pi_power


def test_half_dimension_one():
    v = euler_char_bound(1, 1)
    assert v.exact_numerator == 1
    assert v.pi_power == 2
    # oracle: 1/(2 pi)^2 = 0.0253302959105844428609698658024... (mpmath, 45 digits)
    with mpmath.workprec(256):
        err = abs(v.float_value - mpmath.mpf("0.0253302959105844428609698658024"))
        assert err < mpmath.mpf(2) ** -90


def test_half_dimension_two():
    v = euler_char_bound(2, 1)
    assert v.exact_numerator == 6  # 1! * 3!
    assert v.pi_power == 6
    with mpmath.workprec(256):
        err = abs(v.float_value - mpmath.mpf("0.0000975151381214861527584222782732"))
        assert err < mpmath.mpf(2) ** -95


def test_degree_multiplicativity():
    for r in (1, 2, 5):
        single = euler_char_bound(r, 1)
        double = euler_char_bound(r, 2)
        assert double.exact_numerator == single.exact_numerator**2
        assert double.pi_power == 2 * single.pi_power
        with mpmath.workprec(256):
            assert abs(double.float_value - single.float_value**2) < mpmath.mpf(2) ** -100


def test_float_exact_agreement():
    for r, degree, bits in ((1, 1, 128), (4, 2, 128), (10, 1, 192), (20, 3, 64)):
        v = euler_char_bound(r, degree, bits)
        ref = reference_value(v.exact_numerator, v.pi_power)
        with mpmath.workprec(512):
            rel = abs(v.float_value - ref) / ref
            assert rel < mpmath.mpf(2) ** (-bits + 8), (r, degree, bits)


def test_exact_ratio_law():
    values = [euler_char_bound(r, 1) for r in range(1, 21)]
    for r in range(1, 20):
        assert values[r].exact_numerator == values[r - 1].exact_numerator * factorial(2 * r + 1)
        assert values[r].pi_power == values[r - 1].pi_power + 2 * r + 2


def test_input_validation():
    with pytest.raises(ValueError):
        euler_char_bound(0, 1)
    with pytest.raises(ValueError):
        euler_char_bound(1, 0)
    with pytest.raises(ValueError):
        euler_char_bound(1, 1, precision_bits=32)
    with pytest.raises(ValueError):
        superexponential_certificate(2)


def test_certificate_thresholds():
    cert = superexponential_certificate(20)
    assert cert.ratio_identity_verified
    # oracle comparison of (2r+1)! and (2r-1)! against (2 pi)^(2r+2):
    # B(r) increases from r = 8 on, B(r)/(2r-1)! from r = 11 on
    assert cert.value_increase_threshold == 8
    assert cert.factorial_ratio_threshold == 11
    assert cert.monotone_from_threshold
    assert cert.threshold_reached
    assert len(cert.values) == 20
    assert all(isinstance(v, GrowthBoundValue) for v in cert.values)


def test_certificate_threshold_not_reached():
    cert = superexponential_certificate(3)
    assert not cert.threshold_reached
    assert cert.value_increase_threshold is None
    assert cert.factorial_ratio_threshold is None
    assert cert.ratio_identity_verified


def _direct_flags(r_max: int):
    # independent of the certificate's table: 60-digit evaluations of (2r+1)!
    # and (2r-1)! against (2 pi)^(2r+2), i.e. B(r+1) > B(r) and
    # B(r+1)/(2r+1)! > B(r)/(2r-1)!
    with mpmath.workdps(60):
        two_pi = 2 * mpmath.pi
        value_up = [mpmath.mpf(factorial(2 * r + 1)) > two_pi ** (2 * r + 2) for r in range(1, r_max)]
        ratio_up = [mpmath.mpf(factorial(2 * r - 1)) > two_pi ** (2 * r + 2) for r in range(1, r_max)]
    return value_up, ratio_up


def test_certificate_matches_direct_comparison():
    for r_max in (14, 55):
        value_up, ratio_up = _direct_flags(r_max)
        for precision_bits in (64, 128, 10000):
            cert = superexponential_certificate(r_max, precision_bits)
            for r in range(1, r_max):
                assert value_up[r - 1] == (cert.value_increase_threshold is not None
                                           and r >= cert.value_increase_threshold), r
                assert ratio_up[r - 1] == (cert.factorial_ratio_threshold is not None
                                           and r >= cert.factorial_ratio_threshold), r
            assert cert.monotone_from_threshold and cert.threshold_reached


def _land_quotient(monkeypatch, r, bound, offset):
    # tabulate B(r+1) as B(r) * bound * (1 + offset), so that q_r sits at that
    # relative distance from its bound
    def patched(k, degree, precision_bits=128):
        value = euler_char_bound(k, degree, precision_bits)
        if k == r + 1:
            with mpmath.workprec(2 * precision_bits):
                below = euler_char_bound(r, degree, precision_bits).float_value
                landed = below * bound * (1 + offset)
            value = dataclasses.replace(value, float_value=landed)
        return value

    monkeypatch.setattr(gb, "euler_char_bound", patched)


@pytest.mark.parametrize("r, bound", [(8, 1), (10, 420)])  # one bound of each family
def test_certificate_refuses_a_quotient_within_its_margin(monkeypatch, capsys, r, bound):
    precision_bits = 128
    for exponent in (None, 7 - precision_bits, -7 - precision_bits):
        offset = 0 if exponent is None else mpmath.mpf(2) ** exponent
        _land_quotient(monkeypatch, r, bound, offset)
        with pytest.raises(ValueError, match="comparison too close to decide"):
            superexponential_certificate(12, precision_bits)
        code = main(["growth-bound", "--certify", "12", "--precision", str(precision_bits)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "validation",
                                   "detail": "comparison too close to decide at this precision"}
    # just outside the margin bound * 2^(8-p) the comparison is decided
    _land_quotient(monkeypatch, r, bound, mpmath.mpf(2) ** (9 - precision_bits))
    assert superexponential_certificate(12, precision_bits).threshold_reached
