"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import random
import time
from fractions import Fraction
from math import factorial

import mpmath

from conftest import SEED, admissible_form, quad_field, random_isometry, rationals
from orbinv import (
    QuadFieldElem,
    SquareClass,
    cartan_dieudonne_decompose,
    euler_char_bound,
    fundamental_discriminant,
    in_k_infinity_star,
    normalizer_index_check,
    restricted_class_number,
    analytic_class_number_oracle,
    so0_membership,
    spinor_norm,
    squarefree_range,
    superexponential_certificate,
)
from orbinv.cli import main

Q = rationals()
K5 = quad_field(5)


def _verdict(name: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = "PASS" if ok else "FAIL"
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {name}: {stamp}{timing}")
    assert ok, name


def test_c1_field_invariants_reproduction():
    t0 = time.perf_counter()
    inv_q = restricted_class_number(Q)
    inv_5 = restricted_class_number(K5)
    elapsed = time.perf_counter() - t0
    ok = (
        (inv_q.h, inv_q.h2, inv_q.units.unit_index_infinity, inv_q.h_inf_2) == (1, 1, 1, 1)
        and (inv_5.h, inv_5.h2, inv_5.units.unit_index_infinity, inv_5.h_inf_2)
        == (1, 1, 2, 1)
        and inv_q.uniqueness_certified
        and inv_5.uniqueness_certified
        and inv_5.units.fundamental_unit
        == QuadFieldElem(Fraction(1, 2), Fraction(1, 2), 5)
        and inv_5.units.unit_norm == -1
        and elapsed < 1.0
    )
    _verdict("C1 restricted 2-class numbers for Q and Q(sqrt 5)", ok, elapsed)


def test_c1_field_invariants_near_the_d_cap():
    field = quad_field(9999991)  # D = 4d, near the CLI's d cap of 10**7
    t0 = time.perf_counter()
    inv = restricted_class_number(field)
    elapsed = time.perf_counter() - t0
    ok = (
        (inv.h, inv.h_plus, inv.h2, inv.units.unit_norm, inv.h_inf_2) == (1, 2, 1, 1, 1)
        and elapsed < 0.25
    )
    _verdict("C1 restricted 2-class number of Q(sqrt 9999991) near the d cap", ok, elapsed)


def test_c2_normalizer_index_reproduction():
    t0 = time.perf_counter()
    ok = True
    for field in (Q, K5):
        for n in (4, 6, 8):
            report = normalizer_index_check(field, n)
            ok = ok and report.index_gamma_lambda == 2
            ok = ok and report.witness_stabilizes_lattice
            ok = ok and not report.witness_in_so0
            ok = ok and all(report.fixed_classes_in_k_infinity_star)
            ok = ok and report.witness_spinor_class_is_fixed
            if field.is_rationals:
                ok = ok and report.witness_spinor_class == SquareClass.of(Q, -1)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict("C2 normalizer index 2 with diag(-1,-1,1,...,1) witness", ok, elapsed)


def _distinct_prime_count(n: int) -> int:
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (1 if n > 1 else 0)


def test_c3_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    ds = squarefree_range(100)
    ok = len(ds) == 60
    for d in ds:
        inv = restricted_class_number(quad_field(d))
        ok = ok and inv.h == analytic_class_number_oracle(d)
        ok = ok and inv.h_plus == inv.h * (2 if inv.units.unit_norm == 1 else 1)
        t = _distinct_prime_count(fundamental_discriminant(d))
        ok = ok and inv.h_plus % 2 ** (t - 1) == 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict("C3 form-cycle h = analytic h on 60 squarefree d <= 100", ok, elapsed)


def test_c4_degree_two_identity():
    ok = True
    for d in squarefree_range(100):
        inv = restricted_class_number(quad_field(d))
        ok = ok and inv.units.unit_index_infinity == 2
        ok = ok and inv.h_inf_2 == inv.h2
    _verdict("C4 [U:U_inf] = 2 and h_inf_2 = h2 across the sweep", ok)


def test_c5_spinor_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    combos = [
        admissible_form(Q, 3),
        admissible_form(Q, 5),
        admissible_form(K5, 3),
        admissible_form(K5, 5),
    ]
    ok = True
    total = 0
    for form in combos:
        field = form.field
        samples = [random_isometry(rng, form) for _ in range(50)]
        total += len(samples)
        classes = [spinor_norm(g) for g in samples]
        for i in range(0, len(samples), 2):
            ok = ok and spinor_norm(samples[i] * samples[i + 1]) == classes[i] * classes[i + 1]
        reversed_order = tuple(reversed(range(form.dim)))
        for g, cls in zip(samples, classes):
            dec = cartan_dieudonne_decompose(g)
            ok = ok and dec.recompose() == g.matrix
            ok = ok and dec.length % 2 == 0
            other = cartan_dieudonne_decompose(g, pivot_order=reversed_order)
            folded = SquareClass.trivial(field)
            for v in other.vectors:
                folded = folded * SquareClass.of(field, form.evaluate(v))
            ok = ok and folded == cls
        if not field.is_rationals:
            ok = ok and all(in_k_infinity_star(c.representative, field) for c in classes)
    elapsed = time.perf_counter() - t0
    ok = ok and total == 200 and elapsed < 30.0
    _verdict("C5 spinor-norm property suite on 200 seeded isometries", ok, elapsed)


def test_c6_growth_bound():
    t0 = time.perf_counter()
    values = [euler_char_bound(r, 1, 128) for r in range(1, 21)]
    ok = all(
        values[r].exact_numerator == values[r - 1].exact_numerator * factorial(2 * r + 1)
        and values[r].pi_power == values[r - 1].pi_power + 2 * r + 2
        for r in range(1, 20)
    )
    with mpmath.workprec(512):
        for v in values:
            exact = mpmath.mpf(v.exact_numerator) / (2 * mpmath.pi) ** v.pi_power
            ok = ok and abs(v.float_value - exact) / exact < mpmath.mpf(2) ** -120
    cert = superexponential_certificate(20, 128)
    ok = ok and cert.threshold_reached and cert.monotone_from_threshold
    ok = ok and cert.value_increase_threshold is not None
    ok = ok and cert.factorial_ratio_threshold is not None
    ok = ok and cert.ratio_identity_verified
    elapsed = time.perf_counter() - t0
    _verdict("C6 growth bound: exact ratio law, 2^-120 floats, finite threshold", ok, elapsed)


def test_c7_cli_determinism(capsys):
    commands = [
        ["field-invariants", "--field", "Q"],
        ["field-invariants", "--field", "Q(sqrt 5)"],
        ["check-normalizer", "--field", "Q", "--n", "4"],
        ["check-normalizer", "--field", "Q(sqrt 5)", "--n", "4"],
        ["spinor-norm", "--field", "Q", "--form", "1,-1,-1",
         "--matrix", '[["5/3","4/3","0"],["4/3","5/3","0"],["0","0","1"]]'],
        ["decompose", "--field", "Q(sqrt 5)", "--form", "1/2+1/2*sqrt(5),-1/1,-1/1",
         "--matrix", '[["-1/1+0/1*sqrt(5)","0/1+0/1*sqrt(5)","0/1+0/1*sqrt(5)"],'
                     '["0/1+0/1*sqrt(5)","-1/1+0/1*sqrt(5)","0/1+0/1*sqrt(5)"],'
                     '["0/1+0/1*sqrt(5)","0/1+0/1*sqrt(5)","1/1+0/1*sqrt(5)"]]'],
        ["growth-bound", "--r", "3", "--degree", "2"],
        ["growth-bound", "--certify", "20"],
        ["sweep", "--dmax", "100"],
    ]
    ok = True
    for argv in commands:
        code1 = main(argv)
        first = capsys.readouterr().out
        code2 = main(argv)
        second = capsys.readouterr().out
        ok = ok and code1 == 0 and code2 == 0
        ok = ok and first == second and first.endswith("\n")
        json.loads(first)  # every payload is a single valid JSON document
    _verdict("C7 byte-identical CLI output across repeated runs", ok)
