from fractions import Fraction
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import quad_field, rationals
from orbinv import (
    BinaryQuadraticForm,
    InternalConsistencyError,
    QuadFieldElem,
    TotallyRealField,
    analytic_class_number_oracle,
    class_number,
    form_cycles,
    fundamental_discriminant,
    fundamental_unit,
    narrow_class_number,
    reduced_forms,
    reduction_step,
    restricted_class_number,
    restricted_class_number_from_invariants,
    squarefree_range,
    two_class_number,
    unit_group_data,
    unit_index_from_sign_vectors,
    unit_index_infinity,
)
from orbinv import exact_arith, field_invariants
from orbinv.field_invariants import _character_table, _log_sine_sum, _primes_upto, _sqrt_mod

Q = rationals()
K5 = quad_field(5)

SWEEP_DMAX = 40  # the full d <= 100 sweep runs in the acceptance suite


def _jacobi(a: int, n: int) -> int:
    """Reference: the Jacobi symbol (a/n) for odd n >= 1, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _kronecker(D: int, n: int) -> int:
    """Reference: the Kronecker symbol (D/n) for n >= 1 and a discriminant D > 0."""
    result = 1
    while n % 2 == 0:
        if D % 2 == 0:
            return 0
        n //= 2
        if D % 8 in (3, 5):
            result = -result
    return result * _jacobi(D % n, n) if n > 1 else result


# --- fundamental units ---


def pell_fundamental_unit(d: int) -> QuadFieldElem:
    """Independent oracle: the smallest unit (X + Y sqrt d)/2 > 1 of the maximal
    order, found by scanning Y upward through X^2 - d Y^2 = +-4."""
    half_integers_allowed = d % 4 == 1
    Y = 1
    while True:
        for target in (-4, 4):
            X2 = d * Y * Y + target
            if X2 > 0:
                X = isqrt(X2)
                if (
                    X * X == X2
                    and (X - Y) % 2 == 0
                    and (half_integers_allowed or (X % 2 == 0 and Y % 2 == 0))
                ):
                    return QuadFieldElem(Fraction(X, 2), Fraction(Y, 2), d)
        Y += 1


def test_fundamental_unit_examples():
    assert fundamental_unit(5) == QuadFieldElem(Fraction(1, 2), Fraction(1, 2), 5)
    assert fundamental_unit(2) == QuadFieldElem(1, 1, 2)  # oracle: 1 + sqrt 2
    assert fundamental_unit(13) == QuadFieldElem(Fraction(3, 2), Fraction(1, 2), 13)


def test_fundamental_unit_matches_brute_force_below_50():
    # minimality: no smaller unit above 1 exists, by exhaustive Pell search
    for d in squarefree_range(50):
        assert fundamental_unit(d) == pell_fundamental_unit(d), d


def test_fundamental_unit_norms_are_exact_units():
    from orbinv import is_algebraic_integer, sign_at

    for d in squarefree_range(60):
        eps = fundamental_unit(d)
        assert eps.norm() in (1, -1), d
        assert is_algebraic_integer(eps), d
        assert sign_at(eps - 1, 0) == 1, d  # eps > 1 at the first embedding


def state_dict_fundamental_unit(d: int) -> QuadFieldElem:
    """Reference: the continued-fraction walk from sqrt(d) or (1 + sqrt(d))/2
    that stores every (P, Q) state with its convergent matrix U and stops at
    the first repeated state; the period matrix U^-1 T gives the unit."""
    if d % 4 == 1:
        P, Q = 1, 2
    else:
        P, Q = 0, 1
    s = isqrt(d)
    t11, t12, t21, t22 = 1, 0, 0, 1
    seen = {}
    while (P, Q) not in seen:
        seen[(P, Q)] = (t11, t12, t21, t22)
        a = (P + s) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        t11, t12, t21, t22 = t11 * a + t12, t11, t21 * a + t22, t21
    u11, u12, u21, u22 = seen[(P, Q)]
    det_u = u11 * u22 - u12 * u21
    n21 = det_u * (-u21 * t11 + u11 * t21)
    n22 = det_u * (-u21 * t12 + u11 * t22)
    return n21 * ((QuadFieldElem(0, 1, d) + P) / Q) + n22


def test_periodic_unit_walk_matches_the_state_dict_walk():
    for d in [*squarefree_range(5000), 9999991, 9999973]:
        assert fundamental_unit(d) == state_dict_fundamental_unit(d), d


@pytest.mark.parametrize("d", [2, 10, 26, 65])
def test_a_squared_unit_from_the_walk_raises(d, monkeypatch):
    # at d = 10, 26 and 65 the unit has norm -1 and h+ = 2, so eps^2 halves h
    # on the form and the oracle side alike: without the square check both
    # agree on the wrong (h, h_inf_2, certified) = (1, 1, True)
    walk = field_invariants._unit_walk
    monkeypatch.setattr(field_invariants, "_unit_walk", lambda d: walk(d) ** 2)
    field = quad_field(d)
    with pytest.raises(InternalConsistencyError, match="is a square"):
        restricted_class_number(field)
    with pytest.raises(InternalConsistencyError, match="is a square"):
        analytic_class_number_oracle(d)
    monkeypatch.setattr(field_invariants, "is_square", lambda x: False)
    if d == 2:  # h+ = 1 is odd, which the wide class number refuses for norm +1
        with pytest.raises(InternalConsistencyError, match="odd"):
            restricted_class_number(field)
        return
    inv = restricted_class_number(field)
    assert (inv.h, inv.h_inf_2, inv.uniqueness_certified) == (1, 1, True)
    assert analytic_class_number_oracle(d) == 1


def test_no_fundamental_unit_is_a_square():
    assert not any(exact_arith.is_square(fundamental_unit(d)) for d in squarefree_range(3000))


def test_fundamental_unit_rejects_bad_d():
    for bad in (1, 4, 12, -3):
        with pytest.raises(ValueError):
            fundamental_unit(bad)


# --- binary quadratic forms and cycles ---


def test_discriminant_convention():
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(3) == 12
    assert fundamental_discriminant(10) == 40


def test_form_validation():
    with pytest.raises(ValueError):
        BinaryQuadraticForm(2, 4, 2)  # imprimitive
    with pytest.raises(ValueError):
        BinaryQuadraticForm(1, 0, 1)  # negative discriminant
    with pytest.raises(ValueError):
        BinaryQuadraticForm(1, 3, 0)  # discriminant 9 is a square


def test_reduced_forms_of_discriminant_5():
    forms = reduced_forms(5)
    assert {(f.a, f.b, f.c) for f in forms} == {(1, 1, -1), (-1, 1, 1)}
    assert all(f.is_reduced for f in forms)


def test_reduction_cycles_close_up():
    for D in (5, 12, 40, 316):
        cycles = form_cycles(D)
        for cycle in cycles:
            forms = cycle.forms
            for i, f in enumerate(forms):
                assert f.is_reduced
                assert reduction_step(f) == forms[(i + 1) % len(forms)]
        assert sum(len(c) for c in cycles) == len(reduced_forms(D))


def test_internal_forms_skip_the_public_checks(monkeypatch):
    calls = []
    post_init = BinaryQuadraticForm.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(BinaryQuadraticForm, "__post_init__", counting)
    for D in (5, 316, 9973, 39992):
        forms = reduced_forms(D)
        form_cycles(D)
        for f in forms:
            reduction_step(f)
        assert calls == [], D
    BinaryQuadraticForm(1, 1, -1)  # the public constructor still checks
    assert len(calls) == 1


def test_reduction_step_requires_reduced():
    with pytest.raises(ValueError):
        reduction_step(BinaryQuadraticForm(1, 1, -5))  # D = 21, not reduced


def brute_force_reduced_forms(D: int, primitive: bool = True) -> list:
    """Every (a, b, c) with b^2 - 4ac = D, 1 <= b < sqrt D and 1 <= |a| < sqrt D
    that satisfies is_reduced, in (b, a) order; optionally the imprimitive ones
    too, tested through the primitive form (a, b, c)/g, as reducedness scales."""
    s = isqrt(D)
    out = []
    for b in range(1, s + 1):
        for a in range(-s, s + 1):
            if a == 0 or (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            g = gcd(a, b, c)
            if g > 1 and primitive:
                continue
            if BinaryQuadraticForm(a // g, b // g, c // g).is_reduced:
                out.append((a, b, c))
    return out


def test_reduced_forms_match_the_definition_below_2000():
    for D in range(5, 2000):
        if D % 4 in (0, 1) and isqrt(D) ** 2 != D:
            got = [(f.a, f.b, f.c) for f in reduced_forms(D)]
            assert got == brute_force_reduced_forms(D), D
    # non-fundamental discriminants have reduced imprimitive candidates to filter out
    for D in (20, 45, 48):
        assert len(brute_force_reduced_forms(D, primitive=False)) > len(reduced_forms(D)), D


def test_cycle_walk_builds_no_forms(monkeypatch):
    calls = []
    post_init = BinaryQuadraticForm.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(BinaryQuadraticForm, "__post_init__", counting)
    for D in (5, 316, 9973, 39992):
        calls.clear()
        reduced_forms(D)
        enumerated = len(calls)
        calls.clear()
        form_cycles(D)
        assert len(calls) == enumerated, D


def test_faulty_step_is_caught_by_membership(monkeypatch):
    step = field_invariants._step

    def changed_discriminant(D, s, a, b, c):
        return c, b, a + 1  # discriminant D - 4c, as after a lost division

    def off_interval(D, s, a, b, c):
        # r - 2|c| keeps the discriminant but lies below sqrt(D) - 2|c|
        c, r, _ = step(D, s, a, b, c)
        r -= 2 * abs(c)
        return c, r, (r * r - D) // (4 * c)

    for fault in (changed_discriminant, off_interval):
        monkeypatch.setattr(field_invariants, "_step", fault)
        with pytest.raises(InternalConsistencyError):
            form_cycles(316)
        with pytest.raises(InternalConsistencyError):
            reduction_step(reduced_forms(316)[0])


# --- the divisor sieve of reduced_forms ---


def test_primes_upto_matches_trial_division():
    for n in range(0, 400):
        assert _primes_upto(n) == [p for p in range(2, n + 1)
                                   if all(p % q for q in range(2, isqrt(p) + 1))], n
    assert len(_primes_upto(3000)) == 430


def test_sqrt_mod_over_odd_primes_below_3000():
    # p = 1 mod 8 runs the Tonelli-Shanks loop; 0 is its own root
    for p in _primes_upto(3000)[1:]:
        squares = {x * x % p for x in range(1, p)}
        for n in range(1, p):
            r = _sqrt_mod(n, p)
            if n in squares:
                assert r * r % p == n, (n, p)
            else:
                assert r is None, (n, p)
        assert _sqrt_mod(0, p) == 0 and _sqrt_mod(p, p) == 0


def interval_loop_reduced_forms(D: int) -> list:
    """Reference: the O(D) candidate loop that the divisor sieve replaced. 2|a|
    runs over the even integers in (sqrt(D) - b, sqrt(D) + b), and every
    candidate goes through the constructor's primitivity test."""
    s = isqrt(D)
    out = []
    for b in range(2 - D % 2, s + 1, 2):
        ac4 = b * b - D
        lo = s - b + 1
        for ta in range(max(2, lo + lo % 2), s + b + 1, 2):
            if ac4 % (2 * ta) == 0:
                a = ta // 2
                c = ac4 // (4 * a)
                for sign in (1, -1):
                    try:
                        out.append(BinaryQuadraticForm(sign * a, b, sign * c))
                    except ValueError:
                        continue
    out.sort(key=lambda f: (f.b, f.a, f.c))
    return _triples(out)


def _triples(forms) -> list:
    return [(f.a, f.b, f.c) for f in forms]


def test_sieve_matches_the_interval_loop_below_4000():
    for D in range(5, 4000):
        if D % 4 in (0, 1) and isqrt(D) ** 2 != D:
            assert _triples(reduced_forms(D)) == interval_loop_reduced_forms(D), D
    # among them, non-fundamental D with imprimitive candidates to filter out
    for D in (20, 45, 48, 72):
        assert len(brute_force_reduced_forms(D, primitive=False)) > len(reduced_forms(D)), D


def test_sieve_matches_the_interval_loop_near_the_d_cap():
    for D in (4 * 9999991, 9999973):
        assert _triples(reduced_forms(D)) == interval_loop_reduced_forms(D), D


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(5, 10**6).filter(lambda D: D % 4 in (0, 1) and isqrt(D) ** 2 != D))
def test_sieve_matches_the_interval_loop_up_to_a_million(D):
    assert _triples(reduced_forms(D)) == interval_loop_reduced_forms(D)


def test_narrow_class_numbers():
    assert narrow_class_number(5) == 1
    assert narrow_class_number(3) == 2  # D = 12; equals 2h with N(eps) = +1
    assert narrow_class_number(10) == 2


# --- class numbers ---


def test_class_number_examples():
    assert class_number(Q) == 1
    assert class_number(K5) == 1
    assert class_number(quad_field(10)) == 2


def test_odd_narrow_class_number_with_norm_plus_one_is_inconsistent(monkeypatch):
    # Q(sqrt 3) has a unit of norm +1, so h+ = 2h must be even
    monkeypatch.setattr(field_invariants, "form_cycles", lambda D: [None])  # h+ = 1
    with pytest.raises(InternalConsistencyError):
        class_number(quad_field(3))
    with pytest.raises(InternalConsistencyError):
        restricted_class_number(quad_field(3))


def test_two_class_number():
    assert two_class_number(1) == 1
    assert two_class_number(2) == 2
    assert two_class_number(12) == 4
    assert two_class_number(96) == 32
    with pytest.raises(ValueError):
        two_class_number(0)


def test_unit_index_infinity():
    assert unit_index_infinity(Q) == 1
    assert unit_index_infinity(K5) == 2
    assert unit_index_infinity(quad_field(3)) == 2


def test_unit_index_from_sign_vectors():
    assert unit_index_from_sign_vectors(1, [()]) == 1
    assert unit_index_from_sign_vectors(2, [(-1,), (1,)]) == 2
    assert unit_index_from_sign_vectors(3, [(-1, -1)]) == 2
    assert unit_index_from_sign_vectors(3, [(-1, -1), (1, -1)]) == 4
    assert unit_index_from_sign_vectors(3, [(-1, -1), (1, -1), (-1, 1)]) == 4
    with pytest.raises(ValueError):
        unit_index_from_sign_vectors(2, [(0,)])
    with pytest.raises(ValueError):
        unit_index_from_sign_vectors(2, [(-1, -1)])


# --- the restricted 2-class number ---


def test_restricted_class_number_rationals():
    inv = restricted_class_number(Q)
    assert (inv.h, inv.h2, inv.h_plus, inv.h_inf_2) == (1, 1, 1, 1)
    assert inv.units.fundamental_unit is None
    assert inv.units.unit_index_infinity == 1
    assert inv.uniqueness_certified


def test_restricted_class_number_golden_field():
    inv = restricted_class_number(K5)
    assert (inv.h, inv.h2, inv.h_inf_2) == (1, 1, 1)
    assert inv.units.unit_index_infinity == 2
    assert inv.units.unit_norm == -1
    assert inv.uniqueness_certified


def test_restricted_class_number_not_certified():
    inv = restricted_class_number(quad_field(10))
    assert inv.h == 2 and inv.h2 == 2 and inv.h_inf_2 == 2
    assert not inv.uniqueness_certified


def test_restricted_formula_for_supplied_invariants():
    # degree 3, h = 1, units hitting the full sign group away from Id
    full = restricted_class_number_from_invariants(
        3, 1, [(-1, -1), (1, -1), (-1, 1)]
    )
    assert full.h_inf_2 == 1 and full.uniqueness_certified
    # only -1 available: index 2, bound 2^2 * 1 / 2 = 2
    partial = restricted_class_number_from_invariants(3, 1, [(-1, -1)])
    assert partial.h_inf_2 == 2 and not partial.uniqueness_certified
    assert restricted_class_number_from_invariants(4, 6, [(-1,) * 3]).h_inf_2 == 8
    with pytest.raises(ValueError):
        restricted_class_number_from_invariants(0, 1, [])
    with pytest.raises(ValueError):
        restricted_class_number_from_invariants(3, 0, [(-1, -1)])


# --- analytic oracle and the sweep ---


def test_analytic_oracle_examples():
    assert analytic_class_number_oracle(5) == 1
    assert analytic_class_number_oracle(10) == 2
    assert analytic_class_number_oracle(79) == 3


def test_analytic_oracle_requires_30_digits():
    with pytest.raises(ValueError):
        analytic_class_number_oracle(5, digits=20)


@pytest.mark.parametrize(
    "D", [5, 8, 12, 13, 17, 21, 24, 33, 9973, 4 * 9991, 4 * 9998, 4 * 9999991])
def test_character_at_primes_matches_the_kronecker_symbol(D):
    # Euler's criterion at odd primes and D mod 8 at 2, against quadratic
    # reciprocity; D runs over every class 0, 1, 4, 5 mod 8, the primes p | D
    # below 3000 are 2, 3, 7, 11, 97 and 103, and the multiplicative
    # extension to composites is compared as well
    chi = _character_table(D, 2999)
    for p in _primes_upto(2999):
        assert chi[p] == _kronecker(D, p), (D, p)
    assert chi == [0] + [_kronecker(D, a) for a in range(1, 3000)], D


def test_character_table_for_even_discriminants_fills_odd_a_only():
    # for even D the table is sieved and filled at odd a only; the even
    # entries stay 0, which is chi_D there, so the whole half table the oracle
    # builds still equals the Kronecker symbol, for every even fundamental
    # discriminant D < 400
    # an even D = 4d needs d < 100, so d <= 100 gives every one of them
    even = sorted(D for D in map(fundamental_discriminant, squarefree_range(100))
                  if D % 2 == 0 and D < 400)
    assert len(even) == 41
    for D in even:
        half = (D - 1) // 2
        assert _character_table(D, half) == [0] + [_kronecker(D, a) for a in range(1, half + 1)], D


def _direct_log_sine_sum(D: int) -> mpmath.mpf:
    """Reference: the plain O(D) sum of chi_D(a) log sin(pi a / D) over
    0 < a < D, one mpmath sine and logarithm per term, at 60 digits."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        pi_over_D = mpmath.pi / D
        for a in range(1, D):
            chi = _kronecker(D, a)
            if chi:
                term = mpmath.log(mpmath.sin(pi_over_D * a))
                total += term if chi == 1 else -term
        return total


# 9973 is a prime = 1 mod 4, 9998 = 2 and 9991 = 3 mod 4, and 8 * 1249 is the
# D = 0 mod 8 case; Phi_D(1) is D for 5, 13 and 9973, 2 for 8, and 1 otherwise
KERNEL_DISCRIMINANTS = [5, 8, 12, 13, 24, 9973, 4 * 9998, 4 * 9991, 8 * 1249]


@pytest.mark.parametrize("D", KERNEL_DISCRIMINANTS)
def test_log_sine_kernel_matches_direct_sum(D):
    reference = _direct_log_sine_sum(D)
    for digits in (30, 40):
        with mpmath.workdps(60):
            error = abs(_log_sine_sum(D, digits) - reference)
            assert error < mpmath.mpf(10) ** -digits, (D, digits, error)


@pytest.mark.parametrize("D", KERNEL_DISCRIMINANTS)
def test_cyclotomic_identity_closes_the_sine_sum(D):
    # prod over a < D/2 prime to D of 2 sin(pi a / D) = sqrt(Phi_D(1)), where
    # Phi_D(1) = p when D is a power of the prime p and 1 otherwise; the sines
    # are taken one by one in mpmath at 60 digits
    p = next(p for p in _primes_upto(D) if D % p == 0)
    m = D
    while m % p == 0:
        m //= p
    phi = p if m == 1 else 1
    with mpmath.workdps(60):
        total = mpmath.fsum(mpmath.log(2 * mpmath.sin(mpmath.pi * a / D))
                            for a in range(1, (D + 1) // 2) if gcd(a, D) == 1)
        assert abs(total - mpmath.log(phi) / 2) < mpmath.mpf(10) ** -50, (D, total)


def test_d_is_checked_once_per_entry_point(monkeypatch):
    # the field's constructor is the one check in restricted_class_number, and
    # each public function of d checks it once; a fields op (a sweep row of the
    # library) runs is_squarefree twice
    calls = []
    real = exact_arith.is_squarefree
    monkeypatch.setattr(exact_arith, "is_squarefree", lambda n: calls.append(n) or real(n))
    for d in (5, 10, 79, 9973):
        field = TotallyRealField.real_quadratic(d)
        assert calls == [d]
        inv = restricted_class_number(field)
        assert calls == [d]
        assert analytic_class_number_oracle(d) == inv.h
        assert calls == [d, d]
        calls.clear()
        for public in (fundamental_unit, fundamental_discriminant, narrow_class_number):
            public(d)
            assert calls == [d], public.__name__
            calls.clear()


def test_form_cycle_h_matches_oracle_to_1000():
    for d in squarefree_range(1000):
        assert restricted_class_number(quad_field(d)).h == analytic_class_number_oracle(d), d


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


def test_sweep_properties():
    for d in squarefree_range(SWEEP_DMAX):
        field = quad_field(d)
        inv = restricted_class_number(field)
        assert inv.h == analytic_class_number_oracle(d), d
        expected_plus = inv.h * (2 if inv.units.unit_norm == 1 else 1)
        assert inv.h_plus == expected_plus, d
        # genus bound: 2^(t-1) divides h+ for t distinct primes of D
        t = _distinct_prime_count(fundamental_discriminant(d))
        assert inv.h_plus % 2 ** (t - 1) == 0, d
        # degree-2 identity
        assert inv.units.unit_index_infinity == 2, d
        assert inv.h_inf_2 == inv.h2, d


def test_unit_group_data_bundle():
    data = unit_group_data(K5)
    assert data.fundamental_unit == QuadFieldElem(Fraction(1, 2), Fraction(1, 2), 5)
    assert data.unit_norm == -1
    assert data.unit_index_infinity == 2
    assert data.fundamental_unit.norm() == data.unit_norm
