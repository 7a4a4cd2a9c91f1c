"""Class numbers, units and the restricted 2-class number of totally real fields.

The wide class number of a real quadratic field is obtained from the cycle
structure of reduced indefinite binary quadratic forms of the fundamental
discriminant, together with the norm of the fundamental unit; an independent
Dirichlet analytic evaluation is provided as an oracle. The fundamental unit
is one period of the purely periodic continued fraction one step past sqrt(d)
or (1 + sqrt(d))/2. Reduced forms come from a divisor sieve over their middle
coefficients, in O(sqrt(D) log D) time, with gcd(a, b, c) = 1 the one check
on each; the cycle walk checks its integer steps by membership in that set.
The oracle evaluates chi_D at primes by Euler's criterion, makes each sine
with one integer product by a Chebyshev recurrence, multiplies only the sines
with chi_D = +1, and gets the rest of the sum from Phi_D(1), the product of
1 - zeta over the primitive D-th roots of unity zeta. Each public function of
d checks d once; the private helpers behind them take a checked d. The
headline quantity is the restricted 2-class number

    h_inf_2 = 2**(degree - 1) * h2 / [U : U_inf],

a positive integer whose triviality certifies uniqueness of the associated
arithmetic groups up to conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import ceil, gcd, isqrt, log2

import mpmath

from .exact_arith import (
    InternalConsistencyError,
    QuadFieldElem,
    TotallyRealField,
    _is_square_int,
    _quad,
    is_algebraic_integer,
    is_square,
    is_squarefree,
    sign_at,
)

__all__ = [
    "BinaryQuadraticForm",
    "FormCycle",
    "UnitGroupData",
    "FieldInvariants",
    "RestrictedTwoClassBound",
    "fundamental_discriminant",
    "fundamental_unit",
    "reduced_forms",
    "reduction_step",
    "form_cycles",
    "narrow_class_number",
    "class_number",
    "two_class_number",
    "unit_group_data",
    "unit_index_infinity",
    "unit_index_from_sign_vectors",
    "restricted_class_number",
    "restricted_class_number_from_invariants",
    "analytic_class_number_oracle",
    "squarefree_range",
]


def fundamental_discriminant(d: int) -> int:
    """Discriminant of the maximal order of Q(sqrt d): d if d = 1 mod 4, else 4d."""
    TotallyRealField.real_quadratic(d)  # checks d
    return _fundamental_discriminant(d)


def _fundamental_discriminant(d: int) -> int:
    # for a d that is already checked
    return d if d % 4 == 1 else 4 * d


def squarefree_range(dmax: int) -> list[int]:
    """Squarefree integers d with 2 <= d <= dmax."""
    return [d for d in range(2, dmax + 1) if is_squarefree(d)]


# ---------------------------------------------------------------------------
# Fundamental unit by continued fractions
# ---------------------------------------------------------------------------


def fundamental_unit(d: int) -> QuadFieldElem:
    """Fundamental unit eps > 1 of the ring of integers of Q(sqrt d).

    One continued-fraction step from sqrt(d) (d = 2, 3 mod 4) or
    (1 + sqrt(d))/2 (d = 1 mod 4) lands on the reduced number
    alpha = (P0 + sqrt d)/Q0, whose expansion is purely periodic. The walk
    steps the exact (P, Q) state from there until (P0, Q0) comes back; the
    convergent matrix T of that period fixes alpha, and eps = T21 alpha + T22
    is the smallest unit above 1. It is verified to be an algebraic integer of
    norm +-1 exceeding 1, and no square, before it is returned.
    """
    TotallyRealField.real_quadratic(d)  # checks d
    return _fundamental_unit(d)


def _fundamental_unit(d: int) -> QuadFieldElem:
    # fundamental_unit for a checked d: the walk's unit and its checks; a square
    # would halve h on both sides, and is_square rejects norm -1 by its norm
    eps = _unit_walk(d)
    if not is_algebraic_integer(eps) or eps.norm() not in (1, -1) or sign_at(eps - 1, 0) != 1:
        raise InternalConsistencyError(f"continued fraction produced no unit above 1 for d={d}")
    if is_square(eps):
        raise InternalConsistencyError(f"continued fraction unit for d={d} is a square")
    return eps


def _unit_walk(d: int) -> QuadFieldElem:
    # one period of the continued fraction, as the unit T21 alpha + T22
    s = isqrt(d)
    if d % 4 == 1:
        P0 = s if s % 2 else s - 1  # 2 floor((1 + sqrt d)/2) - 1
        Q0 = (d - P0 * P0) // 2
    else:
        P0, Q0 = s, d - s * s
    P, Q = P0, Q0
    # T = [[p_{k-1}, p_{k-2}], [q_{k-1}, q_{k-2}]], the convergent matrix from alpha
    t11, t12, t21, t22 = 1, 0, 0, 1
    while True:
        a = (P + s) // Q  # floor((P + sqrt d)/Q); exact because sqrt d is irrational
        P = a * Q - P
        if (d - P * P) % Q:
            raise InternalConsistencyError("continued fraction lost Q | d - P^2")
        Q = (d - P * P) // Q
        if Q <= 0:
            raise InternalConsistencyError("continued fraction state left the positive domain")
        t11, t12, t21, t22 = t11 * a + t12, t11, t21 * a + t22, t21
        if P == P0 and Q == Q0:
            break
    alpha = _quad(P0, 1, Q0, d)  # (P0 + sqrt d)/Q0, with T alpha = alpha
    return t21 * alpha + t22  # T (alpha, 1) = eps (alpha, 1)


# ---------------------------------------------------------------------------
# Unit group data and the totally positive index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitGroupData:
    fundamental_unit: QuadFieldElem | None
    unit_norm: int | None
    unit_index_infinity: int


def unit_index_from_sign_vectors(degree: int, sign_vectors) -> int:
    """[U : U_inf] from sign vectors of unit generators at the non-Id places.

    Each vector has one +-1 entry per real place other than Id; the index is
    2**rank of those vectors over the field with two elements. The vector of
    -1 (all entries -1) must be included by the caller.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    width = degree - 1
    basis: list[int] = []
    for vec in sign_vectors:
        vec = tuple(vec)
        if len(vec) != width or any(s not in (1, -1) for s in vec):
            raise ValueError(f"bad sign vector {vec!r} for degree {degree}")
        m = sum(1 << j for j, sgn in enumerate(vec) if sgn == -1)
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
    return 2 ** len(basis)


def unit_group_data(field: TotallyRealField) -> UnitGroupData:
    """Fundamental unit, its norm and [U : U_inf] for a field of degree <= 2."""
    if field.is_rationals:
        return UnitGroupData(None, None, 1)
    eps = _fundamental_unit(field.d)
    vectors = [
        tuple(sign_at(field.coerce(-1), v) for v in field.non_id_places()),
        tuple(sign_at(eps, v) for v in field.non_id_places()),
    ]
    index = unit_index_from_sign_vectors(field.degree, vectors)
    return UnitGroupData(eps, int(eps.norm()), index)


def unit_index_infinity(field: TotallyRealField) -> int:
    return unit_group_data(field).unit_index_infinity


# ---------------------------------------------------------------------------
# Indefinite binary quadratic forms and their reduction cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """Primitive integral form a x^2 + b xy + c y^2, indefinite irrational case."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        D = self.discriminant
        if D <= 0 or _is_square_int(D):
            raise ValueError(f"discriminant {D} must be positive and not a square")
        if gcd(self.a, self.b, self.c) != 1:
            raise ValueError(f"form ({self.a},{self.b},{self.c}) is not primitive")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_reduced(self) -> bool:
        # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, by integer squaring
        D = self.discriminant
        b = self.b
        if b <= 0 or b * b >= D:
            return False
        ta = 2 * abs(self.a)
        if (ta + b) ** 2 <= D:
            return False
        return ta <= b or (ta - b) ** 2 < D

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def _form(a: int, b: int, c: int) -> BinaryQuadraticForm:
    # private constructor for primitive triples of a checked discriminant:
    # checks nothing, and fills the frozen instance's fields directly
    f = object.__new__(BinaryQuadraticForm)
    f.__dict__.update(a=a, b=b, c=c)
    return f


def _step(D: int, s: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    # reduction step on integer triples, s = isqrt(D); unchecked, so a step
    # that lost integrality shows as a changed discriminant
    r = s - (s + b) % (2 * abs(c))
    return c, r, (r * r - D) // (4 * c)


def reduction_step(form: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Right-neighbor step on reduced forms: (a,b,c) -> (c, r, (r^2-D)/(4c)).

    r is the unique integer with r = -b mod 2|c| inside (sqrt(D) - 2|c|, sqrt(D));
    on reduced forms this is a bijection whose orbits are the reduction cycles.
    The step preserves primitivity, so the result is checked for its
    discriminant and reducedness only.
    """
    if not form.is_reduced:
        raise ValueError(f"reduction step requires a reduced form, got {form}")
    D = form.discriminant
    a, b, c = _step(D, isqrt(D), form.a, form.b, form.c)
    if b * b - 4 * a * c != D:
        raise InternalConsistencyError("reduction step lost integrality")
    nxt = _form(a, b, c)
    if not nxt.is_reduced:
        raise InternalConsistencyError(f"reduction step left the reduced domain at {form}")
    return nxt


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, by a bytearray sieve of Eratosthenes over the odd numbers."""
    if n < 2:
        return []
    m = (n + 1) // 2  # entry k stands for 2k + 1
    sieve = bytearray(b"\1") * m
    sieve[0] = 0
    for k in range(1, (isqrt(n) + 1) // 2):
        if sieve[k]:
            p = 2 * k + 1
            sieve[p * p // 2::p] = bytes((m - 1 - p * p // 2) // p + 1)
    return [2, *compress(range(1, n + 1, 2), sieve)]


def _sqrt_mod(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, or None if n is not a square
    mod p (Tonelli-Shanks; Cohen, GTM 138, Algorithm 1.5.1)."""
    n %= p
    if p % 4 == 3:
        x = pow(n, (p + 1) // 4, p)
        return x if x * x % p == n else None
    if pow(n, (p - 1) // 2, p) != 1:
        return 0 if n == 0 else None
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    y = pow(z, q, p)  # generates the 2-Sylow subgroup, of order 2**e
    x = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)  # x**2 = n * t, with t in the subgroup of order 2**e
    while t != 1:
        m, t2 = 0, t
        while t2 != 1:  # t has order 2**m, and m < e
            t2 = t2 * t2 % p
            m += 1
        w = pow(y, 1 << (e - m - 1), p)
        y = w * w % p
        e = m
        x = x * w % p
        t = t * y % p
    return x


def reduced_forms(D: int) -> list[BinaryQuadraticForm]:
    """All reduced primitive forms of discriminant D (D > 0, not a square).

    A reduced (a, b, c) has 1 <= b < sqrt(D) with b = D mod 2, and |a| is a
    divisor of N_b = (D - b^2)/4 with sqrt(D) - b < 2|a| < sqrt(D) + b, with
    c = -N_b/a. One divisor sieve over b factors every N_b at once: an odd
    prime p divides N_b exactly when b^2 = D mod p, so for each odd prime
    p <= sqrt(max N_b) whose square roots of D exist, only the b on the one or
    two progressions of those roots are visited, and repeated division takes
    out the prime powers. Powers of 2 are the trailing zeros, and the cofactor
    left after the sieve is 1 or a prime. Every prime factor of N_b = |ac|
    divides a or c, so a cofactor above the bound on |a| leaves that b without
    a form; otherwise the divisors of N_b are listed up to that bound. That is
    O(sqrt(D) log D) time, where the interval loop it replaces took O(D).

    The candidates are sorted by (b, a, c) as integer triples, and
    gcd(a, b, c) = 1 is the one check on each; D was checked on entry, so the
    forms are built without the public constructor's checks.
    """
    if D <= 0 or _is_square_int(D):
        raise ValueError(f"discriminant {D} must be positive and not a square")
    if D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant")
    s = isqrt(D)
    b0 = 2 - D % 2  # entry i below stands for b = b0 + 2i
    norms = [(D - b * b) >> 2 for b in range(b0, s + 1, 2)]
    rest = norms[:]  # N_b with the sieved odd primes divided out
    count = len(rest)
    factors = [[] for _ in rest]  # the sieved odd primes of N_b, with multiplicity
    for p in _primes_upto(isqrt(rest[0]))[1:]:
        r = _sqrt_mod(D, p)
        if r is None:
            continue  # p divides no N_b
        half = (p + 1) >> 1  # 1/2 mod p: b0 + 2i = root mod p
        for root in (r, p - r) if r else (0,):
            for i in range((root - b0) * half % p, count, p):
                n = rest[i] // p
                f = factors[i]
                f.append(p)
                while n % p == 0:
                    n //= p
                    f.append(p)
                rest[i] = n
    triples = []
    b, lo, hi = b0, (s - b0 + 2) >> 1, (s + b0) >> 1  # sqrt(D) - b < 2|a| < sqrt(D) + b
    for N, n, f in zip(norms, rest, factors):
        twos = (n & -n).bit_length() - 1
        n >>= twos
        # a prime factor of N_b = |ac| divides a or c, so it is at most hi;
        # the cofactor is the only prime factor that can be larger
        if n <= hi:
            if twos:
                f = [2] * twos + f
            if n > 1:
                f.append(n)
            divisors = [1]  # the divisors up to hi; f lists equal primes together
            last = 0
            for p in f:
                new = [d * p for d in (new if p == last else divisors) if d * p <= hi]
                divisors += new
                last = p
            for a in divisors:
                if a >= lo:
                    c = N // a
                    triples.append((b, a, -c))
                    triples.append((b, -a, c))
        b, lo, hi = b + 2, lo - 1, hi + 1
    triples.sort()
    return [_form(a, b, c) for b, a, c in triples if gcd(a, b, c) == 1]


@dataclass(frozen=True)
class FormCycle:
    """A reduction cycle: applying the step to the last form yields the first."""

    forms: tuple[BinaryQuadraticForm, ...]

    def __len__(self):
        return len(self.forms)


def form_cycles(D: int) -> list[FormCycle]:
    """Partition of the reduced forms of discriminant D into reduction cycles.

    The walk steps integer triples and builds no form: a step that lost
    integrality (so changed the discriminant) or left the reduced domain lands
    outside the reduced set, so membership in that set is the step's check.
    """
    forms = reduced_forms(D)
    pool = {(f.a, f.b, f.c): f for f in forms}
    s = isqrt(D)
    cycles = []
    for start in forms:
        first = key = (start.a, start.b, start.c)
        if first not in pool:
            continue  # on an earlier cycle
        cycle = []
        while key in pool:
            cycle.append(pool.pop(key))
            key = _step(D, s, *key)
        if key != first:
            raise InternalConsistencyError(f"reduction cycle through {start} did not close")
        cycles.append(FormCycle(tuple(cycle)))
    return cycles


def narrow_class_number(d: int) -> int:
    """h+ of Q(sqrt d): the number of reduction cycles of the fundamental discriminant."""
    return len(form_cycles(fundamental_discriminant(d)))


def class_number(field: TotallyRealField) -> int:
    """Wide class number h; 1 for Q, h+ or h+/2 for Q(sqrt d) by the unit norm."""
    return restricted_class_number(field).h


def _wide_class_number(d: int, h_plus: int, unit_norm: int) -> int:
    # h = h+ when the fundamental unit has norm -1, else h+ / 2
    if unit_norm == -1:
        return h_plus
    if h_plus % 2:
        raise InternalConsistencyError(f"h+ = {h_plus} odd with unit norm +1 for d={d}")
    return h_plus // 2


def two_class_number(h: int) -> int:
    """Order 2**v2(h) of the 2-Sylow subgroup of an abelian group of order h."""
    if h < 1:
        raise ValueError(f"group order must be >= 1, got {h}")
    return h & -h


# ---------------------------------------------------------------------------
# The restricted 2-class number bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldInvariants:
    field: TotallyRealField
    h: int
    h2: int
    h_plus: int
    units: UnitGroupData
    h_inf_2: int
    uniqueness_certified: bool


def _h_inf_2(degree: int, h2: int, unit_index: int) -> int:
    numerator = 2 ** (degree - 1) * h2
    if numerator % unit_index:
        raise InternalConsistencyError(
            f"2^{degree - 1} * {h2} is not divisible by the unit index {unit_index}"
        )
    return numerator // unit_index


def restricted_class_number(field: TotallyRealField) -> FieldInvariants:
    """Full invariant bundle with h_inf_2 = 2**(degree-1) * h2 / [U:U_inf].

    h_inf_2 = 1 certifies that the class number of every coherent collection
    is 1, i.e. the associated arithmetic subgroups are unique up to conjugacy.
    """
    units = unit_group_data(field)
    if field.is_rationals:
        h = h_plus = 1
    else:
        h_plus = len(form_cycles(_fundamental_discriminant(field.d)))
        h = _wide_class_number(field.d, h_plus, units.unit_norm)
    h2 = two_class_number(h)
    h_inf_2 = _h_inf_2(field.degree, h2, units.unit_index_infinity)
    return FieldInvariants(
        field=field,
        h=h,
        h2=h2,
        h_plus=h_plus,
        units=units,
        h_inf_2=h_inf_2,
        uniqueness_certified=(h_inf_2 == 1),
    )


@dataclass(frozen=True)
class RestrictedTwoClassBound:
    """Formula-level bundle for caller-supplied invariants of any degree."""

    degree: int
    h: int
    h2: int
    unit_index_infinity: int
    h_inf_2: int
    uniqueness_certified: bool


def restricted_class_number_from_invariants(
    degree: int, h: int, unit_sign_vectors
) -> RestrictedTwoClassBound:
    """Evaluate h_inf_2 for a totally real field given (h, unit sign vectors).

    Supports degree >= 3, where no class-group engine is provided; the caller
    supplies the class number and the signs of unit generators (including -1)
    at the places other than Id.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if h < 1:
        raise ValueError("class number must be >= 1")
    h2 = two_class_number(h)
    index = unit_index_from_sign_vectors(degree, unit_sign_vectors)
    h_inf_2 = _h_inf_2(degree, h2, index)
    return RestrictedTwoClassBound(
        degree=degree,
        h=h,
        h2=h2,
        unit_index_infinity=index,
        h_inf_2=h_inf_2,
        uniqueness_certified=(h_inf_2 == 1),
    )


# ---------------------------------------------------------------------------
# Dirichlet analytic class number oracle
# ---------------------------------------------------------------------------


def _character_table(D: int, n: int) -> list[int]:
    # chi_D(a) for 0 <= a <= n. chi_D is completely multiplicative, so it is
    # evaluated only at primes: at 2 from D mod 8, and at an odd prime p by
    # Euler's criterion chi_D(p) = D**((p-1)/2) mod p. A smallest-prime-factor
    # sieve gives every composite a = p * (a / p) with both factors already in
    # the table. When D is even, chi_D vanishes on even a, so only the odd a
    # are sieved and filled, and the even ones stay 0.
    step = 2 if D % 2 == 0 else 1
    factor = [0] * (n + 1)  # smallest prime factor of composite a, 0 at primes
    # the smallest prime factor is written last; odd a have no factor 2
    for p in reversed(_primes_upto(isqrt(n))[step - 1:]):
        factor[p * p::step * p] = [p] * len(range(p * p, n + 1, step * p))
    chi = [0] * (n + 1)
    chi[1] = 1
    chi[2] = (0, 1, 0, -1, 0, -1, 0, 1)[D % 8]  # n >= 2, as D >= 5
    for a in range(3, n + 1, step):
        p = factor[a]
        if p:
            chi[a] = chi[p] * chi[a // p]
        else:
            e = pow(D, (a - 1) >> 1, a)  # 0, 1 or a - 1
            chi[a] = e if e < 2 else -1
    return chi


def _kernel_bits(D: int, digits: int) -> int:
    # bits for 10**-digits, for the D**3 factor of the error bound of
    # _log_sine_sum (see analytic_class_number_oracle), and 10 spare bits
    return ceil(digits * log2(10)) + 3 * D.bit_length() + 10


def _log_sine_sum(D: int, digits: int) -> mpmath.mpf:
    """sum_{0<a<D} chi_D(a) log sin(pi a / D) for a fundamental discriminant
    D >= 5, with absolute error below 10**-digits; see
    analytic_class_number_oracle."""
    prec = _kernel_bits(D, digits)
    half = (D - 1) // 2
    chi = _character_table(D, half)
    step = 2 if D % 2 == 0 else 1  # chi_D vanishes on even a when D is even

    def fixed(x):
        return int(mpmath.nint(mpmath.ldexp(x, prec)))

    with mpmath.workprec(prec + 16):
        s = fixed(mpmath.sin(mpmath.pi / D))
        c2 = fixed(2 * mpmath.cos(step * mpmath.pi / D))
    # s = 2**prec sin(pi a / D) by the recurrence sin(x + t) = 2 cos(t) sin(x)
    # - sin(x - t), t = step pi / D, seeded with sin(pi (1 - step) / D); the
    # sines with chi_D(a) = +1 multiply into pos * 2**pos_exp, a mantissa of
    # prec bits, and the a with chi_D(a) != 0 are counted
    prev = -s if step == 2 else 0
    pos, pos_exp, coprime = 1 << prec, -prec, 0
    for k in chi[1::step]:
        if k:
            coprime += 1
            if k == 1:
                pos *= s
                shift = pos.bit_length() - prec
                pos >>= shift
                pos_exp += shift - prec
        prev, s = s, (c2 * s >> prec) - prev
    # Phi_D(1) is p when D is a power of the prime p and 1 otherwise; a
    # fundamental discriminant is a prime power when it is 8, or an odd prime,
    # which is when chi_D vanishes at no a <= (D - 1)/2
    phi = 2 if D == 8 else D if coprime == half else 1
    with mpmath.workprec(prec):
        # the log sine sums P and N over the a <= (D - 1)/2 with chi_D(a) = +1
        # and -1 satisfy P + N = log(Phi_D(1))/2 - coprime log 2, so the
        # whole sum 2 (P - N) is 4 P + 2 coprime log 2 - log(Phi_D(1))
        return (4 * mpmath.log(pos) + (4 * pos_exp + 2 * coprime) * mpmath.ln2
                - mpmath.log(phi))


def _class_number_from_unit(d: int, eps: QuadFieldElem, digits: int = 40) -> int:
    # analytic_class_number_oracle for a d that is already checked, with its
    # fundamental unit eps
    D = _fundamental_discriminant(d)
    total = _log_sine_sum(D, digits)
    with mpmath.workprec(_kernel_bits(D, digits)):
        regulator = mpmath.log(mpmath.mpf(eps.a.numerator) / eps.a.denominator
                               + mpmath.mpf(eps.b.numerator) / eps.b.denominator
                               * mpmath.sqrt(d))
        value = -total / (2 * regulator)
        h = int(mpmath.nint(value))
        residual = abs(value - h)
        if residual > mpmath.mpf(10) ** -10:
            raise ValueError(f"insufficient precision: residual {residual} for d={d}")
    if h < 1:
        raise InternalConsistencyError(f"analytic evaluation produced h={h} for d={d}")
    return h


def analytic_class_number_oracle(d: int, digits: int = 40) -> int:
    """h of Q(sqrt d) from the Dirichlet class number formula.

    Evaluates  h = -sum_{0<a<D} chi_D(a) log sin(pi a / D) / (2 log eps)  and
    rounds to the nearest integer; refuses to answer when the rounding
    residual is not far below 1, so a wrong answer cannot slip through
    silently. `digits` (>= 30) bounds the error of the sum by 10**-digits.

    The sum is an O(D) integer kernel. chi_D is even, so only a <= (D-1)/2
    is visited and the half sum doubled; when D is even, chi_D also vanishes
    on even a, and only odd a are visited, and sieved. chi_D(a) comes from a
    smallest-prime-factor sieve that evaluates the Kronecker symbol at primes
    only, at odd primes by Euler's criterion (one modular power each). The
    sines are fixed-point integers at p bits, one integer product each, by
    the Chebyshev recurrence s_{k+1} = (2 cos(t) s_k >> p) - s_{k-1} seeded
    from mpmath's sin(pi/D) and cos(t). Only the sines with chi_D = +1 are
    multiplied into a product, a p-bit mantissa with a binary exponent: the
    a <= D/2 prime to D, which are those with chi_D(a) != 0, satisfy
    prod (2 sin(pi a/D)) = sqrt(Phi_D(1)), by prod_{gcd(a,D)=1} (1 - zeta_D**a)
    = Phi_D(1), so the sines with chi_D = -1 follow from a count. Phi_D(1) is
    D for an odd prime D, 2 for D = 8 and 1 for every other fundamental
    discriminant. Two logarithms close the sum.

    Precision budget: the recurrence error e_k of the k-th sine, in units of
    2**-p, obeys e_{k+1} = 2 cos(t) e_k - e_{k-1} + r_k with |r_k| < 2 (the
    floor of the product and the rounding of 2 cos t), so
    e_k = e_1 U_{k-1}(cos t) - e_0 U_{k-2}(cos t) + sum_j r_j U_{k-1-j}(cos t),
    and |U_m| <= m + 1 with |e_0|, |e_1| <= 1/2 gives |e_k| < k**2. The sine
    of pi a/D is reached after k <= a steps and is at least 2a/D for
    a <= D/2, so its relative error is below a D 2**-p / 2. Summed over
    a <= D/2, with the 2**(1-p) truncation of each product step, the
    product of the +1 sines is off by a relative D**3 2**-p / 16 plus lower
    terms, and the sum, four times its logarithm, by less than D**3 2**-p, so
    the guard bits grow like 3 log2 D. The working precision
    p = ceil(digits log2 10) + 3 bitlen(D) + 10 keeps it below
    10**-digits / 1024.

    This path never touches the form-reduction machinery and serves as its
    independent cross-check.
    """
    if digits < 30:
        raise ValueError("at least 30 working digits required")
    return _class_number_from_unit(d, fundamental_unit(d), digits)  # checks d
