import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import pytest

from conftest import admissible_form, golden, quad_field, random_anisotropic_vectors, rationals
from orbinv import (
    Isometry,
    QuadFieldElem,
    SquareClass,
    TotallyRealField,
    exact_arith,
    format_element,
    in_k_infinity_star,
    is_algebraic_integer,
    is_square,
    is_squarefree,
    parse_element,
    sign_at,
    squarefree_part,
)

K5 = quad_field(5)
K2 = quad_field(2)
Q = rationals()


# --- element construction and arithmetic ---


def test_field_tag_must_be_squarefree():
    for bad in (0, 1, -5, 4, 12, 18):
        with pytest.raises(ValueError):
            QuadFieldElem(1, 1, bad)


def test_mixed_field_arithmetic_rejected():
    x = QuadFieldElem(1, 1, 2)
    y = QuadFieldElem(1, 1, 5)
    with pytest.raises(ValueError):
        x + y


def test_rational_values_compare_across_representations():
    assert QuadFieldElem(3, 0, 5) == Fraction(3)
    assert QuadFieldElem(3, 0, 5) == QuadFieldElem(3, 0, 2)
    assert hash(QuadFieldElem(3, 0, 5)) == hash(Fraction(3))
    assert QuadFieldElem(3, 1, 5) != QuadFieldElem(3, 1, 2)


def test_field_axioms_on_random_elements():
    rng = random.Random(11)
    for _ in range(100):
        x = QuadFieldElem(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 5)), 5)
        y = QuadFieldElem(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 5)), 5)
        if not x or not y:
            continue
        assert (x * y) / y == x
        assert x * (1 / x) == 1
        assert (x + y) - y == x


def test_norm_trace_conjugate():
    phi = golden()
    assert phi.norm() == -1
    assert phi.trace() == 1
    assert phi * phi.conjugate() == phi.norm()
    assert phi**2 == phi + 1  # golden ratio identity
    assert phi**-1 == phi - 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        golden() / QuadFieldElem(0, 0, 5)


# --- sign_at ---


def test_sign_examples():
    phi = golden()
    assert sign_at(phi, 0) == 1
    one_plus = QuadFieldElem(1, 1, 5)
    assert sign_at(one_plus, 1) == -1
    assert sign_at(Fraction(-3, 7), 0) == -1


def test_sign_errors():
    with pytest.raises(ValueError):
        sign_at(Fraction(0))
    with pytest.raises(ValueError):
        sign_at(QuadFieldElem(0, 0, 5), 0)
    with pytest.raises(ValueError):
        sign_at(Fraction(1), 1)
    with pytest.raises(ValueError):
        sign_at(golden(), 2)


def test_sign_is_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        x = QuadFieldElem(rng.randint(-9, 9), rng.randint(-9, 9), 5)
        y = QuadFieldElem(rng.randint(-9, 9), rng.randint(-9, 9), 5)
        if not x or not y:
            continue
        for place in (0, 1):
            assert sign_at(x * y, place) == sign_at(x, place) * sign_at(y, place)


def test_sign_agrees_with_float_on_grid():
    # cross-check the exact case split against ordinary floating evaluation,
    # far from any zero of a + b sqrt(d)
    from math import sqrt

    for a in range(-6, 7):
        for b in range(-6, 7):
            if a == 0 and b == 0:
                continue
            x = QuadFieldElem(a, b, 5)
            assert sign_at(x, 0) == (1 if a + b * sqrt(5) > 0 else -1)
            assert sign_at(x, 1) == (1 if a - b * sqrt(5) > 0 else -1)


# --- is_square ---


def _brute_force_square(x: QuadFieldElem, num_max: int = 20, den_max: int = 3) -> bool:
    # independent oracle: search roots u + v*sqrt(d) over small rationals
    for qu in range(1, den_max + 1):
        for pu in range(-num_max, num_max + 1):
            for qv in range(1, den_max + 1):
                for pv in range(-num_max, num_max + 1):
                    y = QuadFieldElem(Fraction(pu, qu), Fraction(pv, qv), x.d)
                    if y * y == x:
                        return True
    return False


def test_is_square_examples():
    assert is_square(Fraction(9, 4))
    assert is_square(QuadFieldElem(3, 2, 2))  # (1 + sqrt 2)^2
    assert not is_square(QuadFieldElem(0, 1, 5))  # sqrt(5) itself
    assert not _brute_force_square(QuadFieldElem(0, 1, 5), num_max=12, den_max=2)


def test_is_square_against_brute_force_grid():
    for a in range(-6, 7):
        for b in range(-3, 4):
            x = QuadFieldElem(Fraction(a, 2), Fraction(b, 2), 5)
            if not x:
                continue
            assert is_square(x) == _brute_force_square(x, num_max=12, den_max=2), str(x)


def test_square_of_anything_is_square():
    rng = random.Random(3)
    for _ in range(100):
        x = QuadFieldElem(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 13)
        if not x:
            continue
        assert is_square(x * x)
        if is_square(x):
            assert sign_at(x, 0) == 1 and sign_at(x, 1) == 1


def test_rational_multiples_of_d_are_squares_in_field():
    assert is_square(QuadFieldElem(5, 0, 5))
    assert is_square(QuadFieldElem(20, 0, 5))
    assert not is_square(QuadFieldElem(10, 0, 5))


def test_is_square_zero_rejected():
    with pytest.raises(ValueError):
        is_square(Fraction(0))
    with pytest.raises(ValueError):
        is_square(QuadFieldElem(0, 0, 5))


# --- k_infinity^* ---


def test_k_infinity_examples():
    assert in_k_infinity_star(Fraction(-7), Q)
    conj = QuadFieldElem(Fraction(1, 2), Fraction(-1, 2), 5)  # (1 - sqrt 5)/2
    assert in_k_infinity_star(conj, K5)
    assert not in_k_infinity_star(-1, K5)


def test_k_infinity_closure():
    rng = random.Random(5)
    members = []
    while len(members) < 30:
        x = QuadFieldElem(rng.randint(-9, 9), rng.randint(-9, 9), 5)
        if x and in_k_infinity_star(x, K5):
            members.append(x)
    for i in range(0, 30, 2):
        x, y = members[i], members[i + 1]
        assert in_k_infinity_star(x * y, K5)
        assert in_k_infinity_star(x * y * y, K5)


def test_k_infinity_respects_id_place():
    phi = golden()
    assert not in_k_infinity_star(phi.conjugate(), quad_field(5, id_place=1))
    assert in_k_infinity_star(phi, quad_field(5, id_place=1))


# --- square classes ---


def test_square_class_canonical_over_q():
    assert SquareClass.of(Q, Fraction(8, 9)).representative == 2
    assert SquareClass.of(Q, Fraction(-45)).representative == -5
    assert squarefree_part(360) == 10
    assert squarefree_part(-49) == -1


def test_square_class_equivalence_and_products():
    rng = random.Random(13)
    xs = []
    while len(xs) < 12:
        x = QuadFieldElem(rng.randint(-6, 6), rng.randint(-6, 6), 5)
        if x:
            xs.append(x)
    classes = [SquareClass.of(K5, x) for x in xs]
    for x, cx in zip(xs, classes):
        assert cx == cx
        assert SquareClass.of(K5, x * x * xs[0]) == classes[0]  # class(x^2 y) = class(y)
    for i in range(0, 12, 2):
        prod = SquareClass.of(K5, xs[i] * xs[i + 1])
        assert classes[i] * classes[i + 1] == prod
        if classes[i] == classes[i + 1]:
            assert prod.is_trivial
    # symmetry and transitivity on a triple of equal classes
    a = SquareClass.of(K5, xs[0])
    b = SquareClass.of(K5, xs[0] * QuadFieldElem(4, 0, 5))
    c = SquareClass.of(K5, xs[0] * golden() ** 2)
    assert a == b and b == a and b == c and a == c


def test_square_class_zero_and_field_mismatch():
    with pytest.raises(ValueError):
        SquareClass.of(Q, 0)
    assert SquareClass.of(Q, 2) != SquareClass.of(K5, 2)
    with pytest.raises(ValueError):
        SquareClass.of(Q, 2) * SquareClass.of(K5, 2)


# --- encoding ---


@pytest.mark.parametrize(
    "text,field",
    [
        ("-3/7", Q),
        ("0/1", Q),
        ("12/5", Q),
        ("1/2+1/2*sqrt(5)", K5),
        ("1/2+-1/2*sqrt(5)", K5),
        ("-7/3+0/1*sqrt(2)", K2),
    ],
)
def test_encoding_round_trip_is_bit_exact(text, field):
    x = parse_element(text, field)
    assert format_element(x) == text
    assert parse_element(format_element(x), field) == x


def test_parse_shorthand_and_errors():
    assert parse_element("3", Q) == Fraction(3)
    assert parse_element("-2", K5) == QuadFieldElem(-2, 0, 5)
    for bad in ("", "1/0", "sqrt(5)", "1/2 + 1/2*sqrt(5)", "x"):
        with pytest.raises(ValueError):
            parse_element(bad, K5)
    with pytest.raises(ValueError):
        parse_element("1/2+1/2*sqrt(5)", Q)
    with pytest.raises(ValueError):
        parse_element("1/2+1/2*sqrt(5)", K2)


def test_field_labels():
    assert TotallyRealField.from_label("Q") == Q
    assert TotallyRealField.from_label("Q(sqrt 5)") == K5
    assert K5.label() == "Q(sqrt 5)"
    with pytest.raises(ValueError):
        TotallyRealField.from_label("Q(sqrt -1)")
    with pytest.raises(ValueError):
        TotallyRealField.from_label("F_7")
    # an id_place over Q is checked by the field, not dropped
    assert TotallyRealField.from_label("Q", 0) == Q
    for id_place in (1, 7, -1):
        with pytest.raises(ValueError, match=f"id_place {id_place} out of range for degree 1"):
            TotallyRealField.from_label("Q", id_place)
    assert TotallyRealField.from_label("Q(sqrt 5)", 1).id_place == 1


def test_coerce_and_places():
    assert Q.degree == 1 and K5.degree == 2
    assert Q.places == (0,) and K5.places == (0, 1)
    assert K5.non_id_places() == (1,)
    assert quad_field(5, id_place=1).non_id_places() == (0,)
    assert K5.coerce(Fraction(1, 2)) == QuadFieldElem(Fraction(1, 2), 0, 5)
    with pytest.raises(ValueError):
        Q.coerce(golden())
    with pytest.raises(ValueError):
        K2.coerce(golden())
    with pytest.raises(ValueError):
        TotallyRealField.real_quadratic(5, id_place=2)


def test_algebraic_integer_predicate():
    assert is_algebraic_integer(golden())
    assert is_algebraic_integer(QuadFieldElem(3, 2, 2))
    assert not is_algebraic_integer(Fraction(1, 2))
    assert not is_algebraic_integer(QuadFieldElem(Fraction(1, 2), Fraction(1, 2), 2))
    assert is_algebraic_integer(QuadFieldElem(Fraction(1, 2), Fraction(1, 2), 13))


def _fraction_wire(x):
    # the wire encoding as read off the Fraction parts
    a, b = x.a, x.b
    if x.d == 1:
        return f"{a.numerator}/{a.denominator}"
    return f"{a.numerator}/{a.denominator}+{b.numerator}/{b.denominator}*sqrt({x.d})"


def test_integrality_and_wire_encoding_match_fraction_references():
    # zero, signs, shared and coprime denominators, and 60-digit parts
    big = 10**60 + 7
    parts = sorted({Fraction(p, q) for p in (0, 1, -1, 2, -3, 7, big, -big)
                    for q in (1, 2, 3, 4, 6, big)})
    for field in (Q, K2, K5, quad_field(13)):
        for a in parts:
            for b in parts if field.d else (0,):
                x = field.coerce(a) if not b else field.coerce(a) + field.sqrt_gen() * b
                assert format_element(x) == _fraction_wire(x), (a, b)
                integral = x.trace().denominator == 1 and x.norm().denominator == 1
                assert is_algebraic_integer(x) == integral, (a, b)


# --- reference model: an element as a pair of Fractions ---


class PairModel:
    """a + b*sqrt(d) as two Fractions, with d = 1 and b = 0 standing for Q.

    Test-only and deliberately naive: every operation is the textbook formula
    on Fractions, and signs come from a 60-digit decimal evaluation.
    """

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def __add__(self, o):
        return PairModel(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        return PairModel(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        return PairModel(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d)

    def norm(self):
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self):
        n = self.norm()
        return PairModel(self.a / n, -self.b / n, self.d)

    def __truediv__(self, o):
        return self * o.inverse()

    def power(self, e):
        base = self if e >= 0 else self.inverse()
        out = PairModel(1, 0, self.d)
        for _ in range(abs(e)):
            out = out * base
        return out

    def conjugate(self):
        return PairModel(self.a, -self.b, self.d)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def sign_at(self, place):
        with localcontext() as ctx:
            ctx.prec = 60
            root = Decimal(self.d).sqrt() * (1 if place == 0 else -1)
            value = (Decimal(self.a.numerator) / self.a.denominator
                     + Decimal(self.b.numerator) / self.b.denominator * root)
        return 1 if value > 0 else -1

    def is_square(self):
        def rational_square(q):
            return q >= 0 and all(isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))

        if self.b == 0:
            # a rational square, or d times one: (v sqrt d)^2 = v^2 d
            return rational_square(self.a) or rational_square(self.a / self.d)
        n = self.norm()
        if not rational_square(n):
            return False
        c = Fraction(isqrt(n.numerator), isqrt(n.denominator))
        for u2 in ((self.a + c) / 2, (self.a - c) / 2):
            if u2 != 0 and rational_square(u2):
                u = Fraction(isqrt(u2.numerator), isqrt(u2.denominator))
                v = self.b / (2 * u)
                if u * u + v * v * self.d == self.a:
                    return True
        return False

    def is_algebraic_integer(self):
        if self.d == 1:
            return self.a.denominator == 1
        return (2 * self.a).denominator == 1 and self.norm().denominator == 1

    def wire(self):
        def frac(q):
            return f"{q.numerator}/{q.denominator}"

        return frac(self.a) if self.d == 1 else f"{frac(self.a)}+{frac(self.b)}*sqrt({self.d})"


def _element_of(field, model):
    x = field.coerce(model.a)
    return x if field.is_rationals else x + field.sqrt_gen() * model.b


def _agrees(x, model):
    return x.a == model.a and x.b == model.b and x.d == model.d


def _random_model(rng, d):
    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    return PairModel(q(), 0 if d == 1 else q(), d)


@pytest.mark.parametrize("field", [Q, K2, K5, quad_field(13)], ids=lambda f: f.label())
def test_elements_agree_with_pair_of_fractions_model(field):
    rng = random.Random(20260808 + (field.d or 1))
    d = field.d or 1
    for _ in range(150):
        mx, my = _random_model(rng, d), _random_model(rng, d)
        x, y = _element_of(field, mx), _element_of(field, my)
        assert _agrees(x, mx)
        assert _agrees(x + y, mx + my)
        assert _agrees(x - y, mx - my)
        assert _agrees(x * y, mx * my)
        k = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        mk = PairModel(k, 0, d)
        assert _agrees(x + k, mx + mk) and _agrees(k - x, mk - mx) and _agrees(k * x, mk * mx)
        assert x.norm() == mx.norm()
        assert x.trace() == 2 * mx.a
        assert _agrees(x.conjugate(), mx.conjugate())
        assert (x == y) == (mx.a == my.a and mx.b == my.b)
        assert x == _element_of(field, mx) and hash(x) == hash(_element_of(field, mx))
        assert (x == mx.a) == (mx.b == 0)
        if mx.b == 0:
            assert hash(x) == hash(mx.a)
        assert format_element(x) == mx.wire()
        assert parse_element(format_element(x), field) == x
        assert is_algebraic_integer(x) == mx.is_algebraic_integer()
        if not my.is_zero():
            assert _agrees(x / y, mx / my)
            assert _agrees(k / y, mk / my)
        if mx.is_zero():
            continue
        for e in (-3, -2, -1, 0, 1, 2, 3):
            assert _agrees(x**e, mx.power(e)), e
        for place in field.places:
            assert sign_at(x, place) == mx.sign_at(place)
        for z, mz in ((x, mx), (x * x, mx * mx), (x * x * d, mx * mx * PairModel(d, 0, d))):
            assert is_square(z) == mz.is_square(), str(z)


def test_isometry_products_never_revalidate_the_field_tag(monkeypatch):
    form = admissible_form(K5, 5)
    vectors = random_anisotropic_vectors(random.Random(5), form, 8)
    calls = []
    check = exact_arith.is_squarefree

    def counting(n):
        calls.append(n)
        return check(n)

    monkeypatch.setattr(exact_arith, "is_squarefree", counting)
    g = Isometry.from_reflections(form, vectors)
    assert g * g.inverse() == Isometry.identity(form)
    assert calls == []
    QuadFieldElem(1, 1, 5)  # the public constructor does check, through the patch
    assert calls == [5]


def _brute_squarefree_part(n: int) -> int:
    """Reference: n with the square k**2 divided out for every k <= sqrt(n)."""
    s = n
    for k in range(2, isqrt(n) + 1):
        while s % (k * k) == 0:
            s //= k * k
    return s


def test_trial_division_paths_agree_with_brute_force():
    bound = 20000
    squareful = bytearray(bound)  # squareful[n]: some k**2 > 1 divides n
    for k in range(2, isqrt(bound) + 1):
        squareful[k * k::k * k] = b"\1" * len(range(k * k, bound, k * k))
    for n in range(-5, bound):
        assert is_squarefree(n) == (n >= 1 and not squareful[n]), n
    for n in range(1, bound):
        part = _brute_squarefree_part(n)
        assert squarefree_part(n) == part and squarefree_part(-n) == -part, n
    # either side of the 10**10 switch to sympy; 10**10 - 1 = 3**2 * 11 * 41 * 271 * 9091
    # and 10**10 + 19 is prime
    for n in [*range(10**10 - 6, 10**10 + 6), 10**10 + 19, 99991**2, 99989 * 99991]:
        part = _brute_squarefree_part(n)
        assert squarefree_part(n) == part, n
        assert is_squarefree(n) == (part == n), n
