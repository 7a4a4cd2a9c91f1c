"""Exact arithmetic over Q and real quadratic fields Q(sqrt(d)).

One element type covers both fields. A `QuadFieldElem` stores three integers
(a, b, den) for (a + b*sqrt(d))/den, with den > 0 and gcd(a, b, den) = 1, so
each value has exactly one representation. Elements of Q are the b = 0 case
with the internal tag d = 1; the public constructor rejects that tag, so they
come only from `TotallyRealField.coerce`, `parse_element` and arithmetic. The
tag d is checked where it enters (the public constructor and
`TotallyRealField`); arithmetic results go through a private constructor
that checks nothing, since both operands were checked already.
Every predicate here (sign at a real embedding, squareness, square-class
equality) is decided in integer arithmetic; there is no floating point
anywhere in this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = [
    "QuadFieldElem",
    "TotallyRealField",
    "SquareClass",
    "InternalConsistencyError",
    "sign_at",
    "is_square",
    "in_k_infinity_star",
    "is_algebraic_integer",
    "is_squarefree",
    "squarefree_part",
    "format_element",
    "parse_element",
]


class InternalConsistencyError(RuntimeError):
    """An invariant that must hold by construction failed; this is a bug signal."""


def _trial_division(n: int):
    """The prime powers (p, e) of n >= 1, by trial division over 2 and then
    the odd numbers; a prime cofactor left after the loop comes last, as (n, 1)."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for _, e in _trial_division(n))


def _is_square_int(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def squarefree_part(n: int) -> int:
    """Signed squarefree part of n: the unique squarefree s with n = s * m**2."""
    if n == 0:
        raise ValueError("squarefree part of zero undefined")
    sign = -1 if n < 0 else 1
    n = abs(n)
    if n < 10**10:  # trial division; sympy stays unloaded for everyday values
        factors = _trial_division(n)
    else:
        from sympy import factorint  # heavy import, keep local

        factors = factorint(n).items()
    out = sign
    for p, e in factors:
        if e % 2:
            out *= p
    return out


class QuadFieldElem:
    """Exact element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    `a` and `b` read back as `Fraction`s; the stored form is the reduced
    integer triple of (a + b*sqrt(d))/den. Elements of Q carry the tag d = 1.
    """

    __slots__ = ("_a", "_b", "_den", "_d")

    def __init__(self, a, b, d: int):
        TotallyRealField.real_quadratic(d)  # checks d
        a, b = Fraction(a), Fraction(b)
        den = lcm(a.denominator, b.denominator)
        self._a = a.numerator * (den // a.denominator)
        self._b = b.numerator * (den // b.denominator)
        self._den = den
        self._d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._den)

    @property
    def d(self) -> int:
        return self._d

    def __add__(self, other):
        o = _lift(other, self._d)
        if o is None:
            return NotImplemented
        return _quad(
            self._a * o._den + o._a * self._den,
            self._b * o._den + o._b * self._den,
            self._den * o._den,
            o._d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _lift(other, self._d)
        if o is None:
            return NotImplemented
        return _quad(
            self._a * o._den - o._a * self._den,
            self._b * o._den - o._b * self._den,
            self._den * o._den,
            o._d,
        )

    def __rsub__(self, other):
        o = _lift(other, self._d)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _lift(other, self._d)
        if o is None:
            return NotImplemented
        return _quad(
            self._a * o._a + self._b * o._b * o._d,
            self._a * o._b + self._b * o._a,
            self._den * o._den,
            o._d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(other, self._d)
        if o is None:
            return NotImplemented
        # 1/o = o.den * conj(o) / n with n = oa^2 - ob^2 d, nonzero for o != 0
        n = o._a * o._a - o._b * o._b * o._d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt d)")
        den = o._den if n > 0 else -o._den  # keeps the result's den positive
        return _quad(
            (self._a * o._a - self._b * o._b * o._d) * den,
            (self._b * o._a - self._a * o._b) * den,
            self._den * abs(n),
            o._d,
        )

    def __rtruediv__(self, other):
        o = _lift(other, self._d)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _quad(-self._a, -self._b, self._den, self._d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (1 / self) ** (-exponent)
        out = _quad(1, 0, 1, self._d)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __int__(self):
        # elements of Q convert like a Fraction: truncation toward zero
        if self._b:
            raise TypeError(f"{self} is not rational")
        return int(self.a)

    def __eq__(self, other):
        if isinstance(other, QuadFieldElem):
            # rational values are shared between fields
            return (
                self._a == other._a
                and self._b == other._b
                and self._den == other._den
                and (self._d == other._d or self._b == 0)
            )
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other.numerator and self._den == other.denominator
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(self.a)
        return hash((self._a, self._b, self._den, self._d))

    def conjugate(self) -> "QuadFieldElem":
        return _quad(self._a, -self._b, self._den, self._d)

    def norm(self) -> Fraction:
        return Fraction(self._a * self._a - self._b * self._b * self._d, self._den * self._den)

    def trace(self) -> Fraction:
        return Fraction(2 * self._a, self._den)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"QuadFieldElem({self.a!s}, {self.b!s}, d={self._d})"


_new_elem = object.__new__


def _quad(a: int, b: int, den: int, d: int) -> QuadFieldElem:
    # private constructor: reduces (a, b, den) with den > 0 and checks nothing
    g = gcd(a, b, den)
    if g != 1:
        a //= g
        b //= g
        den //= g
    x = _new_elem(QuadFieldElem)
    x._a = a
    x._b = b
    x._den = den
    x._d = d
    return x


def _lift(x, d: int):
    """x as an operand next to an element tagged d, None for a foreign type.

    The result carries the tag of the operation's result: d, or x's own tag
    when d = 1, since Q lifts into every field.
    """
    if isinstance(x, QuadFieldElem):
        if x._d == d or d == 1:
            return x
        if x._d == 1:
            return _quad(x._a, 0, x._den, d)
        raise ValueError(f"cannot mix elements of Q(sqrt {d}) and Q(sqrt {x._d})")
    if isinstance(x, (int, Fraction)):
        return _quad(x.numerator, 0, x.denominator, d)
    return None


def _element(x) -> QuadFieldElem:
    y = _lift(x, 1)
    if y is None:
        raise TypeError(f"{x!r} is not a field element")
    return y


_FIELD_LABEL_RE = re.compile(r"Q\(sqrt\s*(\d+)\)")


@dataclass(frozen=True)
class TotallyRealField:
    """Q (d is None) or the real quadratic field Q(sqrt(d)).

    Real embeddings are indexed 0..degree-1; for a quadratic field, place 0
    sends sqrt(d) to the positive square root and place 1 to the negative one.
    `id_place` marks the distinguished place.
    """

    d: int | None = None
    id_place: int = 0

    def __post_init__(self):
        if self.d is not None and (self.d < 2 or not is_squarefree(self.d)):
            raise ValueError(f"d must be squarefree and >= 2, got {self.d}")
        if not 0 <= self.id_place < self.degree:
            raise ValueError(f"id_place {self.id_place} out of range for degree {self.degree}")

    @classmethod
    def rationals(cls) -> "TotallyRealField":
        return cls(None, 0)

    @classmethod
    def real_quadratic(cls, d: int, id_place: int = 0) -> "TotallyRealField":
        return cls(d, id_place)

    @classmethod
    def from_label(cls, label: str, id_place: int = 0) -> "TotallyRealField":
        """Parse "Q" or "Q(sqrt D)"."""
        text = label.strip()
        if text == "Q":
            return cls(None, id_place)
        m = _FIELD_LABEL_RE.fullmatch(text)
        if m:
            return cls.real_quadratic(int(m.group(1)), id_place)
        raise ValueError(f"cannot parse field label {label!r}")

    @property
    def degree(self) -> int:
        return 1 if self.d is None else 2

    @property
    def is_rationals(self) -> bool:
        return self.d is None

    @property
    def places(self) -> tuple[int, ...]:
        return tuple(range(self.degree))

    def non_id_places(self) -> tuple[int, ...]:
        return tuple(v for v in self.places if v != self.id_place)

    def coerce(self, x) -> QuadFieldElem:
        """Lift x into this field: elements of Q lift into every field, and
        rational elements of any field into Q."""
        tag = self.d or 1
        if isinstance(x, QuadFieldElem):
            if x._d == tag:
                return x
            if x._b == 0 and 1 in (x._d, tag):
                return _quad(x._a, 0, x._den, tag)
            raise ValueError(f"{x} does not lie in {self.label()}")
        if isinstance(x, (int, Fraction)):
            return _quad(x.numerator, 0, x.denominator, tag)
        raise TypeError(f"cannot coerce {x!r} into {self.label()}")

    def zero(self) -> QuadFieldElem:
        return self.coerce(0)

    def one(self) -> QuadFieldElem:
        return self.coerce(1)

    def sqrt_gen(self) -> QuadFieldElem:
        """The element sqrt(d); only for quadratic fields."""
        if self.is_rationals:
            raise ValueError("Q has no quadratic generator")
        return _quad(0, 1, 1, self.d)

    def label(self) -> str:
        return "Q" if self.is_rationals else f"Q(sqrt {self.d})"


def sign_at(x, place: int = 0) -> int:
    """Exact sign (+1 or -1) of x under the real embedding with the given index.

    The sign of a + b*sqrt(d) (den > 0 drops out) is the sign of a when b is
    zero or a^2 > b^2 d, else the sign of b (when a and b agree in sign, both
    are right); no real approximation is ever taken (a^2 = b^2 d is
    impossible, sqrt(d) being irrational). Q has place 0 only.
    """
    x = _element(x)
    if not x:
        raise ValueError("sign of zero undefined")
    places = 1 if x._d == 1 else 2
    if not 0 <= place < places:
        raise ValueError(f"place {place} out of range for a field with {places} real places")
    a, b = x._a, (x._b if place == 0 else -x._b)
    s = a if b == 0 or a * a > b * b * x._d else b
    return 1 if s > 0 else -1


def is_square(x) -> bool:
    """True iff x is a square inside its own field.

    Scaled by den^2, x is A + B*sqrt(d) with integers A, B. That equals
    (u + v*sqrt(d))^2 = (u^2 + v^2 d) + 2uv*sqrt(d) iff the norm A^2 - B^2 d is
    a square c^2 and, for one sign s, u^2 = (A + s*c)/2 and v^2 = (A - s*c)/(2d)
    are rational squares: then (2uv)^2 = (A^2 - c^2)/d = B^2, and the sign of v
    makes 2uv = B. A rational m/4 is a square iff m is. Over Q (d = 1, B = 0)
    this is the plain test that A is a square.
    """
    x = _element(x)
    if not x:
        raise ValueError("squareness of zero undefined")
    big_a, big_b, d = x._a * x._den, x._b * x._den, x._d
    nrm = big_a * big_a - big_b * big_b * d
    if not _is_square_int(nrm):
        return False
    c = isqrt(nrm)
    return any(
        _is_square_int(2 * (big_a + s * c)) and _is_square_int(2 * d * (big_a - s * c))
        for s in (1, -1)
    )


def in_k_infinity_star(x, field: TotallyRealField) -> bool:
    """True iff x is positive at every real place other than the Id place.

    Vacuously true over Q. The value at the Id place itself is unconstrained.
    """
    x = field.coerce(x)
    if not x:
        raise ValueError("zero is not an element of k*")
    return all(sign_at(x, v) == 1 for v in field.non_id_places())


def is_algebraic_integer(x) -> bool:
    """True iff x lies in the ring of integers of its field: den | 2a and
    den^2 | a^2 - b^2 d, for its trace and norm (over Q, iff den = 1)."""
    x = _element(x)
    return not 2 * x._a % x._den and not (x._a * x._a - x._b * x._b * x._d) % (x._den * x._den)


@dataclass(frozen=True, eq=False)
class SquareClass:
    """An element of k*/(k*)^2, the value group of the spinor norm.

    Two classes are equal iff the quotient of their representatives is a
    square in the field. Over Q the representative is also kept canonical
    (the signed squarefree integer, which is what gets printed); over
    Q(sqrt d) no canonical form is imposed, and a representative is whatever
    element the class was made from. So `spinor_norm`'s representative over
    Q(sqrt d) is Zassenhaus's 2^r det, in the same class as the product of
    the f(v) over a reflection decomposition, though not the same element.
    """

    field: TotallyRealField
    representative: object

    __hash__ = None  # equality is by square-quotient; no general canonical form

    @classmethod
    def of(cls, field: TotallyRealField, x) -> "SquareClass":
        x = field.coerce(x)
        if not x:
            raise ValueError("square class of zero undefined")
        if field.is_rationals:
            x = _quad(squarefree_part(x._a * x._den), 0, 1, 1)
        return cls(field, x)

    @classmethod
    def trivial(cls, field: TotallyRealField) -> "SquareClass":
        return cls.of(field, 1)

    def __eq__(self, other):
        if not isinstance(other, SquareClass):
            return NotImplemented
        if self.field != other.field:
            return False
        return is_square(self.representative / other.representative)

    def __mul__(self, other):
        if not isinstance(other, SquareClass):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("square classes of different fields")
        rep = self.representative * other.representative
        if self.field.is_rationals:
            # both representatives are squarefree, so the square part of the
            # product is exactly gcd^2
            rep = rep / gcd(self.representative._a, other.representative._a) ** 2
        return SquareClass(self.field, rep)

    @property
    def is_trivial(self) -> bool:
        return is_square(self.representative)

    def __repr__(self):
        return f"SquareClass({self.field.label()}, {format_element(self.representative)})"


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_QUADRATIC_RE = re.compile(r"^(-?\d+)/(\d+)\+(-?\d+)/(\d+)\*sqrt\((\d+)\)$")


def format_element(x) -> str:
    """Wire encoding: "p/q" over Q, "p/q+r/s*sqrt(d)" over Q(sqrt d).

    Whitespace-free, minus signs attached to numerators; parse_element
    round-trips this bit-exactly.
    """
    x = _element(x)
    if x._d == 1:
        return f"{x._a}/{x._den}"
    ga, gb = gcd(x._a, x._den), gcd(x._b, x._den)  # each part in lowest terms
    return f"{x._a // ga}/{x._den // ga}+{x._b // gb}/{x._den // gb}*sqrt({x._d})"


def parse_element(text: str, field: TotallyRealField) -> QuadFieldElem:
    """Parse the wire encoding into an element of `field`.

    Plain integers and rationals are accepted for either field; the full
    quadratic form is accepted only when its d matches the field's.
    """
    m = _RATIONAL_RE.match(text)
    if m:
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return field.coerce(Fraction(int(m.group(1)), den))
    m = _QUADRATIC_RE.match(text)
    if m:
        if field.is_rationals:
            raise ValueError(f"{text!r} is not an element of Q")
        pa, qa, pb, qb, d = (int(g) for g in m.groups())
        if qa == 0 or qb == 0:
            raise ValueError(f"zero denominator in {text!r}")
        if d != field.d:
            raise ValueError(f"{text!r} does not lie in Q(sqrt {field.d})")
        return _quad(pa * qb, pb * qa, qa * qb, d)
    raise ValueError(f"cannot parse field element {text!r}")
