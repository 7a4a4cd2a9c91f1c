"""Diagonal quadratic forms, reflection decompositions and spinor norms.

Everything here is exact: isometries are matrices over Q or Q(sqrt d),
reflection decompositions recompose to the source matrix exactly, and the
spinor norm lands in k*/(k*)^2. The spinor norm of an isometry g is
Zassenhaus's determinant, 2^r times a principal r x r minor of F(I - g),
taken by one fraction-free elimination; it decomposes nothing. The product
of the form values of the reflection vectors gives the same class, and
`spinor_norm_of_matrix`, `spinor_norm_of_vectors` and the tests take it
that way.

An isometry is checked once, by decomposing it: the reflection walk of
`decompose_matrix` reaches the identity exactly when its input is the product
of the reflections it returns, and the parity of their count is the
determinant. Identities, products, inverses and reflection chains are
isometries by construction and are built unchecked. A reflection acts on a
matrix as a rank-1 update, in O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .exact_arith import (
    InternalConsistencyError,
    QuadFieldElem,
    SquareClass,
    TotallyRealField,
    _quad,
    in_k_infinity_star,
    is_algebraic_integer,
    sign_at,
)

__all__ = [
    "DiagonalForm",
    "Isometry",
    "ReflectionDecomposition",
    "NormalizerReport",
    "admissibility_check",
    "preserves_form",
    "reflect",
    "cartan_dieudonne_decompose",
    "decompose_matrix",
    "spinor_norm",
    "spinor_norm_of_matrix",
    "spinor_norm_of_vectors",
    "so0_membership",
    "stabilizes_standard_lattice",
    "standard_admissible_form",
    "normalizer_index_check",
    "identity_matrix",
    "mat_mul",
    "mat_vec",
]


@dataclass(frozen=True)
class DiagonalForm:
    """Diagonal quadratic form <a_0, ..., a_n> over a totally real field."""

    field: TotallyRealField
    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.field.coerce(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 3:
            raise ValueError("dimension n+1 must be at least 3")
        if any(not c for c in coeffs):
            raise ValueError("form coefficients must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    @property
    def n(self) -> int:
        return self.dim - 1

    def coerce_vector(self, v) -> tuple:
        v = tuple(self.field.coerce(x) for x in v)
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} does not match dimension {self.dim}")
        return v

    def evaluate(self, v):
        """f(v) = sum a_i v_i^2."""
        v = self.coerce_vector(v)
        return sum((c * x * x for c, x in zip(self.coefficients, v)), self.field.zero())

    def basis_vector(self, i: int) -> tuple:
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return tuple(v)


# ---------------------------------------------------------------------------
# Exact matrix helpers
# ---------------------------------------------------------------------------


def identity_matrix(field: TotallyRealField, size: int) -> tuple:
    one = field.one()
    zero = field.zero()
    return tuple(tuple(one if i == j else zero for j in range(size)) for i in range(size))


def mat_mul(a, b) -> tuple:
    size = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(1, size)), a[i][0] * b[0][j])
              for j in range(size))
        for i in range(size)
    )


def mat_vec(a, v) -> tuple:
    size = len(a)
    return tuple(
        sum((a[i][k] * v[k] for k in range(1, size)), a[i][0] * v[0]) for i in range(size)
    )


def _coerce_matrix(form: DiagonalForm, matrix) -> tuple:
    size = form.dim
    rows = tuple(tuple(form.field.coerce(x) for x in row) for row in matrix)
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ValueError(f"matrix must be {size}x{size}")
    return rows


def preserves_form(form: DiagonalForm, matrix) -> bool:
    """Exact test of g^T F g == F for F = diag(coefficients)."""
    field = form.field
    f = form.coefficients
    size = form.dim
    zero = field.zero()
    rows = tuple(tuple(field.coerce(x) for x in row) for row in matrix)
    if len(rows) != size or any(len(r) != size for r in rows):
        return False
    for j in range(size):
        for k in range(j, size):
            total = zero
            for i in range(size):
                total = total + rows[i][j] * f[i] * rows[i][k]
            if total != (f[j] if j == k else zero):
                return False
    return True


# ---------------------------------------------------------------------------
# Isometries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Isometry:
    """An exact matrix g with g^T F g = F and det g = +1 (an element of SO(f)).

    The constructor checks both by decomposing g into reflections; `identity`,
    `from_reflections`, products and inverses skip the check.
    """

    form: DiagonalForm
    matrix: tuple

    def __post_init__(self):
        rows = _coerce_matrix(self.form, self.matrix)
        object.__setattr__(self, "matrix", rows)
        if len(decompose_matrix(self.form, rows)) % 2:
            raise ValueError("matrix does not have determinant +1")

    @classmethod
    def identity(cls, form: DiagonalForm) -> "Isometry":
        return _isometry(form, identity_matrix(form.field, form.dim))

    @classmethod
    def from_reflections(cls, form: DiagonalForm, vectors) -> "Isometry":
        """Product of the reflections in the given vectors (must be even in number)."""
        vectors = tuple(vectors)
        if len(vectors) % 2:
            raise ValueError("matrix does not have determinant +1")
        return _isometry(form, ReflectionDecomposition(form, vectors).recompose())

    def __mul__(self, other: "Isometry") -> "Isometry":
        if not isinstance(other, Isometry):
            return NotImplemented
        if other.form != self.form:
            raise ValueError("isometries of different forms")
        return _isometry(self.form, mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "Isometry":
        # g^-1 = F^-1 g^T F for an isometry of F = diag(f)
        f = self.form.coefficients
        size = self.form.dim
        rows = tuple(
            tuple(self.matrix[j][i] * f[j] / f[i] for j in range(size)) for i in range(size)
        )
        return _isometry(self.form, rows)


def _isometry(form: DiagonalForm, rows) -> Isometry:
    # private constructor for coerced matrices that are isometries of
    # determinant 1 by construction: checks nothing
    g = object.__new__(Isometry)
    object.__setattr__(g, "form", form)
    object.__setattr__(g, "matrix", rows)
    return g


# ---------------------------------------------------------------------------
# Admissibility and the SO_0 component
# ---------------------------------------------------------------------------


def _signs_at(form: DiagonalForm, place: int) -> tuple[int, ...]:
    return tuple(sign_at(c, place) for c in form.coefficients)


def admissibility_check(form: DiagonalForm) -> bool:
    """True iff the form has signature (1, n) at the Id place, up to a global
    sign flip, and is definite at every other real place."""
    signs = _signs_at(form, form.field.id_place)
    if signs.count(1) not in (1, form.dim - 1):
        return False
    for place in form.field.non_id_places():
        other = _signs_at(form, place)
        if len(set(other)) != 1:
            return False
    return True


def _hyperbolic_axis(form: DiagonalForm) -> int:
    # index of the coefficient carrying the (1, n) direction at Id, i.e. the
    # minority sign; a global flip by -1 does not move it
    if not admissibility_check(form):
        raise ValueError("form is not admissible")
    signs = _signs_at(form, form.field.id_place)
    minority = 1 if signs.count(1) == 1 else -1
    return signs.index(minority)


def so0_membership(g: Isometry) -> bool:
    """True iff g preserves the positive cone component at the Id place.

    With x the coordinate vector of the hyperbolic axis, the condition
    B(g x, x) > 0 at Id reduces to the diagonal entry of g on that axis being
    positive at Id (the form coefficient cancels against its own sign).
    """
    axis = _hyperbolic_axis(g.form)
    return sign_at(g.matrix[axis][axis], g.form.field.id_place) == 1


# ---------------------------------------------------------------------------
# Reflections and the constructive decomposition
# ---------------------------------------------------------------------------


def _reflect_rows(form: DiagonalForm, v, qv, h) -> tuple:
    # r_v h = h - v (2 (Fv)^T h / f(v)), a rank-1 update in O(n^2) for a
    # coerced v with qv = f(v) != 0; the rows where v vanishes stay as they are
    t = 2 / qv
    (y0, row0), *rest = [(t * c * x, row) for c, x, row in zip(form.coefficients, v, h) if x]
    s = [sum((y * row[j] for y, row in rest), y0 * row0[j]) for j in range(form.dim)]
    return tuple(tuple(a - x * b for a, b in zip(row, s)) if x else row for x, row in zip(v, h))


def reflect(v, form: DiagonalForm) -> tuple:
    """Matrix of the reflection x -> x - 2 B(x, v)/f(v) * v (determinant -1).

    Returned as a raw orthogonal matrix; nothing here composes it, since a
    product of reflections is built by rank-1 updates of the identity.
    """
    return ReflectionDecomposition(form, (v,)).recompose()


def _primitive_vector(field: TotallyRealField, v) -> tuple:
    # rescale by a positive rational to clear denominators and common integer
    # factors, then flip the sign so the first nonzero coordinate is positive
    # at Id; rational rescaling leaves the reflection and the square class of
    # f(v) unchanged
    den = lcm(*(x._den for x in v))
    num = gcd(*(p * (den // x._den) for x in v for p in (x._a, x._b)))
    scale = Fraction(den, num)
    w = tuple(x * scale for x in v)
    first = next(x for x in w if x)
    if sign_at(first, field.id_place) == -1:
        w = tuple(-x for x in w)
    return w


def decompose_matrix(form: DiagonalForm, matrix, pivot_order=None) -> list:
    """Reflection vectors whose product, left to right, equals `matrix`.

    Accepts any exact isometry of the form, special or not, and rejects any
    other matrix, which never reaches the identity. Basis vectors are
    processed in index order unless `pivot_order` gives another permutation.
    When the natural reflection vector g x - x is isotropic, the standard
    two-reflection correction applies: reflect in x first, then in the now
    anisotropic difference. At most 2(n+1) vectors are produced, at most n+1
    when no correction is needed.
    """
    size = form.dim
    order = tuple(range(size)) if pivot_order is None else tuple(pivot_order)
    if sorted(order) != list(range(size)):
        raise ValueError(f"pivot order must be a permutation of 0..{size - 1}")
    h = _coerce_matrix(form, matrix)
    identity = identity_matrix(form.field, size)
    vectors = []
    for i in order:
        x = identity[i]
        w = tuple(row[i] - e for row, e in zip(h, x))
        if not any(w):
            continue
        qw = form.evaluate(w)
        if not qw:
            vectors.append(x)
            h = _reflect_rows(form, x, form.coefficients[i], h)
            w = tuple(row[i] - e for row, e in zip(h, x))
            qw = form.evaluate(w)
            if not qw:
                break  # impossible for an isometry, so the test below fails
        vectors.append(w)
        h = _reflect_rows(form, w, qw, h)
    if h != identity:
        # the walk over an isometry always ends at the identity
        if not preserves_form(form, matrix):
            raise ValueError("matrix does not preserve the form")
        raise InternalConsistencyError("decomposition did not reach the identity")
    return [_primitive_vector(form.field, v) for v in vectors]


@dataclass(frozen=True)
class ReflectionDecomposition:
    """Ordered anisotropic vectors whose reflections multiply to the source."""

    form: DiagonalForm
    vectors: tuple

    @property
    def length(self) -> int:
        return len(self.vectors)

    def recompose(self) -> tuple:
        out = identity_matrix(self.form.field, self.form.dim)
        for v in reversed(self.vectors):
            v = self.form.coerce_vector(v)
            qv = self.form.evaluate(v)
            if not qv:
                raise ValueError("isotropic reflection vector")
            out = _reflect_rows(self.form, v, qv, out)
        return out


def cartan_dieudonne_decompose(g: Isometry, pivot_order=None) -> ReflectionDecomposition:
    """Deterministic reflection decomposition of a special isometry.

    The length is always even since det g = +1.
    """
    vectors = decompose_matrix(g.form, g.matrix, pivot_order)
    if len(vectors) % 2:
        raise InternalConsistencyError("odd reflection count for a special isometry")
    return ReflectionDecomposition(g.form, tuple(vectors))


# ---------------------------------------------------------------------------
# Spinor norm
# ---------------------------------------------------------------------------


def _zassenhaus_determinant(form: DiagonalForm, matrix) -> QuadFieldElem:
    # 2^r det F(I - g)[J, J] for an isometry g, where r is the rank of I - g
    # and J its pivot columns, by one fraction-free (Bareiss) elimination of
    # I - g over Z[sqrt d]: an element is an integer pair (a, b) for
    # a + b sqrt(d), and row i is cleared by its own denominator L_i. Columns
    # are taken in order, each pivoting on the first live row that is nonzero
    # there. The pivot columns are then J, and the pivot rows the row rank
    # profile, since a row that depends on earlier rows is nonzero only where
    # one of them is. The two profiles are the same set: (I - g)^T F =
    # -F g^-1 (I - g), so row i of I - g is column i carried by the invertible
    # F g^-1 and scaled by -1/f_i. So the last pivot is det (I - g)[J, J]
    # times prod L_j, up to the sign of the order the rows were taken in.
    size = form.dim
    d = form.coefficients[0]._d
    rows, scales = [], []
    for i, row in enumerate(matrix):
        den = lcm(*(x._den for x in row))
        rows.append([
            ((den if i == j else 0) - x._a * (den // x._den), -x._b * (den // x._den))
            for j, x in enumerate(row)
        ])
        scales.append(den)
    live = list(range(size))
    taken = []  # pivot rows, in the order of their columns
    columns = []
    pa, pb = 1, 0  # the last pivot
    for c in range(size):
        i = next((i for i in live if rows[i][c] != (0, 0)), None)
        if i is None:
            continue
        live.remove(i)
        taken.append(i)
        columns.append(c)
        qa, qb = pa, pb
        pa, pb = rows[i][c]
        pivot_row = rows[i]
        # the new entries are minors, divisible in Z[sqrt d] by the previous
        # pivot q: u / q = u conj(q) / N(q)
        nq = qa * qa - qb * qb * d
        for t in live:
            row = rows[t]
            ta, tb = row[c]
            row[c] = (0, 0)
            for k in range(c + 1, size):
                xa, xb = row[k]
                ya, yb = pivot_row[k]
                ua = pa * xa + pb * xb * d - ta * ya - tb * yb * d
                ub = pa * xb + pb * xa - ta * yb - tb * ya
                row[k] = ((ua * qa - ub * qb * d) // nq, (ub * qa - ua * qb) // nq)
    if sorted(taken) != columns:
        raise InternalConsistencyError("pivot rows of I - g are not its pivot columns")
    inversions = sum(a > b for k, a in enumerate(taken) for b in taken[k + 1:])
    sign = -1 if inversions % 2 else 1
    out = _quad(sign * pa << len(columns), sign * pb << len(columns),
                prod(scales[j] for j in columns), d)
    for j in columns:
        out = out * form.coefficients[j]
    return out


def spinor_norm(g: Isometry) -> SquareClass:
    """theta(g) in k*/(k*)^2, by Zassenhaus's determinant.

    With r the rank of I - g and J its pivot columns, theta(g) is the class
    of 2^r det M, M the J x J principal minor of F(I - g) for
    F = diag(coefficients) (Zassenhaus, "On the spinor norm", Arch. Math. 13,
    1962). M is the Gram matrix of the form [(1 - g)x, (1 - g)y] = B(x, (1 - g)y)
    on (1 - g)V in the basis (1 - g)e_j, j in J; that form is nondegenerate,
    so M never is singular. For a reflection in v, M is the 1 x 1 matrix
    f(v)/2, and in general the class is that of the product of the f(v_i)
    over any reflection decomposition of g, though none is computed: the
    minor comes from one fraction-free (Bareiss) elimination of I - g. The
    representative is 2^r det M itself, which over Q the class reduces to
    its signed squarefree integer.
    """
    return SquareClass.of(g.form.field, _zassenhaus_determinant(g.form, g.matrix))


def spinor_norm_of_matrix(form: DiagonalForm, matrix) -> tuple[SquareClass, int]:
    """Spinor norm of any exact orthogonal matrix, plus its determinant sign.

    Determinant -1 inputs lie outside SO(f); the returned sign flags them.
    """
    return spinor_norm_of_vectors(form, decompose_matrix(form, matrix))


def spinor_norm_of_vectors(form: DiagonalForm, vectors) -> tuple[SquareClass, int]:
    """Spinor norm and determinant sign of the product of reflections in `vectors`."""
    cls = SquareClass.trivial(form.field)
    for v in vectors:
        cls = cls * SquareClass.of(form.field, form.evaluate(v))
    return cls, -1 if len(vectors) % 2 else 1


# ---------------------------------------------------------------------------
# Lattice stabilization and the normalizer index report
# ---------------------------------------------------------------------------


def stabilizes_standard_lattice(g: Isometry) -> bool:
    """True iff g maps O_k^(n+1) onto itself.

    An Isometry has determinant 1, a unit, so integral entries suffice: the
    inverse is then the adjugate, which is integral too.
    """
    return all(is_algebraic_integer(x) for row in g.matrix for x in row)


def standard_admissible_form(field: TotallyRealField, n: int) -> DiagonalForm:
    """The admissible diagonal form <c, -1, ..., -1> used for lattice checks.

    c = 1 over Q; over Q(sqrt 5), c is whichever of the golden ratio and its
    conjugate is positive at the Id place (so the form is negative definite at
    the other real place).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if field.is_rationals:
        c = field.one()
    elif field.d == 5:
        phi = field.coerce(QuadFieldElem(Fraction(1, 2), Fraction(1, 2), 5))
        c = phi if field.id_place == 0 else phi.conjugate()
    else:
        raise ValueError("standard admissible form available only for Q and Q(sqrt 5)")
    return DiagonalForm(field, (c,) + (field.coerce(-1),) * n)


@dataclass(frozen=True)
class NormalizerReport:
    """Verification record for the index of a principal subgroup in its normalizer."""

    field: TotallyRealField
    n: int
    index_gamma_lambda: int
    witness: Isometry
    witness_in_so0: bool
    witness_spinor_class: SquareClass
    form: DiagonalForm
    fixed_classes: tuple
    fixed_classes_in_k_infinity_star: tuple
    witness_spinor_class_is_fixed: bool
    witness_stabilizes_lattice: bool


def normalizer_index_check(field: TotallyRealField, n: int) -> NormalizerReport:
    """Index = #(fixed square classes), with diag(-1,-1,1,...,1) as the witness
    normalizing element outside SO_0.

    The witness is the product of the reflections in e_0 and e_1, an isometry
    of the standard admissible diagonal form by construction; it is verified to
    stabilize the lattice O_k^(n+1) and to fail SO_0 membership, and each fixed
    representative is checked to lie in k_infinity^*. Its spinor class is
    taken from the two vectors, as the class of f(e_0) f(e_1) = -c, which
    fixes the printed representative over Q(sqrt 5).
    """
    if n < 4 or n % 2:
        raise ValueError(f"n must be even and >= 4, got {n}")
    form = standard_admissible_form(field, n)
    # the two fixed square classes: 1 and -1/c for the form's lead c, that is
    # -1 over Q and the conjugate of c over Q(sqrt 5) (the golden ratio has
    # norm -1)
    fixed = (field.one(), -1 / form.coefficients[0])
    vectors = (form.basis_vector(0), form.basis_vector(1))
    witness = Isometry.from_reflections(form, vectors)
    fixed_classes = tuple(SquareClass.of(field, t) for t in fixed)
    witness_class, _ = spinor_norm_of_vectors(form, vectors)
    return NormalizerReport(
        field=field,
        n=n,
        index_gamma_lambda=len(fixed_classes),
        witness=witness,
        witness_in_so0=so0_membership(witness),
        witness_spinor_class=witness_class,
        form=form,
        fixed_classes=fixed_classes,
        fixed_classes_in_k_infinity_star=tuple(in_k_infinity_star(t, field) for t in fixed),
        witness_spinor_class_is_fixed=any(witness_class == t for t in fixed_classes),
        witness_stabilizes_lattice=stabilizes_standard_lattice(witness),
    )
