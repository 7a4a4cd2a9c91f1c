import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    SEED,
    admissible_form,
    golden,
    quad_field,
    random_anisotropic_vectors,
    random_isometry,
    rationals,
)
from orbinv import (
    DiagonalForm,
    Isometry,
    QuadFieldElem,
    SquareClass,
    TotallyRealField,
    admissibility_check,
    cartan_dieudonne_decompose,
    decompose_matrix,
    in_k_infinity_star,
    normalizer_index_check,
    preserves_form,
    reflect,
    sign_at,
    so0_membership,
    spinor_norm,
    spinor_norm_of_matrix,
    stabilizes_standard_lattice,
    standard_admissible_form,
)

Q = rationals()
K5 = quad_field(5)
LORENTZ5 = DiagonalForm(Q, (1, -1, -1, -1, -1))
LORENTZ3 = DiagonalForm(Q, (1, -1, -1))


def diag_matrix(form, entries):
    zero = form.field.zero()
    return tuple(
        tuple(form.field.coerce(entries[i]) if i == j else zero for j in range(form.dim))
        for i in range(form.dim)
    )


# --- admissibility ---


def test_admissibility_examples():
    assert admissibility_check(LORENTZ5)
    assert not admissibility_check(DiagonalForm(K5, (1, -1, -1, -1, -1)))
    assert admissibility_check(DiagonalForm(K5, (golden(), -1, -1, -1, -1)))


def test_admissibility_accepts_global_sign_flip():
    assert admissibility_check(DiagonalForm(Q, (-1, 1, 1, 1)))
    assert not admissibility_check(DiagonalForm(Q, (1, 1, -1, -1)))


def test_evaluate_coerces_its_vector_once(monkeypatch):
    calls = []
    coerce_vector = DiagonalForm.coerce_vector

    def counting(form, v):
        calls.append(v)
        return coerce_vector(form, v)

    monkeypatch.setattr(DiagonalForm, "coerce_vector", counting)
    assert LORENTZ3.evaluate((3, 1, 2)) == 4
    assert len(calls) == 1
    assert LORENTZ3.basis_vector(1) == (0, 1, 0) and LORENTZ3.basis_vector(-1) == (0, 0, 1)
    with pytest.raises(IndexError):
        LORENTZ3.basis_vector(3)


def test_form_validation():
    with pytest.raises(ValueError):
        DiagonalForm(Q, (1, -1))  # dimension below 3
    with pytest.raises(ValueError):
        DiagonalForm(Q, (1, 0, -1))


# --- reflections ---


def test_reflection_examples():
    assert reflect((0, 1, 0, 0, 0), LORENTZ5) == diag_matrix(LORENTZ5, (1, -1, 1, 1, 1))
    assert reflect((1, 0, 0, 0, 0), LORENTZ5) == diag_matrix(LORENTZ5, (-1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        reflect((1, 0, 1, 0, 0), LORENTZ5)  # isotropic: f(e0 + e2) = 0


def test_reflection_is_an_involution():
    rng = random.Random(2)
    for form in (LORENTZ3, admissible_form(K5, 3)):
        for v in random_anisotropic_vectors(rng, form, 10):
            r = reflect(v, form)
            assert preserves_form(form, r)
            from orbinv.spinor import identity_matrix, mat_mul

            assert mat_mul(r, r) == identity_matrix(form.field, form.dim)


# --- isometries ---


def test_isometry_validation():
    with pytest.raises(ValueError):
        Isometry(LORENTZ3, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))  # not orthogonal
    with pytest.raises(ValueError):
        Isometry(LORENTZ3, diag_matrix(LORENTZ3, (-1, 1, 1)))  # determinant -1
    with pytest.raises(ValueError):
        Isometry(LORENTZ3, ((1, 0), (0, 1)))


def test_isometry_products_and_inverses():
    rng = random.Random(4)
    form = admissible_form(K5, 3)
    for _ in range(10):
        g = random_isometry(rng, form)
        h = random_isometry(rng, form)
        gh = g * h  # built unchecked; the identities below check the product
        assert (gh * h.inverse()).matrix == g.matrix
        assert (g * g.inverse()).matrix == Isometry.identity(form).matrix


# --- decomposition ---


def test_identity_decomposes_to_nothing():
    dec = cartan_dieudonne_decompose(Isometry.identity(LORENTZ5))
    assert dec.length == 0
    assert dec.recompose() == Isometry.identity(LORENTZ5).matrix


def test_witness_decomposes_into_two_coordinate_reflections():
    g = Isometry(LORENTZ5, diag_matrix(LORENTZ5, (-1, -1, 1, 1, 1)))
    dec = cartan_dieudonne_decompose(g)
    assert [tuple(map(int, v)) for v in dec.vectors] == [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
    ]


def test_rational_boost_block_decomposition():
    m = (
        (Fraction(5, 3), Fraction(4, 3), 0),
        (Fraction(4, 3), Fraction(5, 3), 0),
        (0, 0, 1),
    )
    g = Isometry(LORENTZ3, m)
    dec = cartan_dieudonne_decompose(g)
    assert dec.length == 2
    assert dec.recompose() == g.matrix


def test_decomposition_length_bound_and_parity():
    rng = random.Random(SEED)
    for form in (LORENTZ3, LORENTZ5, admissible_form(K5, 3)):
        for _ in range(10):
            g = random_isometry(rng, form)
            dec = cartan_dieudonne_decompose(g)
            assert dec.length % 2 == 0
            assert dec.length <= 2 * form.dim
            assert dec.recompose() == g.matrix


def test_isotropic_difference_correction_path():
    # send e1 to y = (5,1,3,4): then y - e1 = (5,0,3,4) is isotropic, so a
    # decomposition pivoting on index 1 first must take the two-reflection
    # correction branch
    form = DiagonalForm(Q, (1, -1, -1, -1))
    y = (5, 1, 3, 4)
    g = Isometry.from_reflections(form, [y, (5, 2, 3, 4)])  # second vector is y + e1
    from orbinv.spinor import mat_vec

    image = mat_vec(g.matrix, form.basis_vector(1))
    assert image == form.coerce_vector(y)
    assert form.evaluate(tuple(a - b for a, b in zip(image, form.basis_vector(1)))) == 0
    dec_vectors = decompose_matrix(form, g.matrix, pivot_order=(1, 0, 2, 3))
    recomposed = Isometry.from_reflections(form, dec_vectors)
    assert recomposed.matrix == g.matrix
    # the corrected decomposition still lands in the same square class
    cls = SquareClass.trivial(Q)
    for v in dec_vectors:
        cls = cls * SquareClass.of(Q, form.evaluate(v))
    assert cls == spinor_norm(g)


def test_bad_pivot_order_rejected():
    g = Isometry.identity(LORENTZ3)
    with pytest.raises(ValueError):
        cartan_dieudonne_decompose(g, pivot_order=(0, 1))
    with pytest.raises(ValueError):
        cartan_dieudonne_decompose(g, pivot_order=(0, 1, 1))


def test_decompose_rejects_non_isometries():
    with pytest.raises(ValueError):
        decompose_matrix(LORENTZ3, ((2, 0, 0), (0, 1, 0), (0, 0, 1)))


# --- spinor norm ---


def test_spinor_norm_examples():
    assert spinor_norm(Isometry.identity(LORENTZ5)).is_trivial
    g = Isometry(LORENTZ5, diag_matrix(LORENTZ5, (1, -1, -1, 1, 1)))
    assert spinor_norm(g).is_trivial  # (-1)(-1) is a square
    w = Isometry(LORENTZ5, diag_matrix(LORENTZ5, (-1, -1, 1, 1, 1)))
    assert spinor_norm(w) == SquareClass.of(Q, -1)


def test_spinor_norm_multiplicative():
    rng = random.Random(SEED + 1)
    for form in (LORENTZ3, admissible_form(K5, 3)):
        samples = [random_isometry(rng, form) for _ in range(12)]
        classes = [spinor_norm(g) for g in samples]
        for i in range(0, 12, 2):
            assert spinor_norm(samples[i] * samples[i + 1]) == classes[i] * classes[i + 1]


def test_spinor_norm_independent_of_pivot_order():
    rng = random.Random(SEED + 2)
    form = admissible_form(K5, 3)
    orders = [(0, 1, 2), (2, 1, 0), (1, 2, 0)]
    for _ in range(6):
        g = random_isometry(rng, form)
        reference = spinor_norm(g)
        for order in orders:
            dec = cartan_dieudonne_decompose(g, pivot_order=order)
            assert dec.recompose() == g.matrix
            cls = SquareClass.trivial(form.field)
            for v in dec.vectors:
                cls = cls * SquareClass.of(form.field, form.evaluate(v))
            assert cls == reference


def test_spinor_norm_of_matrix_flags_determinant():
    refl = reflect((1, 0, 0, 0, 0), LORENTZ5)
    cls, det = spinor_norm_of_matrix(LORENTZ5, refl)
    assert det == -1
    assert cls == SquareClass.of(Q, 1)  # f(e0) = 1
    cls, det = spinor_norm_of_matrix(LORENTZ5, diag_matrix(LORENTZ5, (-1, -1, 1, 1, 1)))
    assert det == 1 and cls == SquareClass.of(Q, -1)


def test_sampled_spinor_classes_have_representatives_in_k_infinity():
    rng = random.Random(SEED + 3)
    for dim in (3, 5):
        form = admissible_form(K5, dim)
        for _ in range(10):
            cls = spinor_norm(random_isometry(rng, form))
            assert in_k_infinity_star(cls.representative, K5)


# --- Zassenhaus's determinant against the reflection walk ---


def walk_class(g, pivot_order=None):
    # the fold of f(v) over the walk's decomposition: the definition of theta
    cls = SquareClass.trivial(g.form.field)
    for v in cartan_dieudonne_decompose(g, pivot_order).vectors:
        cls = cls * SquareClass.of(g.form.field, g.form.evaluate(v))
    return cls


# coefficients of the drawn forms: admissible ones, and indefinite ones whose
# pivot rows come out of order, so the sign of the row order is exercised
COEFFICIENT_POOLS = {
    "Q": (1, -1, 2, -2, 3),
    "Q(sqrt 5)": (golden(), golden().conjugate(), -1, 2, 1),
}

# chains whose walk takes the two-reflection correction: (y, y + e_i) sends
# e_i to y, and y - e_i is isotropic; the flag says whether the walk must
# pivot in reversed order to meet e_i first
CORRECTION_CHAINS = [
    ((1, 1, -1), ((1, -5, -5), (2, -5, -5)), False),
    ((2, -1, 1, -1), ((1, -5, -5, 0), (2, -5, -5, 0)), False),
    ((1, -1, -1), ((-5, -5, 1), (-5, -5, 2)), True),
    ((1, -1, -1, -1, -1), ((-5, -5, 0, 0, 1), (-5, -5, 0, 0, 2)), True),
]
# an indefinite form whose pivot rows come out in the odd order (1, 0)
ROW_SWAP_CHAIN = ((3, 2, -2), ((-1, -2, 2), (-1, -1, 1)))


def with_fixed_chains(test):
    # the identity (r = 0), the row swap and every correction chain, over
    # both fields, ahead of the drawn chains
    chains = [((1, -1, -1), ()), ROW_SWAP_CHAIN] + [c[:2] for c in CORRECTION_CHAINS]
    for label in sorted(COEFFICIENT_POOLS):
        for coefficients, vectors in chains:
            test = example((label, coefficients, vectors))(test)
    return test


@st.composite
def reflection_chains(draw):
    label = draw(st.sampled_from(sorted(COEFFICIENT_POOLS)))
    dim = draw(st.integers(3, 5))
    coefficients = tuple(draw(st.sampled_from(COEFFICIENT_POOLS[label])) for _ in range(dim))
    entries = st.integers(-3, 3)
    vectors = draw(st.lists(st.tuples(*[entries] * dim), max_size=8))
    return label, coefficients, vectors


def chain_isometry(label, coefficients, vectors):
    form = DiagonalForm(TotallyRealField.from_label(label), coefficients)
    kept = [v for v in vectors if any(v) and form.evaluate(v)]
    return Isometry.from_reflections(form, kept[: len(kept) // 2 * 2])


def pivot_columns(rows):
    # column rank profile by plain elimination over the field: each column is
    # reduced against the kept ones, which vanish at each other's pivots
    kept, out = [], []
    for j in range(len(rows)):
        column = [row[j] for row in rows]
        for p, b in kept:
            if column[p]:
                t = column[p] / b[p]
                column = [x - t * y for x, y in zip(column, b)]
        pivot = next((i for i, x in enumerate(column) if x), None)
        if pivot is not None:
            kept.append((pivot, column))
            out.append(j)
    return out


def laplace_det(field, m):
    if not m:
        return field.one()
    return sum((m[0][j] * laplace_det(field, [row[:j] + row[j + 1:] for row in m[1:]])
                * (-1 if j % 2 else 1) for j in range(len(m))), field.zero())


def zassenhaus_reference(g):
    # 2^r det of the J x J minor of F(I - g), J the pivot columns of I - g
    f, size = g.form.coefficients, g.form.dim
    one, zero = g.form.field.one(), g.form.field.zero()
    a = [[(one if i == j else zero) - g.matrix[i][j] for j in range(size)] for i in range(size)]
    cols = pivot_columns(a)
    minor = [[f[i] * a[i][j] for j in cols] for i in cols]
    return 2 ** len(cols) * laplace_det(g.form.field, minor)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(reflection_chains())
@with_fixed_chains
def test_zassenhaus_spinor_norm_matches_the_walk(chain):
    g = chain_isometry(*chain)
    theta = spinor_norm(g)
    reversed_order = tuple(reversed(range(g.form.dim)))
    walked = walk_class(g)
    assert theta == walked
    assert theta == walk_class(g, reversed_order)
    if g.form.field.is_rationals:
        # the same signed squarefree integer as the fold over the walk
        assert theta.representative == walked.representative
    else:
        assert theta.representative == zassenhaus_reference(g)
    if g.matrix == Isometry.identity(g.form).matrix:
        assert theta.representative == 1  # r = 0: the empty minor


@pytest.mark.parametrize("label", ["Q", "Q(sqrt 5)"])
@pytest.mark.parametrize("coefficients, vectors, reverse", CORRECTION_CHAINS)
def test_correction_chains_take_the_isotropic_branch(label, coefficients, vectors, reverse,
                                                     monkeypatch):
    isotropic = []
    evaluate = DiagonalForm.evaluate

    def counting(form, v):
        value = evaluate(form, v)
        if not value:
            isotropic.append(v)
        return value

    g = chain_isometry(label, coefficients, vectors)
    order = tuple(reversed(range(g.form.dim))) if reverse else None
    monkeypatch.setattr(DiagonalForm, "evaluate", counting)
    cartan_dieudonne_decompose(g, order)
    assert isotropic


def test_zassenhaus_signs_the_row_order():
    # column 0 of I - g is zero on row 0 but not on row 1, so the minor's rows
    # come out in the order (1, 0); without the sign of that order the class
    # over Q would be off by -1, which is not a square
    g = chain_isometry("Q", *ROW_SWAP_CHAIN)
    assert g.matrix[0][0] == 1 and g.matrix[1][0] != 0
    assert spinor_norm(g) == walk_class(g)


# --- SO_0 membership ---


def test_so0_examples():
    assert so0_membership(Isometry.identity(LORENTZ5))
    w = Isometry(LORENTZ5, diag_matrix(LORENTZ5, (-1, -1, 1, 1, 1)))
    assert not so0_membership(w)
    m = (
        (Fraction(5, 3), Fraction(4, 3), 0),
        (Fraction(4, 3), Fraction(5, 3), 0),
        (0, 0, 1),
    )
    assert so0_membership(Isometry(LORENTZ3, m))


def test_so0_requires_admissible_form():
    form = DiagonalForm(Q, (1, 1, -1, -1))
    g = Isometry.identity(form)
    with pytest.raises(ValueError):
        so0_membership(g)


def test_so0_is_a_sign_homomorphism():
    rng = random.Random(SEED + 4)
    form = LORENTZ3
    samples = [random_isometry(rng, form) for _ in range(12)]
    flags = [so0_membership(g) for g in samples]
    for i in range(0, 12, 2):
        product_flag = so0_membership(samples[i] * samples[i + 1])
        assert product_flag == (flags[i] == flags[i + 1])


def test_so0_with_flipped_signature():
    form = DiagonalForm(Q, (-1, 1, 1, 1, 1))
    w = Isometry(form, diag_matrix(form, (-1, -1, 1, 1, 1)))
    assert not so0_membership(w)
    assert so0_membership(Isometry.identity(form))


def _signed_coefficients(field, id_sign, other_sign):
    # small elements with the given sign at the Id place and, over Q(sqrt 5),
    # at the other place
    if field.is_rationals:
        return [id_sign * m for m in (1, 2, 3, 5)]
    pool = [field.coerce(a) + field.sqrt_gen() * b for a in range(-3, 4) for b in range(-2, 3)]
    return [x for x in pool if x and sign_at(x, field.id_place) == id_sign
            and all(sign_at(x, v) == other_sign for v in field.non_id_places())]


def test_so0_agrees_with_the_sign_of_the_spinor_norm():
    # an independent rule for det 1: g is a product of an even number of
    # reflections, and those in vectors of the form's minority sign at Id swap
    # the two cone components; with an even count, the number of negative f(v)
    # has the parity of that number, so g is in SO_0 exactly when theta(g) > 0
    # at the Id place
    rng = random.Random(SEED + 5)
    seen = set()
    for field in (Q, K5, quad_field(5, id_place=1)):
        for global_sign in (1, -1):
            for dim in (3, 4):
                for axis in range(dim):
                    other_sign = rng.choice((1, -1))
                    coefficients = [
                        rng.choice(_signed_coefficients(
                            field, global_sign if i == axis else -global_sign, other_sign))
                        for i in range(dim)
                    ]
                    form = DiagonalForm(field, tuple(coefficients))
                    assert admissibility_check(form)
                    for _ in range(2):
                        g = random_isometry(rng, form)
                        theta = spinor_norm(g).representative
                        in_so0 = so0_membership(g)
                        assert in_so0 == (sign_at(theta, field.id_place) == 1), (form, g.matrix)
                        seen.add(in_so0)
    assert seen == {True, False}


# --- lattice stabilization and the normalizer report ---


def test_lattice_stabilization():
    w = Isometry(LORENTZ5, diag_matrix(LORENTZ5, (-1, -1, 1, 1, 1)))
    assert stabilizes_standard_lattice(w)
    m = (
        (Fraction(5, 3), Fraction(4, 3), 0),
        (Fraction(4, 3), Fraction(5, 3), 0),
        (0, 0, 1),
    )
    assert not stabilizes_standard_lattice(Isometry(LORENTZ3, m))
    # golden-ratio multiples are integral over Q(sqrt 5)
    phi = golden()
    form5 = standard_admissible_form(K5, 4)
    assert stabilizes_standard_lattice(Isometry.identity(form5))


def test_standard_admissible_forms():
    assert standard_admissible_form(Q, 4).coefficients[0] == 1
    f5 = standard_admissible_form(K5, 4)
    assert admissibility_check(f5)
    assert f5.coefficients[0] == golden()
    flipped = standard_admissible_form(quad_field(5, id_place=1), 4)
    assert admissibility_check(flipped)
    assert flipped.coefficients[0] == golden().conjugate()
    with pytest.raises(ValueError):
        standard_admissible_form(quad_field(10), 4)


@pytest.mark.parametrize("label", ["Q", "Q(sqrt 5)"])
@pytest.mark.parametrize("n", [4, 6])
def test_normalizer_report(label, n):
    from orbinv import TotallyRealField

    field = TotallyRealField.from_label(label)
    report = normalizer_index_check(field, n)
    assert report.index_gamma_lambda == 2
    assert not report.witness_in_so0
    assert report.witness_stabilizes_lattice
    assert report.witness_spinor_class_is_fixed
    assert all(report.fixed_classes_in_k_infinity_star)
    assert report.witness.matrix[0][0] == -1 and report.witness.matrix[1][1] == -1


def test_normalizer_report_witness_class_over_q():
    report = normalizer_index_check(Q, 4)
    assert report.witness_spinor_class == SquareClass.of(Q, -1)


def test_normalizer_report_golden_fixed_set():
    report = normalizer_index_check(K5, 4)
    reps = [c.representative for c in report.fixed_classes]
    assert reps[0] == 1
    assert reps[1] == golden().conjugate()  # (1 - sqrt 5)/2
    assert in_k_infinity_star(reps[1], K5)


def test_normalizer_rejects_unsupported_inputs():
    with pytest.raises(ValueError):
        normalizer_index_check(quad_field(10), 4)
    with pytest.raises(ValueError):
        normalizer_index_check(Q, 5)
    with pytest.raises(ValueError):
        normalizer_index_check(Q, 2)
