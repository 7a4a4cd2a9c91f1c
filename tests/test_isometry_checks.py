"""How isometries are checked: once, by decomposing them.

The public `Isometry` constructor, `decompose_matrix` and the CLI reject a
non-isometry through the reflection walk alone; identities, products,
inverses and reflection chains are built without a check. These tests verify
the unchecked constructions against references that share no code with
`orbinv.spinor`: a Leibniz determinant and the entrywise reflection formula.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import (
    SEED,
    admissible_form,
    quad_field,
    random_anisotropic_vectors,
    random_isometry,
    rationals,
)
from orbinv import (
    DiagonalForm,
    InternalConsistencyError,
    Isometry,
    decompose_matrix,
    preserves_form,
    reflect,
    spinor_norm,
    spinor_norm_of_matrix,
)
from orbinv import spinor
from orbinv.cli import main

Q = rationals()
K5 = quad_field(5)
FORMS = [admissible_form(field, dim) for field in (Q, K5) for dim in (3, 4, 5)]
NOT_AN_ISOMETRY = "matrix does not preserve the form"
NOT_SPECIAL = "matrix does not have determinant +1"


def leibniz_det(field, matrix):
    size = len(matrix)
    total = field.zero()
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = field.one() if inversions % 2 == 0 else -field.one()
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term
    return total


def entrywise_reflection(v, form):
    # delta_ij - 2 f_j v_j v_i / f(v), entry by entry
    v = form.coerce_vector(v)
    qv = form.evaluate(v)
    f = form.coefficients
    return tuple(
        tuple((1 if i == j else 0) - 2 * f[j] * v[j] * v[i] / qv for j in range(form.dim))
        for i in range(form.dim)
    )


def assert_special_isometry(g):
    assert preserves_form(g.form, g.matrix)
    assert leibniz_det(g.form.field, g.matrix) == 1


def random_entry(rng, field):
    num = rng.choice([n for n in range(-4, 5) if n])
    if field.is_rationals:
        return field.coerce(num) / rng.randint(1, 3)
    return (field.coerce(num) + rng.randint(-2, 2) * field.sqrt_gen()) / rng.randint(1, 3)


def perturbed(rng, g):
    """g with one entry changed, drawn until the result is not an isometry."""
    size = g.form.dim
    while True:
        i, j = rng.randrange(size), rng.randrange(size)
        rows = [list(row) for row in g.matrix]
        rows[i][j] = rows[i][j] + random_entry(rng, g.form.field)
        m = tuple(tuple(row) for row in rows)
        if not preserves_form(g.form, m):
            return m


def assert_input_error(form, m, pivot_order=None):
    assert not preserves_form(form, m)
    for call in (
        lambda: Isometry(form, m),
        lambda: decompose_matrix(form, m, pivot_order),
        lambda: spinor_norm_of_matrix(form, m),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert not isinstance(exc.value, InternalConsistencyError)
        assert str(exc.value) == NOT_AN_ISOMETRY


# --- trusted constructions ---


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"{f.field.label()}-dim{f.dim}")
def test_trusted_constructions_are_special_isometries(form):
    rng = random.Random(SEED + form.dim)
    assert_special_isometry(Isometry.identity(form))
    for _ in range(4):
        u = random_anisotropic_vectors(rng, form, rng.choice([2, 4, 6]))
        v = random_anisotropic_vectors(rng, form, rng.choice([2, 4, 6]))
        g = Isometry.from_reflections(form, u)
        h = Isometry.from_reflections(form, v)
        for result in (g, g * h, g.inverse(), h.inverse() * g):
            assert_special_isometry(result)
        # products and inverses agree with the reflection chains they stand for
        assert g * h == Isometry.from_reflections(form, u + v)
        assert g.inverse() == Isometry.from_reflections(form, u[::-1])


def test_reflect_matches_entrywise_formula():
    rng = random.Random(SEED + 10)
    for form in FORMS:
        for _ in range(5):
            v = tuple(rng.randint(-5, 5) for _ in range(form.dim))
            if not any(v) or not form.evaluate(v):
                continue
            r = reflect(v, form)
            assert r == entrywise_reflection(v, form)
            assert leibniz_det(form.field, r) == -1


def test_from_reflections_rejects_odd_counts():
    form = admissible_form(Q, 3)
    with pytest.raises(ValueError) as exc:
        Isometry.from_reflections(form, [(1, 0, 0)])
    assert str(exc.value) == NOT_SPECIAL
    with pytest.raises(ValueError, match="isotropic"):
        Isometry.from_reflections(form, [(1, 1, 0), (1, 0, 0)])


# --- non-isometries stay input errors ---


def test_single_entry_perturbations_are_input_errors():
    rng = random.Random(SEED + 11)
    for form in FORMS:
        for _ in range(4):
            assert_input_error(form, perturbed(rng, random_isometry(rng, form)))


def test_perturbation_on_the_correction_branch_is_an_input_error():
    # the matrix of test_isotropic_difference_correction_path: g e1 - e1 is
    # isotropic, and stays so when a column other than 1 changes, so the walk
    # in this order still starts on the two-reflection correction
    form = DiagonalForm(Q, (1, -1, -1, -1))
    g = Isometry.from_reflections(form, [(5, 1, 3, 4), (5, 2, 3, 4)])
    rows = [list(row) for row in g.matrix]
    rows[2][3] = rows[2][3] + 1
    m = tuple(tuple(row) for row in rows)
    column = tuple(row[1] for row in m)
    assert form.evaluate(tuple(a - b for a, b in zip(column, form.basis_vector(1)))) == 0
    assert_input_error(form, m, pivot_order=(1, 0, 2, 3))


def test_correction_that_stays_isotropic_is_an_input_error():
    # column 1 is e0: e0 - e1 is isotropic before and after the reflection in
    # e1, which no isometry allows
    form = DiagonalForm(Q, (1, -1, -1, -1))
    m = ((1, 1, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert_input_error(form, m, pivot_order=(1, 0, 2, 3))


def test_row_sign_flip_is_a_determinant_error():
    rng = random.Random(SEED + 12)
    for form in (admissible_form(Q, 4), admissible_form(K5, 4)):
        g = random_isometry(rng, form)
        m = tuple(tuple(-x for x in row) if i == 2 else row for i, row in enumerate(g.matrix))
        with pytest.raises(ValueError) as exc:
            Isometry(form, m)
        assert str(exc.value) == NOT_SPECIAL
        assert len(decompose_matrix(form, m)) % 2 == 1
        assert spinor_norm_of_matrix(form, m)[1] == -1


# --- no re-checks on trusted paths ---


def test_trusted_paths_never_call_preserves_form(capsys, monkeypatch):
    calls = []
    check = spinor.preserves_form

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(spinor, "preserves_form", counting)
    rng = random.Random(SEED + 13)
    form = admissible_form(K5, 4)
    g = random_isometry(rng, form)
    h = random_isometry(rng, form)
    spinor_norm(g * h.inverse())
    Isometry.identity(form)
    matrix = '[["5/3","4/3","0"],["4/3","5/3","0"],["0","0","1"]]'
    for subcommand in ("spinor-norm", "decompose"):
        assert main([subcommand, "--field", "Q", "--form", "1,-1,-1", "--matrix", matrix]) == 0
    assert calls == []
    # a failed walk is the one place that classifies with preserves_form
    bad = '[["1","0","0"],["0","1","0"],["0","0","2"]]'
    assert main(["decompose", "--field", "Q", "--form", "1,-1,-1", "--matrix", bad]) == 2
    assert len(calls) == 1
    capsys.readouterr()


def test_spinor_norm_decomposes_only_to_check(monkeypatch):
    # the public constructor's check is the one decomposition; the spinor
    # norm itself runs none, so a reflection chain is never decomposed
    calls = []
    decompose = spinor.decompose_matrix

    def counting(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(spinor, "decompose_matrix", counting)
    boost = ((Fraction(5, 3), Fraction(4, 3), 0), (Fraction(4, 3), Fraction(5, 3), 0), (0, 0, 1))
    form = admissible_form(Q, 3)
    spinor_norm(Isometry(form, boost))
    assert len(calls) == 1
    calls.clear()
    spinor_norm(Isometry.from_reflections(form, [(1, 2, 0), (3, 1, 1)]))
    assert calls == []


def test_spinor_norm_refuses_a_shear_smuggled_past_the_check():
    # I - g has its one nonzero entry at (0, 1): pivot row 0, pivot column 1,
    # which no isometry allows; the unchecked constructor lets it through
    form = admissible_form(Q, 3)
    shear = spinor._coerce_matrix(form, ((1, -1, 0), (0, 1, 0), (0, 0, 1)))
    assert not preserves_form(form, shear)
    with pytest.raises(InternalConsistencyError):
        spinor_norm(spinor._isometry(form, shear))
