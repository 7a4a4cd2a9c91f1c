import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import quad_field, rationals
from orbinv import (
    SquareClass,
    TotallyRealField,
    format_element,
    parse_element,
    restricted_class_number,
)
from orbinv import exact_arith, field_invariants
from orbinv.cli import main

Q = rationals()
K5 = quad_field(5)

BLOCK_MATRIX = '[["5/3","4/3","0"],["4/3","5/3","0"],["0","0","1"]]'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_field_invariants_golden_field(capsys):
    doc = run_json(capsys, "field-invariants", "--field", "Q(sqrt 5)")
    assert doc["h"] == "1"
    assert doc["h_inf_2"] == "1"
    assert doc["uniqueness_certified"] is True
    assert doc["fundamental_unit"] == "1/2+1/2*sqrt(5)"
    assert doc["unit_norm"] == "-1"
    assert doc["unit_index_infinity"] == "2"
    # printed unit re-parses to the exact element
    unit = parse_element(doc["fundamental_unit"], K5)
    assert unit == restricted_class_number(K5).units.fundamental_unit


def test_field_invariants_rationals(capsys):
    doc = run_json(capsys, "field-invariants", "--field", "Q")
    assert doc["fundamental_unit"] is None
    assert doc["unit_norm"] is None
    assert (doc["h"], doc["h2"], doc["unit_index_infinity"], doc["h_inf_2"]) == (
        "1",
        "1",
        "1",
        "1",
    )


def test_field_invariants_id_place_flag(capsys):
    doc = run_json(capsys, "field-invariants", "--field", "Q(sqrt 5)", "--id-place", "1")
    assert doc["h_inf_2"] == "1"
    code, _, err = run(capsys, "field-invariants", "--field", "Q(sqrt 5)", "--id-place", "x")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-arguments"
    # Q has the one place 0
    code, out, err = run(capsys, "field-invariants", "--field", "Q", "--id-place", "7")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "invalid-field",
                               "detail": "id_place 7 out of range for degree 1"}
    assert run_json(capsys, "field-invariants", "--field", "Q", "--id-place", "0") == run_json(
        capsys, "field-invariants", "--field", "Q")


def test_a_value_with_a_leading_minus_follows_its_flag(capsys):
    stretch = '[["1","0","0"],["0","1","0"],["0","0","2"]]'  # not an isometry
    requests = [
        ("Q", "-1,1,1", WITNESS_MATRIX),
        ("Q", "-1,1,1", BLOCK_MATRIX),
        ("Q", "-1,1,1", stretch),
        ("Q(sqrt 5)", "-1/2+1/2*sqrt(5),1,1", WITNESS_MATRIX),
    ]
    for subcommand in ("spinor-norm", "decompose"):
        for field, form, matrix in requests:
            flags = ("--field", field, "--matrix", matrix)
            joined = run(capsys, subcommand, *flags, f"--form={form}")
            separate = run(capsys, subcommand, *flags, "--form", form)
            assert separate == joined, (subcommand, form, matrix)
            assert joined[0] == (2 if matrix == stretch else 0), joined


def test_spinor_norm_subcommand(capsys):
    doc = run_json(
        capsys,
        "spinor-norm", "--field", "Q", "--form", "1,-1,-1", "--matrix", BLOCK_MATRIX,
    )
    assert doc == {
        "spinor_class": "3/1",
        "in_k_infinity_star": True,
        "in_so0": True,
        "decomposition_length": "2",
        "determinant": "1",
    }


def test_spinor_norm_flags_non_special(capsys):
    reflection = '[["-1","0","0"],["0","1","0"],["0","0","1"]]'
    doc = run_json(
        capsys,
        "spinor-norm", "--field", "Q", "--form", "1,-1,-1", "--matrix", reflection,
    )
    assert doc["determinant"] == "-1"
    assert doc["in_so0"] is None
    assert doc["decomposition_length"] == "1"


def test_decompose_subcommand(capsys):
    doc = run_json(
        capsys,
        "decompose", "--field", "Q", "--form", "1,-1,-1", "--matrix", BLOCK_MATRIX,
    )
    assert doc["length"] == "2"
    assert doc["determinant"] == "1"
    assert doc["spinor_class"] == "3/1"
    vectors = [[parse_element(x, Q) for x in v] for v in doc["vectors"]]
    assert len(vectors) == 2
    # classes fold back to the reported one
    from orbinv import DiagonalForm

    form = DiagonalForm(Q, (1, -1, -1))
    cls = SquareClass.trivial(Q)
    for v in vectors:
        cls = cls * SquareClass.of(Q, form.evaluate(v))
    assert cls == SquareClass.of(Q, 3)


def test_check_normalizer_subcommand(capsys):
    doc = run_json(capsys, "check-normalizer", "--field", "Q", "--n", "4")
    assert doc["index_gamma_lambda"] == "2"
    assert doc["witness_in_so0"] is False
    assert doc["witness_stabilizes_lattice"] is True
    assert doc["witness_spinor_class"] == "-1/1"
    assert doc["fixed_square_classes"] == ["1/1", "-1/1"]
    doc5 = run_json(capsys, "check-normalizer", "--field", "Q(sqrt 5)", "--n", "4")
    assert doc5["fixed_square_classes"][1] == "1/2+-1/2*sqrt(5)"
    assert doc5["fixed_classes_in_k_infinity_star"] == [True, True]


def test_check_normalizer_witness_class_goldens(capsys):
    # a class over Q(sqrt 5) has no canonical representative, so the printed
    # one is fixed here: f(e_0) f(e_1) = -phi for the witness's two vectors
    doc = run_json(capsys, "check-normalizer", "--field", "Q", "--n", "4")
    assert doc["witness_spinor_class"] == "-1/1"
    doc5 = run_json(capsys, "check-normalizer", "--field", "Q(sqrt 5)", "--n", "4")
    assert doc5["witness_spinor_class"] == "-1/2+-1/2*sqrt(5)"


def test_growth_bound_subcommand(capsys):
    code, out, err = run(capsys, "growth-bound", "--r", "2", "--degree", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["numerator"] == "6"
    assert doc["pi_power"] == "6"
    assert doc["precision_bits"] == "128"
    # the float is a raw JSON number carrying the full stated precision
    m = re.search(r'"float_value": ([0-9.eE+-]+),', out)
    assert m and len(re.sub(r"[^0-9]", "", m.group(1))) >= 38
    assert abs(doc["float_value"] - 9.7515138121486152e-05) < 1e-18


def test_growth_bound_certify(capsys):
    doc = run_json(capsys, "growth-bound", "--certify", "12")
    assert doc["ratio_identity_verified"] is True
    assert doc["value_increase_threshold"] == "8"
    assert doc["factorial_ratio_threshold"] == "11"
    assert len(doc["rows"]) == 12
    code, _, err = run(capsys, "growth-bound", "--certify", "12", "--r", "1")
    assert code == 2 and "excludes" in err


def test_growth_bound_requires_r_or_certify(capsys):
    code, _, err = run(capsys, "growth-bound")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-arguments"


def test_precision_environment_default(capsys, monkeypatch):
    monkeypatch.setenv("ORBINV_PRECISION_BITS", "192")
    doc = run_json(capsys, "growth-bound", "--r", "1")
    assert doc["precision_bits"] == "192"
    monkeypatch.setenv("ORBINV_PRECISION_BITS", "not-a-number")
    code, _, err = run(capsys, "growth-bound", "--r", "1")
    assert code == 2


def test_precision_cap_applies_to_flag_and_environment(capsys, monkeypatch):
    from orbinv.cli import MAX_PRECISION_BITS

    over = str(MAX_PRECISION_BITS + 1)
    code, out, err = run(capsys, "growth-bound", "--r", "2", "--precision", over)
    assert (code, out, json.loads(err)["error"]) == (2, "", "invalid-arguments")
    code, out, err = run(capsys, "growth-bound", "--certify", "40", "--precision", over)
    assert (code, out, json.loads(err)["error"]) == (2, "", "invalid-arguments")
    monkeypatch.setenv("ORBINV_PRECISION_BITS", over)
    code, out, err = run(capsys, "growth-bound", "--r", "1")
    assert (code, out, json.loads(err)["error"]) == (2, "", "invalid-environment")
    monkeypatch.setenv("ORBINV_PRECISION_BITS", str(MAX_PRECISION_BITS))
    doc = run_json(capsys, "growth-bound", "--r", "1")
    assert doc["precision_bits"] == str(MAX_PRECISION_BITS)


def test_field_over_the_d_cap_is_rejected_before_the_squarefree_test(capsys, monkeypatch):
    from orbinv import exact_arith
    from orbinv.cli import MAX_D

    def unreachable(n):
        raise AssertionError("is_squarefree reached for a d over the cap")

    monkeypatch.setattr(exact_arith, "is_squarefree", unreachable)
    for d in (str(MAX_D + 1), str(10**45 + 7), "9" * 91):
        for argv in (("field-invariants", "--field", f"Q(sqrt {d})"),
                     ("check-normalizer", "--field", f"Q(sqrt {d})", "--n", "4")):
            code, out, err = run(capsys, *argv)
            assert (code, out, json.loads(err)["error"]) == (2, "", "invalid-field"), argv


def test_normalizer_n_over_the_cap_is_rejected_before_any_work(capsys, monkeypatch):
    from orbinv import spinor
    from orbinv.cli import MAX_NORMALIZER_N

    def reached(field, n):
        raise ValueError("reached")

    monkeypatch.setattr(spinor, "normalizer_index_check", reached)
    for field in ("Q", "Q(sqrt 5)"):
        for n in (MAX_NORMALIZER_N + 1, MAX_NORMALIZER_N + 2, 2000, 10**40):
            code, out, err = run(capsys, "check-normalizer", "--field", field, "--n", str(n))
            assert (code, out, json.loads(err)["error"]) == (2, "", "invalid-arguments"), n
        code, out, err = run(capsys, "check-normalizer", "--field", field,
                             "--n", str(MAX_NORMALIZER_N))
        assert (code, out, json.loads(err)["detail"]) == (2, "", "reached")


def test_sweep_subcommand(capsys):
    doc = run_json(capsys, "sweep", "--dmax", "15")
    assert doc["count"] == str(len([d for d in range(2, 16) if d not in (4, 8, 9, 12)]))
    assert doc["all_oracle_agreement"] is True
    ds = [row["d"] for row in doc["rows"]]
    assert ds == sorted(ds, key=int)
    for row in doc["rows"]:
        assert row["oracle_agreement"] is True
        assert row["analytic_h"] == row["h"]
        assert row["unit_index_infinity"] == "2"
        assert row["h_inf_2"] == row["h2"]


def test_sweep_checks_d_and_finds_the_unit_once_per_row(capsys, monkeypatch):
    # the row's field is the one check of d, and the oracle reuses the row's
    # fundamental unit
    checks, units = [], []
    is_squarefree, unit = exact_arith.is_squarefree, field_invariants._fundamental_unit
    monkeypatch.setattr(exact_arith, "is_squarefree",
                        lambda n: checks.append(n) or is_squarefree(n))
    monkeypatch.setattr(field_invariants, "_fundamental_unit", lambda d: units.append(d) or unit(d))
    doc = run_json(capsys, "sweep", "--dmax", "15")
    ds = [int(row["d"]) for row in doc["rows"]]
    assert checks == ds and units == ds


def test_validation_errors_exit_2(capsys):
    cases = [
        ("field-invariants", "--field", "Q(sqrt 12)"),  # not squarefree
        ("field-invariants", "--field", "Z"),
        ("check-normalizer", "--field", "Q(sqrt 10)", "--n", "4"),
        ("check-normalizer", "--field", "Q", "--n", "5"),
        ("spinor-norm", "--field", "Q", "--form", "1,-1,-1", "--matrix", "not json"),
        ("spinor-norm", "--field", "Q", "--form", "1,-1,-1", "--matrix", '[["1","0"],["0","1"]]'),
        ("spinor-norm", "--field", "Q", "--form", "1,-1,-1",
         "--matrix", '[["2","0","0"],["0","1","0"],["0","0","1"]]'),  # not an isometry
        ("spinor-norm", "--field", "Q", "--form", "1,0,-1", "--matrix", BLOCK_MATRIX),
        ("sweep", "--dmax", "1"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        parsed = json.loads(err)
        assert set(parsed) == {"error", "detail"}, argv


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-arguments"


def test_internal_consistency_exits_3(capsys, monkeypatch):
    from orbinv import InternalConsistencyError
    from orbinv import cli as climod

    def boom(field):
        raise InternalConsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(climod.fi, "restricted_class_number", boom)
    code, out, err = run(capsys, "field-invariants", "--field", "Q")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "internal-consistency"


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "field-invariants", "--field", "Q", "--out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_byte_determinism_two_runs(capsys):
    argv = ("check-normalizer", "--field", "Q(sqrt 5)", "--n", "6")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_out_flag_to_unwritable_path_exits_2_before_printing(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run(capsys, "growth-bound", "--r", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "invalid-output"
    assert not target.exists()


def test_spinor_requests_decompose_once(capsys, monkeypatch):
    from orbinv import spinor

    calls = []
    decompose = spinor.decompose_matrix

    def counting(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(spinor, "decompose_matrix", counting)
    for subcommand in ("spinor-norm", "decompose"):
        calls.clear()
        run_json(capsys, subcommand, "--field", "Q", "--form", "1,-1,-1", "--matrix", BLOCK_MATRIX)
        assert len(calls) == 1, subcommand


def test_non_isometry_error_bytes(capsys):
    matrix = '[["1","0","0"],["0","1","0"],["0","0","2"]]'
    for subcommand in ("spinor-norm", "decompose"):
        code, out, err = run(capsys, subcommand, "--field", "Q", "--form", "1,-1,-1", "--matrix", matrix)
        assert code == 2
        assert out == ""
        assert err == (
            '{\n  "error": "invalid-matrix",\n  "detail": "matrix does not preserve the form"\n}\n'
        )


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    import orbinv
    from orbinv import cli

    def rebuilt():
        raise AssertionError("build_parser called per request")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    env = {k: v for k, v in os.environ.items() if k != "ORBINV_PRECISION_BITS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(orbinv.__file__).parents[1]), env.get("PYTHONPATH", "")])
    requests = [
        ("field-invariants", "--field", "Q(sqrt 5)", "--id-place", "x"),  # argparse error
        ("field-invariants", "--field", "Q(sqrt 5)"),
        ("sweep", "--dmax", "15"),
        ("spinor-norm", "--field", "Q", "--form", "1,-1,-1", "--matrix", BLOCK_MATRIX),
        ("decompose", "--field", "Q", "--form", "1,-1,-1", "--matrix", BLOCK_MATRIX),
        ("check-normalizer", "--field", "Q", "--n", "4"),
        ("growth-bound", "--r", "2"),
    ]
    for argv in requests:
        fresh = subprocess.run([sys.executable, "-m", "orbinv.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [run(capsys, *argv)[0] for argv in requests] == [2, 0, 0, 0, 0, 0, 0]


def test_growth_bound_numerator_cap_is_checked_before_any_work(capsys, monkeypatch):
    from orbinv import growth_bound as gb
    from orbinv.cli import MAX_NUMERATOR_DIGITS

    def reached(*args):
        raise ValueError("reached")

    monkeypatch.setattr(gb, "euler_char_bound", reached)
    monkeypatch.setattr(gb, "superexponential_certificate", reached)
    # the largest in-bound values: (prod_{i<=r} (2i-1)!)**degree has at most
    # 4300 digits, and one more step in r, degree or --certify passes it
    largest = [("--r", "55"), ("--r", "40", "--degree", "2"), ("--r", "34", "--degree", "3"),
               ("--r", "2", "--degree", "5525"), ("--r", "1", "--degree", str(10**40)),
               ("--certify", "55")]
    over = [("--r", "56"), ("--r", "41", "--degree", "2"), ("--r", "35", "--degree", "3"),
            ("--r", "2", "--degree", "5526"), ("--r", "2", "--degree", "1000000"),
            ("--r", "40", "--degree", "100000"), ("--r", "5000"), ("--r", str(10**40)),
            ("--certify", "56"), ("--certify", "3000")]
    for argv in largest:
        code, out, err = run(capsys, "growth-bound", *argv)
        assert (code, out, json.loads(err)["detail"]) == (2, "", "reached"), argv
    for argv in over:
        code, out, err = run(capsys, "growth-bound", *argv)
        doc = json.loads(err)
        assert (code, out, doc["error"]) == (2, "", "invalid-arguments"), argv
        assert f"more than {MAX_NUMERATOR_DIGITS} decimal digits" in doc["detail"], argv
    monkeypatch.undo()
    for argv in largest[:4]:
        doc = run_json(capsys, "growth-bound", *argv)
        assert 4000 < len(doc["numerator"]) <= MAX_NUMERATOR_DIGITS, argv


def test_sweep_dmax_over_the_cap_is_rejected_before_any_work(capsys, monkeypatch):
    from orbinv import field_invariants
    from orbinv.cli import MAX_DMAX

    def reached(dmax):
        raise ValueError("reached")

    monkeypatch.setattr(field_invariants, "squarefree_range", reached)
    for dmax in (MAX_DMAX + 1, 100000, 10**40):
        code, out, err = run(capsys, "sweep", "--dmax", str(dmax))
        assert (code, out, json.loads(err)) == (
            2, "", {"error": "invalid-arguments", "detail": f"--dmax must be at most {MAX_DMAX}"})
    code, out, err = run(capsys, "sweep", "--dmax", str(MAX_DMAX))
    assert (code, out, json.loads(err)["detail"]) == (2, "", "reached")


# --- one piece of work per request ---


WITNESS_MATRIX = '[["-1","0","0"],["0","-1","0"],["0","0","1"]]'


def test_spinor_norm_reads_so0_from_the_parsed_matrix(capsys, monkeypatch):
    # the walk has checked the input matrix, so nothing rebuilds the isometry
    from orbinv import spinor

    rebuilt = []

    def forbidden(*args):
        rebuilt.append(args)
        raise AssertionError("isometry rebuilt")

    monkeypatch.setattr(spinor.Isometry, "from_reflections", forbidden)
    monkeypatch.setattr(spinor.ReflectionDecomposition, "recompose", forbidden)
    requests = [
        (("Q", "1,-1,-1", BLOCK_MATRIX), True),
        (("Q", "1,-1,-1", WITNESS_MATRIX), False),
        (("Q", "-1,1,1", WITNESS_MATRIX), False),
        (("Q(sqrt 5)", "1/2+1/2*sqrt(5),-1,-1", WITNESS_MATRIX), False),
        (("Q(sqrt 5)", "1/2+1/2*sqrt(5),-1,-1", '[["1","0","0"],["0","0","1"],["0","-1","0"]]'),
         True),
    ]
    for (field, form, matrix), in_so0 in requests:
        doc = run_json(capsys, "spinor-norm", "--field", field, f"--form={form}", "--matrix", matrix)
        assert doc["in_so0"] is in_so0, (field, form, matrix)
    assert rebuilt == []


def test_check_normalizer_builds_one_identity(capsys, monkeypatch):
    # the witness's recompose starts from the identity; the two basis vectors
    # are built as single rows
    from orbinv import spinor

    calls = []
    identity = spinor.identity_matrix

    def counting(*args):
        calls.append(args)
        return identity(*args)

    monkeypatch.setattr(spinor, "identity_matrix", counting)
    for field in ("Q", "Q(sqrt 5)"):
        calls.clear()
        doc = run_json(capsys, "check-normalizer", "--field", field, "--n", "64")
        assert doc["witness_in_so0"] is False
        assert len(calls) == 1, field


def test_a_placeholder_forged_in_an_error_message_stays_text(capsys):
    # argparse quotes unknown arguments in its message, inside a JSON string
    forged = 'x"@@RAWFLOAT0@@'
    code, out, err = run(capsys, "sweep", "--dmax", "3", forged)
    assert (code, out) == (2, "")
    assert json.loads(err)["detail"] == f"unrecognized arguments: {forged}"


# --- the input contract, as a property ---


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's --help, as a process would exit
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _either_side(below, above):
    # values on both sides of a cap; the accepted side stays cheap
    return st.one_of(st.integers(*below), st.integers(*above)).map(str)


_BIG = st.integers(-10**60, 10**60)
_SMALL = st.integers(-12, 12)
_NUMERATORS = st.one_of(_SMALL, _BIG)
_DENOMINATORS = st.one_of(st.integers(0, 9), st.integers(1, 10**60))
_ELEMENT_TEXT = st.one_of(
    _NUMERATORS.map(str),
    st.builds("{}/{}".format, _NUMERATORS, _DENOMINATORS),
    st.builds("{}/{}+{}/{}*sqrt({})".format, _NUMERATORS, _DENOMINATORS, _NUMERATORS,
              _DENOMINATORS, st.sampled_from([2, 5])),
    st.text(alphabet="0123456789/+-*sqrt() ,x", max_size=10),
)
_FIELD_LABELS = st.one_of(
    st.sampled_from(["Q", "Q(sqrt 5)", "Q(sqrt 2)", "Q(sqrt 13)", "Q(sqrt 4)", "Q(sqrt 1)",
                     "Q(sqrt 0)", "Q(sqrt -3)", "Z", "", " Q "]),
    _either_side((2, 60), (10**7 + 1, 10**30)).map("Q(sqrt {})".format),
)
_FORMS = st.one_of(
    st.sampled_from(["1,-1,-1", "-1,1,1", "1/2+1/2*sqrt(5),-1,-1", "1,-1,-1,-1"]),
    st.lists(_ELEMENT_TEXT, min_size=1, max_size=4).map(",".join),
)
_MATRICES = st.one_of(
    st.sampled_from([BLOCK_MATRIX, WITNESS_MATRIX, '[["-1","0","0"],["0","1","0"],["0","0","1"]]']),
    st.sampled_from(["not json", "[1]", "[[1]]", "{}", "[]", "[[]]", '[["1"]]', "null"]),
    st.integers(0, 4).flatmap(
        lambda size: st.lists(st.lists(_ELEMENT_TEXT, min_size=size, max_size=size),
                              min_size=size, max_size=size)).map(json.dumps),
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["field-invariants", "sweep", "spinor-norm", "decompose",
                                    "check-normalizer", "growth-bound", "free"]))
    if command == "free":  # argparse's own paths: unknown names, missing or repeated flags
        vocabulary = st.sampled_from(["field-invariants", "sweep", "spinor-norm", "growth-bound",
                                      "--field", "--dmax", "--n", "--r", "--matrix", "--form",
                                      "--id-place", "-h", "Q", "3", "x", "--", "-1"])
        return draw(st.lists(st.one_of(vocabulary, st.text("abxz-=,", max_size=5)), max_size=6))
    argv = [command]
    if command == "field-invariants":
        argv += ["--field", draw(_FIELD_LABELS)]
        if draw(st.booleans()):
            argv += ["--id-place", str(draw(st.integers(-1, 2)))]
    elif command == "sweep":
        argv += ["--dmax", draw(_either_side((-3, 50), (10**4 + 1, 10**30)))]
    elif command in ("spinor-norm", "decompose"):
        field = draw(st.one_of(st.sampled_from(["Q", "Q(sqrt 5)"]), _FIELD_LABELS))
        form, matrix = draw(_FORMS), draw(_MATRICES)
        if draw(st.booleans()):
            argv += ["--field", field, f"--form={form}", f"--matrix={matrix}"]
        else:
            argv += ["--field", field, "--form", form, "--matrix", matrix]
    elif command == "check-normalizer":
        field = draw(st.one_of(st.sampled_from(["Q", "Q(sqrt 5)"]), _FIELD_LABELS))
        argv += ["--field", field, "--n", draw(_either_side((-2, 16), (513, 10**30)))]
    else:
        flags = {
            "--r": _either_side((-2, 12), (200, 10**30)),
            "--certify": _either_side((-2, 12), (200, 10**30)),
            "--degree": _either_side((-1, 4), (10**4, 10**30)),
            "--precision": _either_side((-5, 256), (10**4 + 1, 10**30)),
        }
        names = st.one_of(
            st.sampled_from([["--r"], ["--r", "--degree"], ["--r", "--degree", "--precision"],
                             ["--certify"], ["--certify", "--precision"]]),
            st.lists(st.sampled_from(sorted(flags)), unique=True),
        )
        for flag in draw(names):
            argv += [flag, draw(flags[flag])]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_argvs())
def test_every_argv_answers_or_exits_2_or_3(argv):
    code, out, err = _run_in_process(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in out + err, argv
    if code == 0:
        assert err == "" and (out.startswith("usage:") or json.loads(out)), argv
    else:
        assert out == "" and set(json.loads(err)) == {"error", "detail"}, argv


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from([None, 2, 5, 13]), _NUMERATORS, st.integers(1, 10**60), _NUMERATORS,
       st.integers(1, 10**60))
def test_wire_encoding_round_trips(d, p, q, r, s):
    field = Q if d is None else quad_field(d)
    x = field.coerce(Fraction(p, q))
    if d is not None:
        x = x + field.sqrt_gen() * Fraction(r, s)
    assert parse_element(format_element(x), field) == x


# --- every committed benchmark digest, replayed ---


def test_committed_cli_digests_replay():
    requests = json.loads((Path(__file__).parents[1] / "bench" / "cli_requests.json")
                          .read_text(encoding="utf-8"))["strata"]
    replayed = 0
    for stratum, entries in requests.items():
        for request in entries:
            if request["sha256"] is None:
                continue
            code, out, err = _run_in_process(request["argv"])
            assert (code, err) == (0, ""), request["argv"]
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == request["sha256"], (
                stratum, request["argv"])
            replayed += 1
    assert replayed >= 95
