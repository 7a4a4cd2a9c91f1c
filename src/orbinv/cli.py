"""Batch command-line front end with byte-deterministic JSON output.

All integer payloads are emitted as decimal strings; field elements use the
exact wire encoding from `exact_arith`; the only raw JSON numbers are the
explicitly float-valued growth-bound fields, printed to full stated precision.
Exit codes: 0 success, 2 validation error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import factorial
from pathlib import Path

import mpmath

from .exact_arith import (
    InternalConsistencyError,
    TotallyRealField,
    _FIELD_LABEL_RE,
    format_element,
    in_k_infinity_star,
    parse_element,
)
from . import field_invariants as fi
from . import growth_bound as gb
from . import spinor

PRECISION_ENV = "ORBINV_PRECISION_BITS"
# cost caps: the field checks and the reduced forms of Q(sqrt d) take about
# O(sqrt(d) log d) time, and sweep runs them and the O(D) oracle for every
# d <= dmax (about 32 s at the cap); check-normalizer prints O(n^2) matrix and
# form entries (about 1 s and 6.6 MB at the cap over Q(sqrt 5)); growth-bound
# float work grows with the working precision, and its exact numerator is
# printed in decimal, within the interpreter's default int-to-str limit
MAX_D = 10**7
MAX_DMAX = 10**4
MAX_NORMALIZER_N = 512
MAX_PRECISION_BITS = 10_000
MAX_NUMERATOR_DIGITS = 4300

_NUMBER_TOKEN_RE = re.compile(r"^-?\d+(\.\d+)?([eE][-+]?\d+)?$")
_PLACEHOLDER_RE = re.compile(r'(?<!\\)"@@RAWFLOAT(\d+)@@"')


class CommandError(Exception):
    def __init__(self, error: str, detail: str):
        super().__init__(detail)
        self.error = error
        self.detail = detail


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token such as "-1,1,1" or "-1/2+1/2*sqrt(5)" is a value, not a flag
        self._negative_number_matcher = re.compile(r"-\d")

    # argparse would print usage and exit; surface a machine-readable error instead
    def error(self, message):
        raise CommandError("invalid-arguments", message)


class _FloatToken:
    """A pre-rendered JSON number token, emitted without quotes."""

    def __init__(self, text: str):
        self.text = text


def _float_token(value: mpmath.mpf, precision_bits: int) -> _FloatToken:
    digits = max(17, int(precision_bits * 0.30103) + 2)
    text = mpmath.nstr(value, digits)
    if not _NUMBER_TOKEN_RE.match(text):
        raise InternalConsistencyError(f"float rendering produced a non-number token {text!r}")
    return _FloatToken(text)


def _dumps(doc) -> str:
    tokens: list[str] = []

    def placeholder(token: _FloatToken) -> str:
        tokens.append(token.text)
        return f"@@RAWFLOAT{len(tokens) - 1}@@"

    # a match is a whole JSON string, since a quote inside one follows a
    # backslash; a document without floats, maybe megabytes, is not scanned
    text = json.dumps(doc, indent=2, default=placeholder)
    return _PLACEHOLDER_RE.sub(lambda m: tokens[int(m[1])], text) if tokens else text


def _parse_field(label: str, id_place: int = 0) -> TotallyRealField:
    try:
        m = _FIELD_LABEL_RE.fullmatch(label.strip())
        if m and int(m.group(1)) > MAX_D:  # before the field checks d is squarefree
            raise ValueError(f"d must be at most {MAX_D}")
        return TotallyRealField.from_label(label, id_place)
    except ValueError as exc:
        raise CommandError("invalid-field", str(exc))


def _parse_form(field: TotallyRealField, text: str) -> spinor.DiagonalForm:
    coeffs = [parse_element(part, field) for part in text.split(",")]
    return spinor.DiagonalForm(field, tuple(coeffs))


def _parse_matrix(field: TotallyRealField, text: str):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CommandError("invalid-matrix", f"matrix is not valid JSON: {exc}")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise CommandError("invalid-matrix", "matrix must be a JSON array of arrays")
    out = []
    for row in rows:
        parsed = []
        for entry in row:
            if not isinstance(entry, str):
                raise CommandError("invalid-matrix", "matrix entries must be element strings")
            parsed.append(parse_element(entry, field))
        out.append(tuple(parsed))
    return tuple(out)


def _default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV, "128")
    try:
        bits = int(raw)
    except ValueError:
        raise CommandError("invalid-environment", f"{PRECISION_ENV}={raw!r} is not an integer")
    if bits > MAX_PRECISION_BITS:
        raise CommandError("invalid-environment",
                           f"{PRECISION_ENV} must be at most {MAX_PRECISION_BITS}")
    return bits


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _invariants_payload(inv: fi.FieldInvariants) -> dict:
    units = inv.units
    return {
        "field": inv.field.label(),
        "h": str(inv.h),
        "h2": str(inv.h2),
        "h_plus": str(inv.h_plus),
        "fundamental_unit": None
        if units.fundamental_unit is None
        else format_element(units.fundamental_unit),
        "unit_norm": None if units.unit_norm is None else str(units.unit_norm),
        "unit_index_infinity": str(units.unit_index_infinity),
        "h_inf_2": str(inv.h_inf_2),
        "uniqueness_certified": inv.uniqueness_certified,
    }


def _cmd_field_invariants(args) -> dict:
    field = _parse_field(args.field, args.id_place)
    return _invariants_payload(fi.restricted_class_number(field))


def _cmd_sweep(args) -> dict:
    if args.dmax < 2:
        raise CommandError("invalid-arguments", "--dmax must be at least 2")
    if args.dmax > MAX_DMAX:
        raise CommandError("invalid-arguments", f"--dmax must be at most {MAX_DMAX}")
    rows = []
    all_agree = True
    for d in fi.squarefree_range(args.dmax):
        field = TotallyRealField.real_quadratic(d)
        inv = fi.restricted_class_number(field)
        # d is checked once, by the field; the oracle reuses the row's unit
        analytic = fi._class_number_from_unit(d, inv.units.fundamental_unit)
        agree = analytic == inv.h
        all_agree = all_agree and agree
        row = {"d": str(d), "D": str(fi._fundamental_discriminant(d))}
        row.update(_invariants_payload(inv))
        row["analytic_h"] = str(analytic)
        row["oracle_agreement"] = agree
        rows.append(row)
    return {
        "dmax": str(args.dmax),
        "count": str(len(rows)),
        "all_oracle_agreement": all_agree,
        "rows": rows,
    }


def _spinor_inputs(args):
    field = _parse_field(args.field)
    form = _parse_form(field, args.form)
    matrix = _parse_matrix(field, args.matrix)
    try:
        vectors = spinor.decompose_matrix(form, matrix)
    except ValueError as exc:
        raise CommandError("invalid-matrix", str(exc))
    return field, form, matrix, vectors


def _cmd_spinor_norm(args) -> dict:
    field, form, matrix, vectors = _spinor_inputs(args)
    cls, det = spinor.spinor_norm_of_vectors(form, vectors)
    in_so0 = None
    if det == 1 and spinor.admissibility_check(form):
        # the walk has just checked the parsed matrix: an isometry of det 1
        in_so0 = spinor.so0_membership(spinor._isometry(form, matrix))
    return {
        "spinor_class": format_element(cls.representative),
        "in_k_infinity_star": in_k_infinity_star(cls.representative, field),
        "in_so0": in_so0,
        "decomposition_length": str(len(vectors)),
        "determinant": str(det),
    }


def _cmd_decompose(args) -> dict:
    field, form, _, vectors = _spinor_inputs(args)
    cls, det = spinor.spinor_norm_of_vectors(form, vectors)
    return {
        "vectors": [[format_element(x) for x in v] for v in vectors],
        "length": str(len(vectors)),
        "determinant": str(det),
        "spinor_class": format_element(cls.representative),
    }


def _cmd_check_normalizer(args) -> dict:
    if args.n > MAX_NORMALIZER_N:
        raise CommandError("invalid-arguments", f"--n must be at most {MAX_NORMALIZER_N}")
    field = _parse_field(args.field)
    report = spinor.normalizer_index_check(field, args.n)
    return {
        "field": field.label(),
        "n": str(report.n),
        "index_gamma_lambda": str(report.index_gamma_lambda),
        "fixed_square_classes": [format_element(c.representative) for c in report.fixed_classes],
        "fixed_classes_in_k_infinity_star": list(report.fixed_classes_in_k_infinity_star),
        "form": [format_element(c) for c in report.form.coefficients],
        "witness_matrix": [[format_element(x) for x in row] for row in report.witness.matrix],
        "witness_in_so0": report.witness_in_so0,
        "witness_spinor_class": format_element(report.witness_spinor_class.representative),
        "witness_spinor_class_is_fixed": report.witness_spinor_class_is_fixed,
        "witness_stabilizes_lattice": report.witness_stabilizes_lattice,
    }


def _check_numerator_digits(r: int, degree: int, request: str) -> None:
    # the numerator (prod_{i<=r} (2i-1)!)**degree, built one factor at a time
    # and abandoned as soon as it reaches 10**MAX_NUMERATOR_DIGITS, so the
    # check itself never works on a longer integer
    limit = 10**MAX_NUMERATOR_DIGITS
    base = 1
    for i in range(1, r + 1):
        base *= factorial(2 * i - 1)
        if base >= limit:
            break
    numerator = 1
    for _ in range(degree if base > 1 else 0):
        numerator *= base
        if numerator >= limit:
            raise CommandError(
                "invalid-arguments",
                f"{request} has an exact numerator of more than "
                f"{MAX_NUMERATOR_DIGITS} decimal digits",
            )


def _cmd_growth_bound(args) -> dict:
    if args.precision is not None and args.precision > MAX_PRECISION_BITS:
        raise CommandError("invalid-arguments",
                           f"--precision must be at most {MAX_PRECISION_BITS}")
    precision = args.precision if args.precision is not None else _default_precision()
    if args.certify is not None:
        if args.r is not None or args.degree is not None:
            raise CommandError("invalid-arguments", "--certify excludes --r/--degree")
        _check_numerator_digits(args.certify, 1, f"--certify {args.certify}")
        cert = gb.superexponential_certificate(args.certify, precision)
        return {
            "r_max": str(cert.r_max),
            "precision_bits": str(cert.precision_bits),
            "ratio_identity_verified": cert.ratio_identity_verified,
            "value_increase_threshold": None
            if cert.value_increase_threshold is None
            else str(cert.value_increase_threshold),
            "factorial_ratio_threshold": None
            if cert.factorial_ratio_threshold is None
            else str(cert.factorial_ratio_threshold),
            "monotone_from_threshold": cert.monotone_from_threshold,
            "threshold_reached": cert.threshold_reached,
            "rows": [
                {
                    "r": str(v.r),
                    "numerator": str(v.exact_numerator),
                    "pi_power": str(v.pi_power),
                    "float_value": _float_token(v.float_value, v.precision_bits),
                }
                for v in cert.values
            ],
        }
    if args.r is None:
        raise CommandError("invalid-arguments", "either --r or --certify is required")
    degree = args.degree if args.degree is not None else 1
    _check_numerator_digits(args.r, degree, f"--r {args.r} at degree {degree}")
    value = gb.euler_char_bound(args.r, degree, precision)
    return {
        "numerator": str(value.exact_numerator),
        "pi_power": str(value.pi_power),
        "float_value": _float_token(value.float_value, value.precision_bits),
        "precision_bits": str(value.precision_bits),
    }


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="orbinv", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="also write the JSON document to this path")
        return p

    p = add("field-invariants", _cmd_field_invariants,
            help="class numbers, units and the restricted 2-class number")
    p.add_argument("--field", required=True, help='"Q" or "Q(sqrt D)"')
    p.add_argument("--id-place", type=int, default=0, dest="id_place")

    p = add("sweep", _cmd_sweep,
            help="invariants for all squarefree d up to --dmax, with the analytic oracle")
    p.add_argument("--dmax", type=int, required=True)

    for name, handler in (("spinor-norm", _cmd_spinor_norm), ("decompose", _cmd_decompose)):
        p = add(name, handler, help=f"{name} of an exact isometry of a diagonal form")
        p.add_argument("--field", required=True)
        p.add_argument("--form", required=True, help='comma-separated coefficients "a0,a1,..."')
        p.add_argument("--matrix", required=True, help="JSON array of arrays of element strings")

    p = add("check-normalizer", _cmd_check_normalizer,
            help="normalizer index report with the diag(-1,-1,1,...,1) witness")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("growth-bound", _cmd_growth_bound,
            help="Euler characteristic lower bound, exact and float")
    p.add_argument("--r", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--precision", type=int)
    p.add_argument("--certify", type=int, metavar="R_MAX")

    return parser


_PARSER = build_parser()  # argparse set-up costs about 1 ms, so it is done once


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        payload = _dumps(args.handler(args)) + "\n"
        if args.out:
            try:
                Path(args.out).write_text(payload, encoding="utf-8")
            except OSError as exc:
                raise CommandError("invalid-output", f"cannot write --out: {exc}")
    except CommandError as exc:
        sys.stderr.write(_dumps({"error": exc.error, "detail": exc.detail}) + "\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(_dumps({"error": "validation", "detail": str(exc)}) + "\n")
        return 2
    except InternalConsistencyError as exc:
        sys.stderr.write(_dumps({"error": "internal-consistency", "detail": str(exc)}) + "\n")
        return 3
    sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
