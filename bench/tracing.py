"""Spans around the calls into orbinv's public functions, for the traced run.

`Tracer.install()` replaces each traced function with a wrapper in every
orbinv module namespace that binds it (spinor imports `SquareClass` by name,
cli imports `parse_element` and `format_element`, field_invariants imports
`is_squarefree`), and each traced method on its class. A wrapper records a
span only while an op is open, so set-up and correctness checks stay out of
the numbers.

Spans are kept in memory as parallel arrays (name, start, end, parent span,
op id) and written out with `Tracer.write()` when the run ends. A span's self
time is its duration minus the durations of its child spans; the op's own
self time is the part of the op that no traced call covers, reported as the
unattributed remainder.
"""

from __future__ import annotations

import functools
import io
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import orbinv
from orbinv import cli, exact_arith, field_invariants, growth_bound, spinor

from workloads import decimal_digits

MODULES = {
    "exact_arith": exact_arith,
    "spinor": spinor,
    "field_invariants": field_invariants,
    "growth_bound": growth_bound,
    "cli": cli,
}

TRACED = {
    "exact_arith": (
        "squarefree_part", "SquareClass.of", "SquareClass.__mul__", "SquareClass.__eq__",
        "is_square", "is_squarefree", "parse_element", "format_element",
    ),
    "spinor": (
        "Isometry.__init__", "Isometry.from_reflections", "preserves_form", "mat_mul",
        "reflect", "decompose_matrix", "spinor_norm", "spinor_norm_of_matrix",
        "so0_membership", "normalizer_index_check",
    ),
    "field_invariants": (
        "restricted_class_number", "fundamental_unit", "reduced_forms", "form_cycles",
        "reduction_step", "analytic_class_number_oracle",
    ),
    "growth_bound": ("euler_char_bound", "superexponential_certificate"),
    "cli": ("main",),
}

# counters recorded at the same boundaries: name -> unit
COUNTERS = {
    "exact_arith.squarefree_part.max_digits": "digits",
    "exact_arith.squarefree_part.large_calls": "count",
    "exact_arith.QuadFieldElem.ops": "count",
    "spinor.decompose_matrix.vectors": "count",
    "field_invariants.reduced_forms.forms": "count",
    "field_invariants.form_cycles.cycles": "count",
    "field_invariants.fundamental_unit.calls_per_field": "1",
    "field_invariants.fundamental_unit.max_digits": "digits",
    "growth_bound.max_numerator_digits": "digits",
    "cli.decompose_per_request": "1",
    "cli.preserves_form_per_request": "1",
    "cli.output_bytes": "bytes",
}

TOTALS = {
    "trace.ops": "count",
    "trace.op_time_s": "s",
    "trace.unattributed_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}

QUAD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)

# squarefree_part hands inputs at or above this to sympy's factorint
SYMPY_THRESHOLD = 10**10


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer, names in TRACED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.time_s"] = "s"
            units[f"{layer}.{name}.self_s"] = "s"
    units.update(COUNTERS)
    for layer in TRACED:
        units[f"{layer}.time_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(TOTALS)
    return units


class Tracer:
    def __init__(self):
        self.names = ["op"]  # name 0 is the root span of each op
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_kinds: list[str] = []
        self.stack: list[int] = []
        self.quad_ops = 0
        self.sfp_max_digits = 0
        self.sfp_large_calls = 0
        self.unit_fields: set = set()
        self.unit_max_digits = 0
        self.numerator_max_digits = 0
        self.output_bytes = 0
        self.result_lengths = Counter()  # traced name -> summed len(result)

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(len(self.op_kinds) - 1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def run_op(self, kind: str, fn, *args):
        """Run fn(*args) as one op under a root span."""
        self.op_kinds.append(kind)
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, full_name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(full_name)
        stack, open_span, close_span = self.stack, self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_quad_op(self, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            if stack:
                self.quad_ops += 1
            return fn(*args)

        return wrapper

    # -- counters ------------------------------------------------------------

    def _add_result_length(self, full_name):
        def after(args, result):
            self.result_lengths[full_name] += len(result)

        return after

    def _after_squarefree_part(self, args, result):
        n = abs(args[0])
        self.sfp_max_digits = max(self.sfp_max_digits, decimal_digits(n))
        self.sfp_large_calls += n >= SYMPY_THRESHOLD

    def _after_fundamental_unit(self, args, eps):
        self.unit_fields.add((len(self.op_kinds) - 1, args[0]))
        parts = (eps.a.numerator, eps.a.denominator, eps.b.numerator, eps.b.denominator)
        self.unit_max_digits = max(self.unit_max_digits, *(decimal_digits(p) for p in parts))

    def _after_cli_main(self, args, code):
        # called inside the caller's stdout redirect, which holds this request's output
        if isinstance(sys.stdout, io.StringIO):
            self.output_bytes += len(sys.stdout.getvalue().encode("utf-8"))

    def _after_euler_char_bound(self, args, value):
        self.numerator_max_digits = max(
            self.numerator_max_digits, decimal_digits(value.exact_numerator)
        )

    # -- installation --------------------------------------------------------

    def install(self):
        after = {
            "exact_arith.squarefree_part": self._after_squarefree_part,
            "field_invariants.fundamental_unit": self._after_fundamental_unit,
            "growth_bound.euler_char_bound": self._after_euler_char_bound,
            "cli.main": self._after_cli_main,
        }
        for full in ("spinor.decompose_matrix", "field_invariants.reduced_forms",
                     "field_invariants.form_cycles"):
            after[full] = self._add_result_length(full)
        namespaces = [vars(m) for m in MODULES.values()] + [vars(orbinv)]
        for layer, names in TRACED.items():
            module = MODULES[layer]
            for name in names:
                full = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = vars(cls)[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(full, raw.__func__, after.get(full)))
                    else:
                        wrapped = self._wrap(full, raw, after.get(full))
                    setattr(cls, attr, wrapped)
                    continue
                fn = getattr(module, name)
                wrapped = self._wrap(full, fn, after.get(full))
                for namespace in namespaces:
                    for key, value in list(namespace.items()):
                        if value is fn:
                            namespace[key] = wrapped
        quad = exact_arith.QuadFieldElem
        for attr in QUAD_OPS:
            setattr(quad, attr, self._count_quad_op(vars(quad)[attr]))

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans and counters; the
        ops-per-second totals are added by the caller, which timed the ops."""
        n = len(self.span_name)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += durations[i]

        layer_of = [name.split(".")[0] for name in self.names]
        calls = Counter()
        total = Counter()
        self_time = Counter()
        layer_total = Counter()
        op_time = unattributed = 0.0
        per_kind_calls = Counter()
        for i in range(n):
            name_id = self.span_name[i]
            if name_id == 0:
                op_time += durations[i]
                unattributed += durations[i] - child_time[i]
                continue
            calls[name_id] += 1
            total[name_id] += durations[i]
            self_time[name_id] += durations[i] - child_time[i]
            parent = self.span_parent[i]
            layer = layer_of[name_id]
            if layer_of[self.span_name[parent]] != layer:
                layer_total[layer] += durations[i]
            per_kind_calls[(self.op_kinds[self.span_op[i]], self.names[name_id])] += 1

        out = {}
        for name_id, full in enumerate(self.names[1:], start=1):
            out[f"{full}.calls"] = calls[name_id]
            out[f"{full}.time_s"] = total[name_id]
            out[f"{full}.self_s"] = self_time[name_id]

        fu_calls = calls[self.names.index("field_invariants.fundamental_unit")]
        spinor_norm_requests = self.op_kinds.count("spinor-norm")

        def per_request(name):
            count = per_kind_calls[("spinor-norm", name)]
            return count / spinor_norm_requests if spinor_norm_requests else 0

        out.update({
            "exact_arith.squarefree_part.max_digits": self.sfp_max_digits,
            "exact_arith.squarefree_part.large_calls": self.sfp_large_calls,
            "exact_arith.QuadFieldElem.ops": self.quad_ops,
            "spinor.decompose_matrix.vectors": self.result_lengths["spinor.decompose_matrix"],
            "field_invariants.reduced_forms.forms": self.result_lengths["field_invariants.reduced_forms"],
            "field_invariants.form_cycles.cycles": self.result_lengths["field_invariants.form_cycles"],
            "field_invariants.fundamental_unit.calls_per_field":
                fu_calls / len(self.unit_fields) if self.unit_fields else 0,
            "field_invariants.fundamental_unit.max_digits": self.unit_max_digits,
            "growth_bound.max_numerator_digits": self.numerator_max_digits,
            "cli.decompose_per_request": per_request("spinor.decompose_matrix"),
            "cli.preserves_form_per_request": per_request("spinor.preserves_form"),
            "cli.output_bytes": self.output_bytes,
        })
        for layer, names in TRACED.items():
            out[f"{layer}.time_s"] = layer_total[layer]
            out[f"{layer}.self_s"] = sum(out[f"{layer}.{name}.self_s"] for name in names)
        out.update({
            "trace.ops": len(self.op_kinds),
            "trace.op_time_s": op_time,
            "trace.unattributed_s": unattributed,
        })
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\top_kind\n")
            for i in range(len(self.span_name)):
                op = self.span_op[i]
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{op}\t{self.op_kinds[op]}\n"
                )
