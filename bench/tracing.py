"""Spans and exact counters around the public entry points of each layer.

Everything here wraps the program from outside: `instrument` replaces module
attributes (in every `char2forms` module that imported the name, e.g. `cli`
imports `classify` from `groups`) and class attributes, and `restore` puts
the originals back.  Spans are kept in memory as tuples
(name, start, end, parent, op id, tag) and written out by the runner.

Hot primitives (field ops, `Poly.gcd`, `IntField.mat_mul/bilinear`) get
counters instead of spans: a span per field op would cost more than the op.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from char2forms import _smallfield, cli, exterior, forms, groups, kalgebra, linalg, oracle
from char2forms.fields import GF2, GF2k, Poly, RationalFunctionField

# (module, function name) pairs wrapped in a span named "<module>.<name>"
SPAN_FUNCTIONS = [
    (forms, "orthogonalize"), (forms, "quadratic_data"),
    (exterior, "hodge"), (exterior, "hodge_identities"), (exterior, "compound_matrix"),
    (exterior, "pq"),
    (kalgebra, "build_module"), (kalgebra, "normalize_split"), (kalgebra, "wz_submodule"),
    (groups, "classify"), (groups, "generate_closure"), (groups, "eta"),
    (groups, "is_isometry"), (groups, "similitude_multiplier"), (groups, "sl2_decompose"),
    (oracle, "enumerate_isometries"), (oracle, "brute_pq_scalar"), (oracle, "direct_g"),
    (oracle, "closure_order_matches"),
    (cli, "parse_document"),
]
SPAN_METHODS = [
    (linalg.Matrix, "linalg.Matrix", ("det", "inverse", "__mul__", "rank",
                                      "kernel_basis", "solve")),
    (kalgebra.KModule, "kalgebra.KModule", ("k_coordinates",)),
]
CLASSIFY_CASES = ("defect3", "defect2_nonsplit", "defect2_split", "defect1", "defect0")
ENUM_METHODS = ("full_gl_scan", "backtracking")
COMMANDS = ("analyze", "classify", "verify", "decompose")
FIELD_KINDS = ("gf2", "gf2k", "f2t", "f2tu")

# result -> tag stored on the span, for metrics split by outcome
_TAGS = {
    "groups.classify": lambda report: report.case,
    "groups.generate_closure": len,
    "oracle.enumerate_isometries": lambda result: (result.method, result.order),
}


def span_names() -> list[str]:
    """The name of every span that `Tracer.instrument` creates."""
    names = [f"{module.__name__.split('.')[-1]}.{name}" for module, name in SPAN_FUNCTIONS]
    names += [f"{prefix}.{name}" for _, prefix, methods in SPAN_METHODS for name in methods]
    return names + [f"cli.{command}" for command in COMMANDS]


def _field_kind(field) -> str:
    if isinstance(field, RationalFunctionField):
        return "f2tu" if isinstance(field.base, RationalFunctionField) else "f2t"
    return "gf2k" if isinstance(field, GF2k) else "gf2"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.gcd_depth = 0
        self.gcd_seconds = 0.0
        self._undo: list = []

    # -- spans -------------------------------------------------------------
    def span(self, name: str, fn):
        tag_of = _TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            tag = "error"
            try:
                result = fn(*args, **kwargs)
                tag = None if tag_of is None else tag_of(result)
                return result
            finally:
                spans[index] = (name, start, perf_counter(), parent, self.op_id, tag)
                stack.pop()
        return wrapper

    def run_op(self, op_id: int, name: str, fn):
        """Run one op as a root span."""
        self.op_id = op_id
        return self.span(name, fn)()

    # -- patching ------------------------------------------------------------
    def _set(self, owner, attr, value):
        """Replace `owner.attr` (a module or class) or `owner[attr]` (a dict)."""
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def instrument(self, modules) -> None:
        """Wrap the entry points; `modules` are every loaded char2forms module."""
        for module, name in SPAN_FUNCTIONS:
            original = getattr(module, name)
            wrapped = self.span(f"{module.__name__.split('.')[-1]}.{name}", original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._set(mod, name, wrapped)
        for cls, prefix, names in SPAN_METHODS:
            for name in names:
                self._set(cls, name, self.span(f"{prefix}.{name}", cls.__dict__[name]))
        for command in COMMANDS:
            self._set(cli.COMMANDS, command,
                      self.span(f"cli.{command}", cli.COMMANDS[command]))
        self._count_fields()
        self._count_small_field()
        self._count_gcd()

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _count_fields(self) -> None:
        counts = self.counts
        for cls in (GF2, GF2k, RationalFunctionField):
            for op in ("mul", "add", "inv"):
                original = cls.__dict__[f"_{op}"]
                keys = {kind: f"fields.{op}.{kind}.calls" for kind in FIELD_KINDS}

                def wrapper(field, *args, _original=original, _keys=keys):
                    counts[_keys[_field_kind(field)]] += 1
                    return _original(field, *args)
                self._set(cls, f"_{op}", wrapper)

    def _count_small_field(self) -> None:
        counts = self.counts
        for name in ("mat_mul", "bilinear"):
            original = _smallfield.IntField.__dict__[name]
            key = f"oracle.IntField.{name}.calls"

            def wrapper(intf, *args, _original=original, _key=key):
                counts[_key] += 1
                return _original(intf, *args)
            self._set(_smallfield.IntField, name, wrapper)

    def _count_gcd(self) -> None:
        original = Poly.__dict__["gcd"]
        counts = self.counts

        def gcd(poly, other):
            # nested gcds (F2(t)(u) coefficients are F2(t) fractions) are
            # counted, but only the outermost call is timed
            counts["fields.poly_gcd.calls"] += 1
            self.gcd_depth += 1
            start = perf_counter()
            try:
                result = original(poly, other)
            finally:
                self.gcd_depth -= 1
                if self.gcd_depth == 0:
                    self.gcd_seconds += perf_counter() - start
            if result.degree > 0:
                counts["fields.poly_gcd.nontrivial"] += 1
            return result
        self._set(Poly, "gcd", gcd)

    # -- reduction -----------------------------------------------------------
    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same op list."""
        out = dict(self.counts)
        for name, _, _, _, _, tag in self.spans:
            out[f"span.{name}"] = out.get(f"span.{name}", 0) + 1
            if tag is not None and tag != "error":
                out[f"tag.{name}.{tag}"] = out.get(f"tag.{name}.{tag}", 0) + 1
        return out

    def _child_seconds(self) -> list[float]:
        """For every span, the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its direct children's."""
        child = self._child_seconds()
        return [end - start - child[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        """Every per-layer metric the trace can give, by name.

        The benchmark's declaration picks which of them are reported.
        """
        self_s = self.self_times()
        calls: Counter = Counter()
        self_by: dict[str, float] = defaultdict(float)
        closure_elements = 0
        for i, (name, start, end, parent, _, tag) in enumerate(self.spans):
            keys = [name]
            if name == "groups.classify" and tag in CLASSIFY_CASES:
                keys.append(f"{name}.{tag}")
            elif name == "oracle.enumerate_isometries" and tag != "error":
                keys.append(f"{name}.{tag[0]}")
            elif name == "groups.generate_closure" and tag != "error":
                closure_elements += tag
            for key in keys:
                calls[key] += 1
                self_by[key] += self_s[i]
        stems = span_names() + [f"groups.classify.{case}" for case in CLASSIFY_CASES] + \
            [f"oracle.enumerate_isometries.{method}" for method in ENUM_METHODS]
        values: dict[str, float] = {}
        for stem in stems:
            values[f"{stem}.calls"] = calls[stem]
            values[f"{stem}.self_ms"] = 1000.0 * self_by[stem]
        for op in ("mul", "add", "inv"):
            for kind in FIELD_KINDS:
                values[f"fields.{op}.{kind}.calls"] = self.counts[f"fields.{op}.{kind}.calls"]
        for name in ("mat_mul", "bilinear"):
            values[f"oracle.IntField.{name}.calls"] = self.counts[f"oracle.IntField.{name}.calls"]
        gcd_calls = self.counts["fields.poly_gcd.calls"]
        values["fields.poly_gcd.calls"] = gcd_calls
        values["fields.poly_gcd.ms"] = 1000.0 * self.gcd_seconds
        values["fields.poly_gcd.nontrivial_ratio"] = (
            self.counts["fields.poly_gcd.nontrivial"] / gcd_calls if gcd_calls else 0.0)
        values["groups.generate_closure.elements"] = closure_elements
        mat_mul = self.counts["oracle.IntField.mat_mul.calls"]
        values["groups.generate_closure.useful_ratio"] = (
            closure_elements / mat_mul if mat_mul else 0.0)
        values["cli.output_bytes"] = output_bytes
        return values

    def coverage(self) -> float:
        """Share of the root (op) spans' time that their direct children cover."""
        covered = total = 0.0
        child = self._child_seconds()
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent < 0:
                total += end - start
                covered += child[i]
        return covered / total if total else 0.0


def median_ms(seconds: list[float]) -> float:
    return 1000.0 * statistics.median(seconds) if seconds else 0.0
