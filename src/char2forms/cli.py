"""Command-line front end: parse a form description, run analyses, print reports.

Input documents are small line-oriented files:

    # comment lines and blank lines are ignored
    field: ratfunc(gf2,t)
    gram:
    t 0 0 0
    0 1 0 0
    0 0 1 0
    0 0 0 1

``decompose`` reads a 2x2 ``matrix:`` block instead (entries may use ``j``
when ``ring: k(<delta>)`` selects the quadratic algebra).  Reports are plain
text with a stable section order; ``--machine`` switches to flat key=value
lines.  Exit codes: 0 success, 1 verification failure (a failed check, or a
``CheckFailed`` from an internal check), 2 bad input or any other library error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import random
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import oracle
from .errors import Char2FormsError, CheckFailed
from .exterior import hodge, hodge_identities, klein_scalar, pq
from .fields import Field, FieldError, ParseError, parse_expression, parse_field
from .forms import BilinearForm, FormError, quadratic_data, discriminant_class
from .groups import (MAX_VERIFIED_ORDER, NotUnimodular, classify, generate_closure,
                     sl2_decompose)
from .kalgebra import KAlgebra, KAlgebraError, build_module, normalize_split, wz_submodule
from .linalg import Matrix, Vector


class CliInputError(Char2FormsError):
    pass


@dataclass
class InputDocument:
    field: Field
    matrix: Matrix
    ring_spec: str
    k_delta: Optional[object]
    path: str


def parse_document(path: str, text: str) -> InputDocument:
    field: Optional[Field] = None
    ring_spec = "field"
    k_delta_text: Optional[str] = None
    rows: list[list[str]] = []
    row_lines: list[int] = []
    in_matrix = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not in_matrix:
            key, _, value = line.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if key == "field":
                try:
                    field = parse_field(value)
                except FieldError as exc:
                    raise CliInputError(f"{path}:{lineno}: {exc}") from None
            elif key == "ring":
                if value == "field":
                    ring_spec = "field"
                elif value.startswith("k(") and value.endswith(")"):
                    ring_spec = "k"
                    k_delta_text = value[2:-1]
                else:
                    raise CliInputError(f"{path}:{lineno}: bad ring spec {value!r}")
            elif key in ("gram", "matrix"):
                in_matrix = True
            else:
                raise CliInputError(f"{path}:{lineno}: unknown key {key!r}")
        else:
            rows.append(line.split())
            row_lines.append(lineno)
    if field is None:
        raise CliInputError(f"{path}: missing 'field:' line")
    if not rows:
        raise CliInputError(f"{path}: missing 'gram:'/'matrix:' block")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise CliInputError(f"{path}: ragged matrix rows")

    k_delta = None
    ring = field
    if ring_spec == "k":
        try:
            k_delta = field.parse(k_delta_text)
            ring = KAlgebra(field, k_delta)
        except (FieldError, KAlgebraError) as exc:
            raise CliInputError(f"{path}: bad K delta: {exc}") from None

    # `ring.parse` would rebuild the variable map of the tower for every entry;
    # each distinct entry is parsed once, at its first occurrence in row order
    variables = ring.variable_elements()
    parsed = {}
    entries = []
    for line_no, row in zip(row_lines, rows):
        out_row = []
        for col, token in enumerate(row):
            if token not in parsed:
                try:
                    parsed[token] = parse_expression(token, variables, ring)
                except ParseError as exc:
                    pos = exc.position if exc.position >= 0 else 0
                    # quote a long entry by its head and length, not in full
                    shown = (repr(token) if len(token) <= 40
                             else f"{token[:40]!r}..., {len(token)} characters")
                    raise CliInputError(
                        f"{path}:{line_no}: entry {col + 1} ({shown}): {exc} "
                        f"(column {pos + 1} of entry)") from None
                except FieldError as exc:
                    raise CliInputError(f"{path}:{line_no}: entry {col + 1}: {exc}") from None
            out_row.append(parsed[token])
        entries.append(out_row)
    matrix = Matrix(ring, entries)
    return InputDocument(field=field, matrix=matrix, ring_spec=ring_spec,
                         k_delta=k_delta, path=path)


class Report:
    """Ordered report items; rendered as text sections or key=value lines."""

    def __init__(self, machine: bool):
        self.machine = machine
        self.lines: list[str] = []
        self.failures = 0

    def item(self, key: str, value) -> None:
        if self.machine:
            self.lines.append(f"{key}={value}")
        else:
            self.lines.append(f"{key}: {value}")

    def block(self, key: str, matrix) -> None:
        text_rows = str(matrix).split("\n")
        if self.machine:
            for i, row in enumerate(text_rows):
                self.lines.append(f"{key}.{i}={row}")
        else:
            self.lines.append(f"{key}:")
            self.lines.extend("  " + row for row in text_rows)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        if not passed:
            self.failures += 1
        suffix = "" if passed or not detail else f" ({detail})"
        if self.machine:
            key = name.replace(" ", "_").replace("=", "-eq-")
            self.lines.append(f"check.{key}={status.lower()}{suffix}")
        else:
            self.lines.append(f"check {name}: {status}{suffix}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _require_symmetric(doc: InputDocument) -> BilinearForm:
    if doc.ring_spec != "field":
        raise CliInputError(f"{doc.path}: this command needs a form over the field")
    try:
        return BilinearForm(doc.matrix)
    except FormError as exc:
        raise CliInputError(f"{doc.path}: {exc}") from None


# analyze and verify build Lambda^{n/2} V, with C(n, n/2) basis vectors, of an
# even-dimensional form: 252 at n = 10, 924 at n = 12, where on the GF(2)
# identity analyze took 3.3 s and verify ran past 120 s
MAX_EVEN_DIMENSION = 10


def _require_middle_power_bound(doc: InputDocument, form: BilinearForm) -> None:
    n = form.dim
    if n > MAX_EVEN_DIMENSION:
        raise CliInputError(
            f"{doc.path}: dimension {n} is above {MAX_EVEN_DIMENSION}: Lambda^{n // 2} "
            f"would have {math.comb(n, n // 2)} basis vectors")


def _volume(doc: InputDocument, text: Optional[str]):
    if text is None:
        return None
    try:
        return doc.field.parse(text)
    except FieldError as exc:
        raise CliInputError(f"bad --volume-scale: {exc}") from None


def cmd_analyze(doc: InputDocument, args, report: Report) -> int:
    form = _require_symmetric(doc)
    report.item("command", "analyze")
    report.item("field", doc.field.describe())
    report.item("dimension", form.dim)
    report.item("alternating", _yesno(form.is_alternating()))
    degenerate = form.is_degenerate()
    report.item("degenerate", _yesno(degenerate))
    basis, diag = form.orthogonal()
    report.block("orthogonal basis columns", Matrix.from_columns(doc.field, basis))
    report.item("diagonal", " ".join(str(d) for d in diag))
    if degenerate:
        report.item("note", "degenerate form: defect analysis skipped")
        return 0
    qd = quadratic_data(form)
    report.item("range dimension", qd.range_dimension)
    report.item("defect", qd.defect)
    if qd.kernel:
        report.block("kernel of q (rows)",
                     Matrix.from_columns(doc.field, qd.kernel).transpose())
    else:
        report.item("kernel of q", "trivial")
    rep, is_sq = discriminant_class(form)
    report.item("discriminant", f"{rep} ({'square' if is_sq else 'non-square'})")
    if form.dim % 2 == 0:
        _require_middle_power_bound(doc, form)
        scale = _volume(doc, args.volume_scale)
        diag_form = BilinearForm(Matrix.diagonal(doc.field, diag))
        data = hodge(diag_form, scale)
        report.item("volume scale", data.volume_scale)
        report.item("delta", data.delta)
        module = build_module(data)
        report.item("K algebra",
                    "split (local ring with nilpotents)" if module.split
                    else "inseparable quadratic field extension (non-split)")
        label = " ".join("(" + ",".join(str(i) for i in s) + ")"
                         for s in module.basis_sets)
        report.block(f"g gram over K, basis {label}", module.g_gram)
    return 0


def cmd_classify(doc: InputDocument, args, report: Report) -> int:
    form = _require_symmetric(doc)
    report.item("command", "classify")
    report.item("field", doc.field.describe())
    rep = classify(form)
    report.item("defect", rep.defect)
    report.item("K split", _yesno(rep.k_split))
    report.item("case", rep.case)
    report.item("structure", rep.description)
    report.item("multipliers", rep.multipliers)
    report.block("normal gram", rep.normal_gram)
    report.item("scale", rep.scale)
    report.block("normalizing basis columns", rep.normalizer)
    # only the closure below needs the generators in the input coordinates
    report.item("isometry generators",
                sum(g.multiplier.is_one() for g in rep.normal_generators))
    for g in rep.normal_generators:
        if not g.multiplier.is_one():
            report.item("similitude multiplier", g.multiplier)
    if doc.field.order is not None:
        q = doc.field.order
        predicted = rep.predicted_order(q)
        report.item("predicted order", predicted)
        if predicted > MAX_VERIFIED_ORDER:
            report.item("note", f"predicted order not machine-verified: closure and "
                                f"oracle run only up to order {MAX_VERIFIED_ORDER}")
        else:
            result = oracle.enumerate_isometries(form)
            closure = generate_closure([g.matrix for g in rep.generators
                                        if g.multiplier.is_one()], within=result)
            report.item("generated order", len(closure))
            report.item(f"oracle order ({result.method})", result.order)
            report.check("oracle agrees with generated group",
                         oracle.closure_order_matches(result, closure))
            report.check("oracle agrees with predicted order", result.order == predicted)
    for note in rep.notes:
        report.item("note", note)
    return 1 if report.failures else 0


def cmd_verify(doc: InputDocument, args, report: Report) -> int:
    form = _require_symmetric(doc)
    report.item("command", "verify")
    report.item("field", doc.field.describe())
    if form.dim % 2:
        raise CliInputError(f"{doc.path}: verify needs an even-dimensional form")
    _require_middle_power_bound(doc, form)
    if form.is_degenerate():
        raise CliInputError(f"{doc.path}: verify needs a non-degenerate form")
    scale = _volume(doc, args.volume_scale)
    rng = random.Random(args.seed)

    data = hodge(form, scale)
    if args.corrupt_j:
        corrupted = data.j_matrix + Matrix.identity(doc.field, data.space.dim)
        data = dataclasses.replace(data, j_matrix=corrupted)
    report.item("volume scale", data.volume_scale)
    report.item("delta", data.delta)
    for name, ok, detail in hodge_identities(data):
        report.check(name, ok, detail)
    report.check("Pf symmetric", data.pf_gram.is_symmetric())
    is_zero = data.pf_gram.ring._is_zero
    report.check("Pf alternating (zero diagonal)",
                 all(is_zero(row[i]) for i, row in enumerate(data.pf_gram.rows)))
    report.check("Lh symmetric", data.lh_gram.is_symmetric())
    report.check("Lh non-degenerate", not data.lh_gram.det().is_zero())

    if form.dim == 4:
        _verify_pq(doc, data, rng, report)

    # module checks run over an orthogonal basis
    _, diag = form.orthogonal()
    diag_form = BilinearForm(Matrix.diagonal(doc.field, diag))
    module = build_module(hodge(diag_form, scale))
    report.check("g two-formula agreement", _g_formulas_agree(module))
    report.item("K split", _yesno(module.split))
    if module.split:
        module = normalize_split(module)
        z = module.z()
        report.check("z^2 = 0", (z * z).is_zero())
        # wz_submodule requires that g vanishes on Wz, that rho_z is the
        # identity and that j fixes Wz pointwise; it returns only if all hold
        try:
            wz_submodule(module)
        except CheckFailed as exc:
            report.check("split module structure", False, str(exc))
        else:
            for name in ("g vanishes on Wz x Wz", "rho_z bijective", "j fixes Wz pointwise"):
                report.check(name, True)

    failed = report.failures
    report.item("result", "all checks passed" if not failed
                else f"{failed} check(s) failed")
    return 1 if failed else 0


def _g_formulas_agree(module) -> bool:
    """Whether g(u, v) = Lh(u, v) + Lh(u, v*j) * j^(-1) equals
    Lh(u, v) + j * Pf(u, v) on every pair of wedge basis vectors.  The
    pairings of basis vectors are matrix entries, and j^2 = delta with j a
    unit, so the two formulas agree exactly when Lh J = delta Pf as matrices
    over F (`oracle.direct_g` evaluates one pair over K)."""
    data = module.hodge
    return data.lh_gram * data.j_matrix == data.pf_gram * module.algebra.delta


def _verify_pq(doc: InputDocument, data, rng, report: Report) -> None:
    field = doc.field
    dim = data.space.dim
    basis = [Vector.unit(field, dim, i) for i in range(dim)]
    # the polar-form comparison is stated at volume scale 1; the polar value
    # of each pair i <= j is compared with both Pf[i][j] and Pf[j][i]
    pf = (data.pf_gram * data.volume_scale.inverse()).rows
    values = [pq(x) for x in basis]
    polar_ok = all(
        pf[i][j] == pf[j][i] == (pq(x + basis[j]) + values[i] + values[j]).payload
        for i, x in enumerate(basis) for j in range(i, dim))
    report.check("Pq polar form = Pf (scale 1)", polar_ok)
    if field.order is not None and field.order <= oracle.KLEIN_EXHAUSTIVE_ORDER:
        s = oracle.brute_pq_scalar(field)
        report.check(f"Pq(X)^2 = s*det(altX), exhaustive, s = {s}", True)
    else:
        draws = (tuple(field.random_element(rng).payload for _ in range(6))
                 for _ in range(50))
        s, ok = klein_scalar(field, draws)
        report.check(f"Pq(X)^2 = s*det(altX), sampled, s = {s}", ok)


def cmd_decompose(doc: InputDocument, args, report: Report) -> int:
    mat = doc.matrix
    report.item("command", "decompose")
    if doc.ring_spec == "k":
        report.item("ring", f"k({doc.k_delta}) over {doc.field.describe()}")
    else:
        report.item("ring", doc.field.describe())
    if mat.nrows != 2 or mat.ncols != 2:
        raise CliInputError(f"{doc.path}: decompose needs a 2x2 matrix")
    report.block("input", mat)
    try:
        word = sl2_decompose(mat)
    except NotUnimodular as exc:
        raise CliInputError(f"{doc.path}: {exc}") from None
    report.item("word", str(word))
    product = word.evaluate()
    report.block("product", product)
    report.check("word reproduces input", product == mat)
    return 1 if report.failures else 0


COMMANDS = {
    "analyze": cmd_analyze,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parse_args keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="char2forms",
        description="exact analysis of non-alternating symmetric bilinear "
                    "forms in characteristic two")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("input", help="input document path")
    parser.add_argument("--volume-scale", default=None, metavar="ELT",
                        help="value of the volume identification (default 1)")
    parser.add_argument("--machine", action="store_true",
                        help="emit flat key=value output")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks over fields above GF(8)")
    parser.add_argument("--corrupt-j", action="store_true",
                        help="self-test hook: corrupt J before verifying")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse_document(args.input, text)
        report = Report(machine=args.machine)
        code = COMMANDS[args.command](doc, args, report)
    except Char2FormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CheckFailed) else 2
    sys.stdout.write(report.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
