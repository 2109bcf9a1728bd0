"""Seeded inputs, op lists and known answers for the three benchmark workloads.

A workload is a cycle of *rounds*.  Each round is a fixed list of op slots
(command x field x input class); only the inputs behind the scramble slots
change from round to round, drawn from the run's seeded generator.  Every op
carries the answer fixed by how its input was built, so its output is checked
without trusting the program:

* `finite`  - GF(2) and GF(4): `classify` (oracle, closure, `_smallfield`
  tables), plus `verify` and `analyze`.  No rational-function code runs.
* `ratfunc` - F2(t) and F2(t)(u): `analyze`, `classify`, `verify` (F2(t)
  only) and `decompose` on SL2 words over F2(t) and over K = k(t).  Fraction
  canonicalization dominates; the oracle enumerates nothing.
* `eta`     - library generator checks (acceptance criteria 9 and 10): build
  a generator, check membership, compute eta and compare with the paper's
  explicit matrix and the g-preservation identity.

A scrambled form is S^T N S for a normal form N, so its case, defect and
K-split are those of N.  Slots marked `probe=True` are known-defect probes:
`classify` on scrambled defect-3 forms over GF(4) and F2(t), which hits the
defect-3 normalizer bug (ROADMAP item 1) on most inputs.  They run in every
round and their verdicts are checked, but they are neither timed nor counted
in attempted/failed: run.py reports their failures on a line of their own
and as the per-layer `probe.failed`.  So every counted op passes, and fixing
the bug changes the probe count, not the measured latency.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

from char2forms import cli
from char2forms import groups as G
from char2forms.exterior import hodge
from char2forms.fields import GF2, GF2k, RationalFunctionField
from char2forms.forms import BilinearForm
from char2forms.kalgebra import KAlgebra, build_module, normalize_split, wz_submodule
from char2forms.linalg import Matrix

DEFECT = {"defect3": 3, "defect2_nonsplit": 2, "defect2_split": 2,
          "defect1": 1, "defect0": 0}
# order of O(V,h) for the identity form over GF(q): SL2(q) x q^3
ORACLE_ORDER = {2: 48, 4: 3840}


@dataclass
class Op:
    """One closed-loop request: run it, then check its output.

    `run` returns (exit code, stdout text); `check` returns the problems found
    in that output (an empty list means the verdict is right).
    """

    slot: str
    command: str
    probe: bool  # a known-defect probe: checked, not timed or counted
    run: Callable[[], tuple[int, str]]
    check: Callable[[int, str], list[str]]
    key: Optional[tuple] = None  # identical keys must give identical stdout


class Fields:
    def __init__(self):
        self.gf2 = GF2()
        self.gf4 = GF2k(2, 0b111)
        self.f2t = RationalFunctionField(self.gf2, "t")
        self.f2tu = RationalFunctionField(self.f2t, "u")


def _render(field, gram: Matrix) -> str:
    rows = [" ".join(str(gram[i, j]) for j in range(gram.ncols))
            for i in range(gram.nrows)]
    return f"field: {field.describe()}\ngram:\n" + "\n".join(rows) + "\n"


def _checked_text(matrix: Matrix, render: Callable[[], str]) -> str:
    # the document must parse back to exactly the generated matrix
    text = render()
    doc = cli.parse_document("<generated>", text)
    if doc.matrix != matrix:
        raise RuntimeError(f"generated document does not round-trip:\n{text}")
    return text


def _uniform_gl4(field, rng: random.Random) -> Matrix:
    elements = list(field.elements())
    while True:
        s = Matrix(field, [[rng.choice(elements) for _ in range(4)] for _ in range(4)])
        if not s.det().is_zero():
            return s


# the twelve (shear column j, rows a, b) patterns of a one-column shear
SHEARS = [(j, a, b) for j in range(4) for a in range(4) for b in range(a + 1, 4)
          if j not in (a, b)]


def _permuted_shear(field, entries, shear: tuple, rng: random.Random) -> Matrix:
    """P (I + x E_aj + y E_bj): a permutation times a one-column shear.

    Every entry is 0, 1 or one of `entries`.  The caller cycles `shear`
    through SHEARS, because the cost of an op depends mostly on which column
    is sheared: cycling gives every seed the same mix of cheap and dear
    patterns, while P and the entries still vary with the seed.
    """
    j, a, b = shear
    perm = list(range(4))
    rng.shuffle(perm)
    rows = [[field.one() if r == c else field.zero() for c in range(4)] for r in range(4)]
    rows[a][j] = rng.choice(entries)
    rows[b][j] = rng.choice(entries)
    p = Matrix(field, [[field.one() if perm[r] == c else field.zero() for c in range(4)]
                       for r in range(4)])
    return p * Matrix(field, rows)


class Workload:
    """Fixed structures built once per run, and a generator of rounds."""

    name = ""
    trace_rounds = 1

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.fields = Fields()
        self._doc_count = 0

    def round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    # -- CLI ops ----------------------------------------------------------
    def _write(self, text: str) -> str:
        self._doc_count += 1
        path = os.path.join(self.workdir, f"doc{self._doc_count:05d}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def cli_op(self, slot: str, command: str, path: str, text: str,
               expect: dict, probe: bool = False) -> Op:
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, path])
            return code, out.getvalue()

        return Op(slot=slot, command=command, probe=probe, run=run,
                  check=lambda code, out: check_cli(command, expect, out),
                  key=(command, text))

    def form_doc(self, field, gram: Matrix) -> tuple[str, str]:
        text = _checked_text(gram, lambda: _render(field, gram))
        return self._write(text), text


def _lines(out: str) -> dict[str, str]:
    items = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            items.setdefault(key, value)
    return items


_ORACLE_RE = re.compile(r"^oracle order \((full_gl_scan|backtracking)\)$")


def check_cli(command: str, expect: dict, out: str) -> list[str]:
    """Compare a CLI report with the answer fixed by the input's construction."""
    problems = []
    items = _lines(out)
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    for line in checks:
        if not line.endswith(": PASS"):
            problems.append(f"check line not PASS: {line}")
    if command in ("analyze", "classify"):
        if items.get("defect") != str(DEFECT[expect["case"]]):
            problems.append(f"defect {items.get('defect')!r}, expected "
                            f"{DEFECT[expect['case']]}")
    if command == "analyze":
        split = items.get("K algebra", "").startswith("split")
        if split != expect["split"]:
            problems.append(f"K algebra line {items.get('K algebra')!r}")
    if command == "classify":
        if items.get("case") != expect["case"]:
            problems.append(f"case {items.get('case')!r}, expected {expect['case']}")
        if items.get("K split") != ("yes" if expect["split"] else "no"):
            problems.append(f"K split {items.get('K split')!r}")
        order = expect.get("order")
        if order is not None:
            oracle = [v for k, v in items.items() if _ORACLE_RE.match(k)]
            for key in ("predicted order", "generated order"):
                if items.get(key) != str(order):
                    problems.append(f"{key} {items.get(key)!r}, expected {order}")
            if oracle != [str(order)]:
                problems.append(f"oracle order {oracle}, expected {order}")
            if len(checks) != 2:
                problems.append(f"expected 2 oracle check lines, got {len(checks)}")
    if command == "verify":
        if not checks or items.get("result") != "all checks passed":
            problems.append(f"verify result {items.get('result')!r}")
    if command == "decompose" and checks != ["check word reproduces input: PASS"]:
        problems.append(f"decompose checks {checks}")
    return problems


# ---------------------------------------------------------------------------
# finite: GF(2) and GF(4)

class Finite(Workload):
    name = "finite"

    def __init__(self, workdir: str):
        super().__init__(workdir)
        f = self.fields
        self.normal = {"gf2": (f.gf2, Matrix.identity(f.gf2, 4)),
                       "gf4": (f.gf4, Matrix.identity(f.gf4, 4))}
        self.normal_docs = {k: self.form_doc(field, gram)
                            for k, (field, gram) in self.normal.items()}

    def _expect(self, tag: str) -> dict:
        return {"case": "defect3", "split": True,
                "order": ORACLE_ORDER[self.normal[tag][0].order]}

    def _scramble(self, tag: str, rng) -> tuple[str, str]:
        field, gram = self.normal[tag]
        s = _uniform_gl4(field, rng)
        return self.form_doc(field, s.transpose() * gram * s)

    def round(self, rng):
        e2, e4 = self._expect("gf2"), self._expect("gf4")
        a2, b2, s4 = self._scramble("gf2", rng), self._scramble("gf2", rng), \
            self._scramble("gf4", rng)
        op = self.cli_op
        return [
            op("classify/gf2/normal", "classify", *self.normal_docs["gf2"], e2),
            op("classify/gf2/scramble", "classify", *a2, e2),
            op("classify/gf2/scramble2", "classify", *b2, e2),
            op("classify/gf4/normal", "classify", *self.normal_docs["gf4"], e4),
            op("classify/gf4/scramble", "classify", *s4, e4, probe=True),
            op("verify/gf2/scramble", "verify", *a2, e2),
            op("verify/gf4/scramble", "verify", *s4, e4),
            op("analyze/gf2/scramble", "analyze", *b2, e2),
            op("analyze/gf4/scramble", "analyze", *s4, e4),
        ]


# ---------------------------------------------------------------------------
# ratfunc: F2(t) and F2(t)(u)

def _small_fractions(f2t) -> list:
    """The nonzero elements of F2(t) of degree <= 1 other than 1."""
    return [f2t.parse(s) for s in ("t", "t+1", "1/t", "1/(t+1)", "t/(t+1)", "(t+1)/t")]


class Ratfunc(Workload):
    name = "ratfunc"

    def __init__(self, workdir: str):
        super().__init__(workdir)
        f = self.fields
        t = f.f2t.generator
        tu, uu = f.f2tu.parse("t"), f.f2tu.parse("u")
        self.cases = [
            ("f2t", "defect3", f.f2t, Matrix.identity(f.f2t, 4)),
            ("f2t", "defect2_nonsplit", f.f2t, G.h1_gram(f.f2t, t)),
            ("f2t", "defect2_split", f.f2t, G.h2_gram(f.f2t, t)),
            ("f2tu", "defect2_nonsplit", f.f2tu, G.h1_gram(f.f2tu, tu)),
            ("f2tu", "defect1", f.f2tu, G.defect1_gram(f.f2tu, tu, uu)),
            ("f2tu", "defect0", f.f2tu, G.defect0_gram(f.f2tu, tu, uu, tu)),
        ]
        self.normal_docs = [self.form_doc(field, gram) for _, _, field, gram in self.cases]
        # K splits exactly when the discriminant is a square
        self.expects = [{"case": case, "split": gram.det().is_square()}
                        for _, case, _, gram in self.cases]
        self.entries = {"f2t": _small_fractions(f.f2t), "f2tu": [f.f2tu.one()]}
        self.k = KAlgebra(f.f2t, t)
        self.shear_count = None

    def _word(self, ring, sample, rng) -> Matrix:
        mat = Matrix.identity(ring, 2)
        for _ in range(rng.randrange(3, 7)):
            x = sample()
            mat = mat * (G.l2(ring, x) if rng.randrange(2) else G.u2(ring, x))
        return mat

    def _decompose_doc(self, header: str, ring, mat: Matrix) -> tuple[str, str]:
        def render():
            rows = [" ".join(str(mat[i, j]) for j in range(2)) for i in range(2)]
            return header + "matrix:\n" + "\n".join(rows) + "\n"
        text = _checked_text(mat, render)
        return self._write(text), text

    def round(self, rng):
        ops = []
        op = self.cli_op
        if self.shear_count is None:
            self.shear_count = rng.randrange(len(SHEARS))
        for (tag, case, field, gram), normal, expect in zip(self.cases, self.normal_docs,
                                                            self.expects):
            self.shear_count += 1
            shear = SHEARS[self.shear_count % len(SHEARS)]
            s = _permuted_shear(field, self.entries[tag], shear, rng)
            scrambled = self.form_doc(field, s.transpose() * gram * s)
            base = f"{tag}/{case}"
            ops.append(op(f"analyze/{base}/normal", "analyze", *normal, expect))
            ops.append(op(f"classify/{base}/normal", "classify", *normal, expect))
            ops.append(op(f"analyze/{base}/scramble", "analyze", *scrambled, expect))
            ops.append(op(f"classify/{base}/scramble", "classify", *scrambled, expect,
                          probe=case == "defect3"))
            if tag == "f2t":
                ops.append(op(f"verify/{base}/scramble", "verify", *scrambled, expect))
        # 7 steps per round, coprime to 12: each case meets every pattern in turn
        self.shear_count += 1
        f2t, k = self.fields.f2t, self.k
        small = self.entries["f2t"]
        over_f = self._word(f2t, lambda: rng.choice(small), rng)
        over_k = self._word(k, lambda: k.element(rng.choice(small + [f2t.zero()]),
                                                 rng.choice(small)), rng)
        ops.append(op("decompose/f2t", "decompose",
                      *self._decompose_doc(f"field: {f2t.describe()}\n", f2t, over_f),
                      {}))
        ops.append(op("decompose/k", "decompose",
                      *self._decompose_doc(f"field: {f2t.describe()}\nring: k(t)\n",
                                           k, over_k), {}))
        return ops


# ---------------------------------------------------------------------------
# eta: library generator checks

class Eta(Workload):
    name = "eta"
    trace_rounds = 8

    def __init__(self, workdir: str):
        super().__init__(workdir)
        f = self.fields
        t = f.f2t.generator
        tu, uu = f.f2tu.parse("t"), f.f2tu.parse("u")
        self.t, self.tu, self.uu = t, tu, uu
        self.h1 = BilinearForm(G.h1_gram(f.f2t, t))
        self.module1 = build_module(hodge(self.h1))
        self.h2 = BilinearForm(G.h2_gram(f.f2t, t))
        self.module2 = normalize_split(build_module(hodge(self.h2)))
        wz = wz_submodule(self.module2)[0]
        self.wz_order = [wz[2], wz[1], wz[0]]  # (v1^v4)z, (v1^v3)z, (v1^v2)z
        self.form1 = BilinearForm(G.defect1_gram(f.f2tu, tu, uu))
        self.module4 = G.defect1_module(f.f2tu, tu, uu)
        self.c_change, self.w_gram = G.defect1_w_basis(self.module4)
        self.c_inv = self.c_change.inverse()
        self.v_basis = G.defect1_v_basis(f.f2tu)
        self.v_inv = self.v_basis.inverse()
        self.form0 = BilinearForm(G.defect0_gram(f.f2tu, tu, uu, tu))
        self.module0 = build_module(hodge(self.form0))
        self.f2t_small = [f.f2t.zero(), f.f2t.one()] + _small_fractions(f.f2t)
        self.f2tu_coeffs = [f.f2tu.parse(s) for s in ("0", "1", "t", "t+1")]

    def _f2t_element(self, rng):
        """0, 1 or a nonzero fraction of degree <= 1."""
        return rng.choice(self.f2t_small)

    def _f2tu_poly(self, rng):
        """c0 + c1 u with c0, c1 in {0, 1, t, t+1}; c1 = 0 half of the time.

        Polynomial samples, as in the acceptance suites: nested random
        fractions made single generator checks take up to 8 s.
        """
        c0 = rng.choice(self.f2tu_coeffs)
        return c0 + rng.choice(self.f2tu_coeffs) * self.uu if rng.randrange(2) else c0

    def _op(self, slot: str, body) -> Op:
        # body() yields one line per mismatch; the op's "stdout" is those lines
        return Op(slot=slot, command="eta", probe=False,
                  run=lambda: (0, "\n".join(body())), check=_eta_check)

    def h1_op(self, rng, letter: str) -> Op:
        f2t, x = self.fields.f2t, self._f2t_element(rng)
        make, hat = ((G.h1_isometry_l, G.hat_l) if letter == "L"
                     else (G.h1_isometry_u, G.hat_u))

        def body():
            gen = make(f2t, x)
            if not G.is_isometry(self.h1, gen):
                yield "generator is not an isometry of H1"
            img = G.eta(self.module1, gen)
            algebra = self.module1.algebra
            if img != hat(algebra, algebra.coerce(x)):
                yield f"eta(diag(1, hat {letter}_x)) != hat {letter}_x"
            if not G.preserves_g(self.module1, img):
                yield "eta image does not preserve g"
        return self._op(f"eta/h1/{letter}", body)

    def h2_op(self, rng) -> Op:
        f2t = self.fields.f2t
        a, b, c = (self._f2t_element(rng) for _ in range(3))

        def body():
            gen = G.h2_isometry(f2t, self.t, a, b, c)
            if not G.is_isometry(self.h2, gen):
                yield "generator is not an isometry of H2"
            if not G.preserves_g(self.module2, G.eta(self.module2, gen)):
                yield "eta image does not preserve g"
            if G.eta_o(self.module2, gen, wz_basis=self.wz_order) != \
                    G.h2_eta_o_matrix(f2t, self.t, a, b, c):
                yield "eta on Wz differs from the explicit H2 matrix"
        return self._op("eta/h2", body)

    def defect1_op(self, rng) -> Op:
        f2tu, x = self.fields.f2tu, self._f2tu_poly(rng)

        def body():
            ux = G.defect1_isometry(f2tu, x)
            if not G.is_isometry(self.form1, ux):
                yield "U_x is not an isometry"
            img = self.c_inv * G.eta(self.module4, self.v_inv * ux * self.v_basis) \
                * self.c_change
            algebra = self.module4.algebra
            if img != G.hat_u(algebra, algebra.coerce(x)):
                yield "eta(U_x) != hat U_x in the w-basis"
            if img.transpose() * self.w_gram * img != self.w_gram:
                yield "eta(U_x) does not preserve g"
        return self._op("eta/defect1", body)

    def defect0_op(self, rng) -> Op:
        f2tu = self.fields.f2tu
        while True:
            xs = [self._f2tu_poly(rng) for _ in range(4)]
            if not all(x.is_zero() for x in xs):
                break

        def body():
            mat, mult = G.defect0_split_element(f2tu, self.tu, self.uu, *xs)
            expected = (xs[0] * xs[0] + xs[1] * xs[1] * self.tu + xs[2] * xs[2] * self.uu
                        + xs[3] * xs[3] * (self.tu * self.uu))
            if mult != expected or G.similitude_multiplier(self.form0, mat) != expected:
                yield "similitude multiplier differs from x1^2 + x2^2 a + x3^2 c + x4^2 ac"
            if mat * mat != Matrix.identity(f2tu, 4) * expected:
                yield "X^2 != multiplier * id"
            if not G.scales_g(self.module0, G.eta(self.module0, mat), expected * expected):
                yield "eta image does not scale g by the squared multiplier"
        return self._op("eta/defect0", body)

    def round(self, rng):
        return [self.h1_op(rng, "L"), self.h1_op(rng, "U"), self.h2_op(rng),
                self.defect1_op(rng), self.defect0_op(rng)]


def _eta_check(code: int, out: str) -> list[str]:
    return [line for line in out.splitlines() if line]


WORKLOADS = {w.name: w for w in (Finite, Ratfunc, Eta)}
