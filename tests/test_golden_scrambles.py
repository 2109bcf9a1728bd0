"""Golden `analyze`, `classify --machine` and `verify` output on congruence
scrambles.

Each 4x4 `tests/golden/<name>.txt` is S^T N S for a normal form N over F2(t)
or F2(t)(u) and S a product of two seeded permuted shears (the construction
of `bench/workloads.py`).  The documents cover defects 0-3, a degenerate form
(its radical vector comes last in the orthogonal basis) and a non-degenerate
form whose orthogonalization takes the hyperbolic repair step.
`defect0_nonsplit_f2tu` scrambles N = defect0_gram(F, t, u, t+1), where
a + b = 1 is a square and a != b, so `classify` on N takes the non-split
sub-case of defect 0.  Most scrambles of N report the sub-case `none`,
because the sub-case is read off the one orthogonal basis `classify` finds;
its seed (43, shear entries t, u, t+1, u+1) is the first that keeps
`nonsplit`.  `defect0_split_f2tu` scrambles N = defect0_gram(F, t, u, t),
where a = b, so `classify` on N takes the split sub-case; its seed (22, same
shear entries) is the first that keeps `split`.  With `defect0_f2tu`, whose
`classify` reports the sub-case `none`, every (case, sub-case) row of
`groups.CASES` is pinned.  The expected stdout is pinned byte for byte in
`<name>.analyze`, `<name>.classify-machine` and `<name>.verify`.

`dim6_f2t` is S^T diag(t,1,t+1,1,t,1) S over F2(t), with S a product of three
seeded 6x6 permuted shears.  Its Pf and J are 20x20; `classify` refuses it,
because the classification covers dimension 4.

`dense_defect2_f2tu` is a defect-2 split form over F2(t)(u) with dense
entries, not built by that construction.  Its `classify` takes about 2 s,
because the generators are checked in the normal-form coordinates and moved
to the input coordinates, where their entries are large nested fractions,
only for the closure over a finite field.
"""

import dataclasses
from pathlib import Path

import pytest

from char2forms import cli, forms
from char2forms.cli import main
from char2forms.exterior import hodge
from char2forms.forms import BilinearForm
from char2forms.kalgebra import build_module
from char2forms.linalg import Matrix

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(p.stem for p in GOLDEN.glob("*.txt"))
JOBS = {"analyze": ["analyze"], "classify-machine": ["classify", "--machine"],
        "verify": ["verify"]}
# the jobs that do not exit 0, with their stderr ({path} is the document)
FAILS = {("degenerate_f2t", "classify-machine"):
         (2, "error: classification needs a non-degenerate form\n"),
         ("degenerate_f2t", "verify"):
         (2, "error: {path}: verify needs a non-degenerate form\n"),
         ("dim6_f2t", "classify-machine"):
         (2, "error: the classification covers dimension 4\n")}


def test_golden_documents_cover_the_cases():
    assert NAMES == ["defect0_f2tu", "defect0_nonsplit_f2tu", "defect0_split_f2tu",
                     "defect1_f2tu", "defect2_nonsplit_f2t", "defect2_nonsplit_f2tu",
                     "defect2_split_f2t", "defect3_f2t", "degenerate_f2t",
                     "dense_defect2_f2tu", "dim6_f2t", "repair_f2tu"]


@pytest.mark.parametrize("name,job", [(name, job) for name in NAMES for job in sorted(JOBS)])
def test_golden_output(name, job, capsys):
    path = str(GOLDEN / f"{name}.txt")
    code = main(JOBS[job] + [path])
    captured = capsys.readouterr()
    expected_code, expected_err = FAILS.get((name, job), (0, ""))
    assert (code, captured.err) == (expected_code, expected_err.format(path=path))
    expected = GOLDEN / f"{name}.{job}"
    assert captured.out == (expected.read_text() if expected_code == 0 else "")


def test_repair_document_takes_the_repair_step(monkeypatch, capsys):
    calls = []

    def counting(form, space):
        calls.append(len(space))
        return real(form, space)

    real = forms._hyperbolic_pair
    monkeypatch.setattr(forms, "_hyperbolic_pair", counting)
    assert main(["analyze", str(GOLDEN / "repair_f2tu.txt")]) == 0
    capsys.readouterr()
    assert calls



def test_verify_of_a_split_form_takes_the_compound_of_its_diagonal_gram_once(
        monkeypatch, capsys):
    # verify builds the module over the diagonal Gram D and rescales its
    # volume; the rescaled Hodge data reads Lambda^2 D as D keeps it
    calls = []
    real = Matrix.minors

    def counting(m, *args):
        calls.append(m)
        return real(m, *args)
    monkeypatch.setattr(Matrix, "minors", counting)
    assert main(["verify", str(GOLDEN / "defect2_split_f2t.txt")]) == 0
    assert "K split: yes" in capsys.readouterr().out.splitlines()
    diagonal = [m for m in calls if m.is_diagonal()]
    assert len(diagonal) == 1 and diagonal[0].nrows == 4

def test_verify_fails_on_a_corrupted_module_j(monkeypatch, capsys):
    # `--corrupt-j` corrupts the Hodge data of the input form; here J of the
    # module built over the orthogonal basis is corrupted instead, which
    # only the comparison of the two formulas for g reads
    def corrupted(data):
        module = real(data)
        j = data.j_matrix + Matrix.identity(data.field, data.space.dim)
        return dataclasses.replace(module, hodge=dataclasses.replace(data, j_matrix=j))

    real = cli.build_module
    monkeypatch.setattr(cli, "build_module", corrupted)
    assert main(["verify", str(GOLDEN / "defect2_nonsplit_f2t.txt")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "check g two-formula agreement: FAIL" in lines
    assert [line for line in lines if "FAIL" in line] == [
        "check g two-formula agreement: FAIL"]
    assert lines[-1] == "result: 1 check(s) failed"


def _g_formulas_agree_over_k(module):
    # the reference: both formulas for g as K-matrices, entry (u, v) at the
    # wedge basis pair (u, v)
    algebra, data = module.algebra, module.hodge

    def over_k(m):
        return Matrix(algebra, [[algebra.coerce(e) for e in row] for row in m.entries])

    lh = over_k(data.lh_gram)
    left = lh + over_k(data.lh_gram * data.j_matrix) * algebra.j().inverse()
    return left == lh + over_k(data.pf_gram) * algebra.j()


@pytest.mark.parametrize("name,split", [("defect2_split_f2t", True),
                                        ("defect2_nonsplit_f2t", False)])
@pytest.mark.parametrize("scale", [None, "t"])
def test_g_formulas_agree_matches_the_k_matrix_comparison(name, split, scale):
    # `verify` compares Lh J with delta Pf over F; that holds exactly when
    # the two formulas for g agree as K-matrices, with J intact or corrupted
    path = GOLDEN / f"{name}.txt"
    form = BilinearForm(cli.parse_document(str(path), path.read_text()).matrix)
    _, diag = form.orthogonal()
    scale = None if scale is None else form.field.parse(scale)
    module = build_module(hodge(BilinearForm(Matrix.diagonal(form.field, diag)), scale))
    assert module.split == split
    data = module.hodge
    j = data.j_matrix + Matrix.identity(data.field, data.space.dim)
    corrupted = dataclasses.replace(module, hodge=dataclasses.replace(data, j_matrix=j))
    results = [(cli._g_formulas_agree(m), _g_formulas_agree_over_k(m))
               for m in (module, corrupted)]
    assert results == [(True, True), (False, False)]


def test_verify_reports_a_failed_wz_check(monkeypatch, capsys):
    # `wz_submodule` checks that g vanishes on Wz, that rho_z is the identity
    # and that j fixes Wz pointwise; `verify` prints the three PASS lines only
    # when it returns, and one FAIL line with its message otherwise
    def corrupted(module):
        module = real(module)
        data = module.hodge
        j = data.j_matrix + Matrix.identity(data.field, data.space.dim)
        return dataclasses.replace(module, hodge=dataclasses.replace(data, j_matrix=j))

    real = cli.normalize_split
    monkeypatch.setattr(cli, "normalize_split", corrupted)
    assert main(["verify", str(GOLDEN / "defect2_split_f2t.txt")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "Wz" in line or "FAIL" in line] == [
        "check split module structure: FAIL (j must fix Wz pointwise)"]
    assert lines[-1] == "result: 1 check(s) failed"
