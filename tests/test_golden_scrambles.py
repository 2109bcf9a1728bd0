"""Golden `analyze` and `classify --machine` output on congruence scrambles.

Each `tests/golden/<name>.txt` is S^T N S for a normal form N over F2(t) or
F2(t)(u) and S a product of two seeded permuted shears (the construction of
`bench/workloads.py`).  The documents cover defects 0-3, a degenerate form
(its radical vector comes last in the orthogonal basis) and a non-degenerate
form whose orthogonalization takes the hyperbolic repair step.  The expected
stdout is pinned byte for byte in `<name>.analyze` and
`<name>.classify-machine`.
"""

from pathlib import Path

import pytest

from char2forms import forms
from char2forms.cli import main

GOLDEN = Path(__file__).parent / "golden"
NAMES = sorted(p.stem for p in GOLDEN.glob("*.txt"))
JOBS = {"analyze": ["analyze"], "classify-machine": ["classify", "--machine"]}
# the only job that does not exit 0, with its stderr
FAILS = {("degenerate_f2t", "classify-machine"):
         (2, "error: classification needs a non-degenerate form\n")}


def test_golden_documents_cover_the_cases():
    assert NAMES == ["defect0_f2tu", "defect1_f2tu", "defect2_nonsplit_f2t",
                     "defect2_nonsplit_f2tu", "defect2_split_f2t", "defect3_f2t",
                     "degenerate_f2t", "repair_f2tu"]


@pytest.mark.parametrize("job", sorted(JOBS))
@pytest.mark.parametrize("name", NAMES)
def test_golden_output(name, job, capsys):
    code = main(JOBS[job] + [str(GOLDEN / f"{name}.txt")])
    captured = capsys.readouterr()
    expected_code, expected_err = FAILS.get((name, job), (0, ""))
    assert (code, captured.err) == (expected_code, expected_err)
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
