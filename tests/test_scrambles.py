"""Congruence scrambles of all five normal forms.

A scrambled form is S^T N S with S = P U, P a permutation and U unipotent
upper triangular, so it lands in the case of N.  The entries of U stay small
over F2(t)(u): with t among them, a single `classify` there took seconds.
Over GF(4), S is any invertible matrix, and the CLI's generated group is
checked against the exhaustive oracle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char2forms import groups as G
from char2forms.cli import main
from char2forms.fields import GF2, GF2k, RationalFunctionField
from char2forms.forms import BilinearForm
from char2forms.linalg import Matrix

F2T = RationalFunctionField(GF2(), "t")
F2TU = RationalFunctionField(F2T, "u")
T, TU, UU = F2T.generator, F2TU.parse("t"), F2TU.parse("u")

# case -> (normal form, K split, entries allowed above the diagonal of U)
CASES = {
    "defect3": (Matrix.identity(F2T, 4), True, [0, 1, T, T + 1]),
    "defect2_nonsplit": (G.h1_gram(F2T, T), False, [0, 1, T, T + 1]),
    "defect2_split": (G.h2_gram(F2T, T), True, [0, 1, T, T + 1]),
    "defect1": (G.defect1_gram(F2TU, TU, UU), False, [0, 1]),
    "defect0": (G.defect0_gram(F2TU, TU, UU, TU), True, [0, 1]),
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=4, database=None, derandomize=True, deadline=None)
@given(perm=st.permutations(range(4)), picks=st.lists(st.integers(0, 3), min_size=6,
                                                      max_size=6))
def test_scrambled_normal_form_classifies(case, perm, picks):
    normal, k_split, entries = CASES[case]
    field = normal.ring
    above = iter(picks)
    u = Matrix(field, [[field.coerce(entries[next(above) % len(entries)]) if j > i
                        else field.one() if j == i else field.zero()
                        for j in range(4)] for i in range(4)])
    p = Matrix(field, [[field.one() if perm[i] == j else field.zero() for j in range(4)]
                       for i in range(4)])
    s = p * u
    form = BilinearForm(s.transpose() * normal * s)
    report = G.classify(form)
    assert (report.case, report.k_split) == (case, k_split)
    n = report.normalizer
    assert n.transpose() * form.gram * n == report.normal_gram * report.scale
    for g in report.generators:
        if g.multiplier.is_one():
            assert G.is_isometry(form, g.matrix)
        else:
            assert G.similitude_multiplier(form, g.matrix) == g.multiplier


def test_gf4_scrambles_match_the_oracle(tmp_path, capsys):
    gf4 = GF2k(2, 0b111)
    normals = [Matrix.identity(gf4, 4), Matrix.diagonal(gf4, [gf4.generator, 1, 1, 1])]
    rng = random.Random(6)
    checked = 0
    while checked < 3:
        s = Matrix(gf4, [[gf4.random_element(rng) for _ in range(4)] for _ in range(4)])
        if s.det().is_zero():
            continue
        gram = s.transpose() * normals[checked % 2] * s
        checked += 1
        path = tmp_path / f"scramble{checked}.txt"
        path.write_text("field: gf2k:2:7\ngram:\n" + "".join(
            " ".join(str(e) for e in row) + "\n" for row in gram.entries))
        assert main(["classify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "generated order: 3840" in lines
        assert "oracle order (backtracking): 3840" in lines
        assert "check oracle agrees with generated group: PASS" in lines
        assert "check oracle agrees with predicted order: PASS" in lines
