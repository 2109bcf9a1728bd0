"""The defect-3 normalizer on inputs whose diagonal values differ.

The normal form scales every orthogonal vector so that its value becomes the
first one; these inputs have values in one square class that are not all
equal, so a wrong scale factor shows up as a failed normal-form check.
"""

import random
from itertools import product

from char2forms import groups as G
from char2forms.fields import GF2, GF2k, RationalFunctionField
from char2forms.forms import BilinearForm
from char2forms.linalg import Matrix
from char2forms.oracle import closure_order_matches, enumerate_isometries


def _symmetric_grams(field, n):
    elements = list(field.elements())
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for values in product(elements, repeat=len(cells)):
        rows = [[field.zero()] * n for _ in range(n)]
        for (i, j), v in zip(cells, values):
            rows[i][j] = rows[j][i] = v
        yield Matrix(field, rows)


def test_every_gf2_form_is_defect3_with_order_48():
    gf2 = GF2()
    eligible = 0
    for gram in _symmetric_grams(gf2, 4):
        form = BilinearForm(gram)
        if form.is_degenerate() or form.is_alternating():
            continue
        eligible += 1
        report = G.classify(form)
        assert report.case == "defect3"
        closure = G.generate_closure([g.matrix for g in report.generators])
        assert len(closure) == 48
        assert closure_order_matches(enumerate_isometries(form), closure)
    assert eligible == 420


def test_gf4_diagonal_matches_oracle():
    gf4 = GF2k(2, 0b111)
    form = BilinearForm(Matrix.diagonal(gf4, [gf4.generator, 1, 1, 1]))
    report = G.classify(form)
    assert report.case == "defect3"
    closure = G.generate_closure([g.matrix for g in report.generators])
    assert len(closure) == 3840
    assert closure_order_matches(enumerate_isometries(form), closure)


def test_f2t_scrambled_diagonals():
    f2t = RationalFunctionField(GF2(), "t")
    t = f2t.generator
    grams = [Matrix.diagonal(f2t, [t * t, 1, 1, 1])]
    rng = random.Random(3)
    entries = [f2t.zero(), f2t.one(), t, t + 1]
    while len(grams) < 4:
        c = f2t.random_element(rng, size=1)
        scales = [f2t.random_element(rng, size=1) for _ in range(4)]
        p = Matrix(f2t, [[rng.choice(entries) for _ in range(4)] for _ in range(4)])
        if c.is_zero() or any(a.is_zero() for a in scales) or p.det().is_zero():
            continue
        diag = Matrix.diagonal(f2t, [c * a * a for a in scales])
        grams.append(p.transpose() * diag * p)
    for gram in grams:
        report = G.classify(BilinearForm(gram))
        assert report.case == "defect3"
        assert report.normal_gram == Matrix.identity(f2t, 4)
