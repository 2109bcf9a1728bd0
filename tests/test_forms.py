import random
from itertools import product
from pathlib import Path

import pytest

from char2forms import forms
from char2forms.cli import main
from char2forms.linalg import square_span_dimension
from char2forms.forms import (AlternatingForm, BilinearForm, DegenerateForm, FormError,
                              ZeroForm, discriminant_class, orthogonalize,
                              orthonormalize, quadratic_data)
from char2forms.groups import (defect0_gram, defect1_gram, h1_gram, h2_gram, h_tilde_gram,
                               sum_squares_basis)
from char2forms.linalg import Matrix, Vector


def _diag(field, *entries):
    return BilinearForm(Matrix.diagonal(field, [field.parse(e) if isinstance(e, str)
                                                else field.coerce(e) for e in entries]))


def test_is_alternating(gf2, f2t):
    assert not BilinearForm(Matrix.identity(gf2, 2)).is_alternating()
    assert BilinearForm(Matrix(gf2, [[0, 1], [1, 0]])).is_alternating()
    t = f2t.generator
    one, zero = f2t.one(), f2t.zero()
    h = BilinearForm(Matrix(f2t, [[zero, one, zero, zero],
                                  [one, one, zero, zero],
                                  [zero, zero, t, zero],
                                  [zero, zero, zero, t * t + t]]))
    assert not h.is_alternating()


def test_is_alternating_reads_no_entry(gf2, f2tu, monkeypatch):
    # the diagonal is tested for zero on payloads: no entry becomes an element
    grams = [Matrix(gf2, [[0, 1], [1, 0]]), Matrix(gf2, [[0, 1], [1, 1]]),
             Matrix.identity(f2tu, 3)]
    forms_ = [BilinearForm(g) for g in grams]

    def refuse(self, key):
        raise AssertionError(f"entry {key} read")
    monkeypatch.setattr(Matrix, "__getitem__", refuse)
    assert [f.is_alternating() for f in forms_] == [True, False, False]


def test_orthogonalize_2x2_hand_check(gf2):
    form = BilinearForm(Matrix(gf2, [[0, 1], [1, 1]]))
    basis, diag = orthogonalize(form)
    # hand check: h(e2,e2) = 1, then h(e1+e2, e1+e2) = 1 and h(e2, e1+e2) = 0
    assert basis == [Vector(gf2, [0, 1]), Vector(gf2, [1, 1])]
    assert [str(d) for d in diag] == ["1", "1"]


def test_orthogonalize_identity(gf2):
    form = BilinearForm(Matrix.identity(gf2, 4))
    basis, diag = orthogonalize(form)
    assert Matrix.from_columns(gf2, basis) == Matrix.identity(gf2, 4)
    assert all(d.is_one() for d in diag)


def test_orthogonalize_h_tilde(gf2):
    # h~ is congruent to the identity form via the explicit basis b1..b4
    ht = BilinearForm(h_tilde_gram(gf2))
    b = sum_squares_basis(gf2)
    assert b.transpose() * Matrix.identity(gf2, 4) * b == ht.gram
    basis, diag = orthogonalize(ht)
    assert all(d.is_one() for d in diag)
    onb = orthonormalize(ht)
    gram = ht.congruent(Matrix.from_columns(gf2, onb)).gram
    assert gram == Matrix.identity(gf2, 4)


def test_orthogonalize_fires_repair_step(gf2, f2t):
    # value-1 vector plus a hyperbolic plane: the complement of e1 is
    # alternating on itself, so the repair step must fire
    for field in (gf2, f2t):
        one, zero = field.one(), field.zero()
        gram = Matrix(field, [[one, zero, zero], [zero, zero, one], [zero, one, zero]])
        form = BilinearForm(gram)
        basis, diag = orthogonalize(form)
        assert len(basis) == 3
        assert all(d == one for d in diag)  # repair keeps the h-value of w_k
        check = form.congruent(Matrix.from_columns(field, basis)).gram
        assert check == Matrix.diagonal(field, diag)


def test_orthogonalize_5dim_repair(f2t):
    t = f2t.generator
    one, zero = f2t.one(), f2t.zero()
    gram = Matrix(f2t, [[t, zero, zero, zero, zero],
                        [zero, zero, one, zero, zero],
                        [zero, one, zero, zero, zero],
                        [zero, zero, zero, zero, t],
                        [zero, zero, zero, t, zero]])
    form = BilinearForm(gram)
    basis, diag = orthogonalize(form)
    check = form.congruent(Matrix.from_columns(f2t, basis)).gram
    assert check == Matrix.diagonal(f2t, diag)
    assert all(not d.is_zero() for d in diag)
    assert all(d == t for d in diag)  # every repair reuses h(w_k, w_k) = t


def test_orthogonalize_degenerate_radical_last(gf2):
    one, zero = gf2.one(), gf2.zero()
    gram = Matrix(gf2, [[one, zero, zero], [zero, zero, zero], [zero, zero, one]])
    form = BilinearForm(gram)
    basis, diag = orthogonalize(form)
    assert [d.is_zero() for d in diag] == [False, False, True]
    assert form.q(basis[2]).is_zero()


def _greedy_complement_indices(field, radical, n):
    """The greedy reference: keep e_i when it is independent of the radical
    and of the unit vectors kept so far, one rank per candidate."""
    rows = [list(v.entries) for v in radical]
    chosen = []
    for i in range(n):
        trial = rows + [list(Vector.unit(field, n, c).entries) for c in chosen + [i]]
        if Matrix(field, trial).rank() == len(trial):
            chosen.append(i)
        if len(chosen) + len(rows) == n:
            break
    return chosen


def _symmetric(field, values):
    """The symmetric 4x4 matrix whose upper triangle, row by row, is `values`."""
    rows = [[None] * 4 for _ in range(4)]
    upper = iter(values)
    for i in range(4):
        for j in range(i, 4):
            rows[i][j] = rows[j][i] = next(upper)
    return Matrix(field, rows)


def test_complement_indices_match_greedy_reference(gf2, gf4):
    # every degenerate symmetric 4x4 Gram matrix over GF(2), and the
    # degenerate ones among seeded random symmetric draws over GF(4)
    grams = [_symmetric(gf2, bits) for bits in product([0, 1], repeat=10)]
    rng = random.Random(7)
    elements = list(gf4.elements())
    grams += [_symmetric(gf4, [rng.choice(elements) for _ in range(10)])
              for _ in range(3000)]
    checked = 0
    for gram in grams:
        form = BilinearForm(gram)
        if not form.is_degenerate():
            continue
        radical = form.radical()
        assert forms._complement_indices(gram.ring, radical, 4) \
            == _greedy_complement_indices(gram.ring, radical, 4)
        checked += 1
    assert checked == 1352


def test_orthogonalize_rejects(gf2):
    with pytest.raises(AlternatingForm):
        orthogonalize(BilinearForm(Matrix(gf2, [[0, 1], [1, 0]])))
    with pytest.raises(ZeroForm):
        orthogonalize(BilinearForm(Matrix.zeros(gf2, 2, 2)))


def test_orthonormalize_needs_squares(f2t):
    with pytest.raises(FormError):
        orthonormalize(_diag(f2t, "t", "1"))


def test_defect_examples(gf2, f2t, f2tu):
    qd = quadratic_data(BilinearForm(Matrix.identity(gf2, 4)))
    assert (qd.range_dimension, qd.defect) == (1, 3)
    qd = quadratic_data(_diag(f2t, "t", "1", "1", "1"))
    assert (qd.range_dimension, qd.defect) == (2, 2)
    qd = quadratic_data(_diag(f2tu, "1", "t", "u", "tu"))
    assert (qd.range_dimension, qd.defect) == (4, 0)
    assert qd.kernel == ()


def _defect_forms(gf2, gf4, f2t, f2tu):
    """(form, defect): diagonal forms and the defect 0-3 normal forms over
    GF(2), GF(4), F2(t) and F2(t)(u)."""
    t, tu, uu = f2t.generator, f2tu.parse("t"), f2tu.parse("u")
    return [(BilinearForm(Matrix.identity(gf2, 4)), 3), (_diag(f2t, "t", "1", "1", "1"), 2),
            (_diag(f2t, "t", "t", "1", "1"), 2)] + [
        (BilinearForm(gram), defect) for gram, defect in (
            (Matrix.identity(gf4, 4), 3), (Matrix.identity(f2t, 4), 3),
            (h1_gram(f2t, t), 2), (h2_gram(f2t, t), 2), (h1_gram(f2tu, tu), 2),
            (defect1_gram(f2tu, tu, uu), 1), (defect0_gram(f2tu, tu, uu, tu), 0))]


def test_defect_kernel_vectors_vanish(gf2, gf4, f2t, f2tu, monkeypatch):
    # on each form and two seeded scrambles: the kernel vectors of q vanish,
    # and the range dimension is read off that one kernel of the square
    # coordinates of the diagonal (rank-nullity), so quadratic_data makes one
    # square_coordinates call on the form's field per diagonal value and no rank
    rng = random.Random(29)
    asked, ranked = [], []
    for cls in {type(gf2), type(gf4), type(f2t)}:
        def counting(self, a, real=cls.square_coordinates):
            asked.append(self)
            return real(self, a)
        monkeypatch.setattr(cls, "square_coordinates", counting)
    rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: ranked.append(self) or rank(self))
    checked = 0
    for base, defect in _defect_forms(gf2, gf4, f2t, f2tu):
        field, n = base.field, base.dim
        small = [field.zero(), field.zero(), field.one(), field.one(),
                 field.random_element(rng, size=1)]
        forms = [base]
        while len(forms) < 3:
            s = Matrix(field, [[rng.choice(small) for _ in range(n)] for _ in range(n)])
            if not s.det().is_zero():
                forms.append(BilinearForm(s.transpose() * base.gram * s))
        for form in forms:
            form.orthogonal()
            asked.clear(), ranked.clear()
            qd = quadratic_data(form)
            assert sum(f is field for f in asked) == n and ranked == []
            assert (qd.defect, len(qd.kernel)) == (defect, defect)
            assert qd.defect + qd.range_dimension == n
            for v in qd.kernel:
                assert form.q(v).is_zero()
            assert square_span_dimension(list(qd.values)) == qd.range_dimension
            checked += 1
    assert checked == 30


def test_defect_rejects(gf2):
    with pytest.raises(DegenerateForm):
        quadratic_data(BilinearForm(Matrix.zeros(gf2, 2, 2) + Matrix.diagonal(gf2, [1, 0])))
    with pytest.raises(AlternatingForm):
        quadratic_data(BilinearForm(Matrix(gf2, [[0, 1], [1, 0]])))


def test_defect_congruence_invariant(f2t, rng):
    h = _diag(f2t, "t", "1", "1", "1")
    base_defect = quadratic_data(h).defect
    count = 0
    while count < 6:
        s = Matrix(f2t, [[f2t.random_element(rng, size=1) for _ in range(4)]
                         for _ in range(4)])
        if s.det().is_zero():
            continue
        moved = BilinearForm(s.transpose() * h.gram * s)
        assert quadratic_data(moved).defect == base_defect
        count += 1


def test_discriminant_examples(gf2, f2t):
    rep, sq = discriminant_class(BilinearForm(Matrix.identity(gf2, 4)))
    assert rep.is_one() and sq
    rep, sq = discriminant_class(_diag(f2t, "t", "1", "1", "1"))
    assert rep == f2t.generator and not sq
    rep, sq = discriminant_class(_diag(f2t, "t", "t", "1", "1"))
    assert rep == f2t.parse("t^2") and sq
    with pytest.raises(DegenerateForm):
        discriminant_class(BilinearForm(Matrix.diagonal(gf2, [1, 0])))


def _reference_orthogonalize(form):
    """The orthogonalization as a loop over vectors, each pairing going
    through H (q(v) per candidate, W^T H S per step): the construction that
    `orthogonalize` now runs on the congruent Gram of the remaining space."""
    field, n = form.field, form.dim
    radical = form.radical()
    rows = [list(v.entries) for v in radical]
    complement = []
    for i in range(n):
        if len(rows) + len(complement) == n:
            break
        candidate = Vector.unit(field, n, i)
        trial = rows + [list(v.entries) for v in complement + [candidate]]
        if Matrix(field, trial).rank() == len(trial):
            complement.append(candidate)

    def within(space, constraints):
        s = Matrix.from_columns(field, space)
        pairings = Matrix(field, [w.entries for w in constraints]) * form.gram * s
        return [s * c for c in pairings.kernel_basis()]

    orthos, space = [], complement
    while space:
        idx = next((i for i, v in enumerate(space) if not form.q(v).is_zero()), None)
        if idx is not None:
            orthos.append(space[idx])
            space = within(space, [space[idx]])
            continue
        pairs = form.congruent(Matrix.from_columns(field, space)).gram
        i, j = next((i, j) for i in range(len(space)) for j in range(i + 1, len(space))
                    if not pairs[i, j].is_zero())
        x, y = space[i], space[j].scale(pairs[i, j].inverse())
        w_k = orthos[-1]
        a = form.q(w_k)
        orthos[-1:] = [w_k + x, w_k + y.scale(a), w_k + x + y.scale(a)]
        space = within(space, [x, y])
    basis = orthos + radical
    gram = form.congruent(Matrix.from_columns(field, basis)).gram
    return basis, [gram[i, i] for i in range(n)]


def _reference_cases(field, params, rng):
    """Normal forms (anisotropic, with hyperbolic planes, degenerate) and
    seeded congruence scrambles S^T N S with S of small entries."""
    a, b, c = (field.parse(p) for p in params)
    one, zero = field.one(), field.zero()
    hyperbolic = Matrix(field, [[a, zero, zero, zero], [zero, zero, one, zero],
                                [zero, one, zero, zero], [zero, zero, zero, b]])
    normals = [Matrix.diagonal(field, [a, b, c, one]), Matrix.identity(field, 4), hyperbolic,
               Matrix(field, [[a, zero, zero], [zero, zero, one], [zero, one, zero]]),
               Matrix.diagonal(field, [a, b, one, zero]),
               Matrix.diagonal(field, [zero, a, zero, c]),
               Matrix(field, [[zero, one, zero, zero], [one, zero, zero, zero],
                              [zero, zero, a, zero], [zero, zero, zero, zero]])]
    small = [zero, zero, one, a, c]
    for normal in normals:
        yield normal
        n = normal.nrows
        scrambles = 0
        while scrambles < 3:
            s = Matrix(field, [[rng.choice(small) for _ in range(n)] for _ in range(n)])
            if not s.det().is_zero():
                scrambles += 1
                yield s.transpose() * normal * s


@pytest.mark.parametrize("name, params", [("gf4", ("g", "g+1", "1")),
                                          ("f2t", ("t", "t+1", "t^2+t+1")),
                                          ("f2tu", ("u", "t", "u+1"))])
def test_orthogonalize_matches_vector_pairing_reference(name, params, request, monkeypatch):
    # the orthogonalization on the congruent Gram returns the basis and the
    # diagonal of the loop that paired vectors through H, on degenerate forms
    # and on forms that take the repair step too; the form keeps that result
    field = request.getfixturevalue(name)
    rng = random.Random(f"orthogonalize-{name}")
    repairs = []
    real = forms._hyperbolic_pair

    def counting(field, gram):
        repairs.append(len(gram))
        return real(field, gram)

    monkeypatch.setattr(forms, "_hyperbolic_pair", counting)
    cases = degenerate = repaired = 0
    for gram in _reference_cases(field, params, rng):
        form = BilinearForm(gram)
        before = len(repairs)
        expected = _reference_orthogonalize(form)
        assert orthogonalize(form) == expected
        assert form.orthogonal() == tuple(map(tuple, expected))
        assert form.orthogonal() is form.orthogonal()
        cases += 1
        degenerate += form.is_degenerate()
        repaired += len(repairs) > before
    assert cases == 28 and degenerate >= 12 and repaired >= 3


def test_analyze_orthogonalizes_once(monkeypatch, capsys):
    # the basis, the diagonal, the quadratic analysis and the Hodge data of
    # `analyze` share one orthogonalization, which `BilinearForm.orthogonal`
    # runs through the module's `orthogonalize`
    calls = []
    real = forms.orthogonalize

    def counting(form):
        calls.append(form)
        return real(form)

    monkeypatch.setattr(forms, "orthogonalize", counting)
    path = Path(__file__).parent / "golden" / "defect0_f2tu.txt"
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1
