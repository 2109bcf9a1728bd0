import random
from itertools import product
from math import comb

import pytest

from char2forms import linalg
from char2forms.cli import main
from char2forms.exterior import (ExteriorSpace, WrongDimension, ZeroVolume, alt_matrix,
                                 compound_matrix, exterior_form_gram, hodge, index_sets,
                                 _pq_payload, hodge_identities, klein_scalar,
                                 pfaffian_gram, pq, wedge, wedge_coefficient)
from char2forms.forms import BilinearForm
from char2forms.linalg import Matrix, Vector
from char2forms.oracle import compound_by_expansion


def _random_matrix(field, n, rng, size=1):
    return Matrix(field, [[field.random_element(rng, size=size) for _ in range(n)]
                          for _ in range(n)])


def test_wedge_coefficient():
    assert wedge_coefficient((1, 2), (3, 4)) == 1
    assert wedge_coefficient((1, 2), (2, 3)) == 0
    assert wedge_coefficient((1, 3), (2, 4)) == 1


def test_index_sets_lex_and_complement():
    space = ExteriorSpace(4, 2)
    assert space.sets == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    for s in space.sets:
        comp = space.complement(s)
        assert space.complement(comp) == s
        assert wedge_coefficient(s, comp) == 1


def test_compound_identity_and_diagonal(gf2, f2t):
    assert compound_matrix(Matrix.identity(gf2, 4), 2) == Matrix.identity(gf2, 6)
    a, b, c, d = (f2t.parse(s) for s in ("1+t", "t", "t^2", "1/t"))
    got = compound_matrix(Matrix.diagonal(f2t, [a, b, c, d]), 2)
    expected = Matrix.diagonal(f2t, [a * b, a * c, a * d, b * c, b * d, c * d])
    assert got == expected


def test_compound_functorial(gf4, rng):
    for _ in range(6):
        a = _random_matrix(gf4, 4, rng)
        b = _random_matrix(gf4, 4, rng)
        assert compound_matrix(a * b, 2) == compound_matrix(a, 2) * compound_matrix(b, 2)


def test_compound_matches_expansion_oracle(gf4, f2t, rng):
    for field in (gf4, f2t):
        for ell in (1, 2, 3):
            a = _random_matrix(field, 4, rng)
            assert compound_matrix(a, ell) == compound_by_expansion(a, ell)


def test_compound_matches_expansion_oracle_over_f2tu(f2tu, rng):
    for n, ell in ((4, 2), (6, 3)):
        a = _random_matrix(f2tu, n, rng, size=1)
        assert compound_matrix(a, ell) == compound_by_expansion(a, ell)


def test_compound_of_sparse_and_diagonal_matches_expansion_oracle(gf4, f2t, f2tu, rng,
                                                                   monkeypatch):
    # a minor with a row that is zero on its columns is zero without a
    # det_rows call, so a diagonal matrix costs only its C(n, l) diagonal minors
    calls = []

    def counting(ring, rows):
        calls.append(len(rows))
        return real(ring, rows)

    real = linalg.det_rows
    monkeypatch.setattr(linalg, "det_rows", counting)
    for field, n in ((gf4, 6), (f2t, 6), (f2tu, 4)):
        def nonzero():
            while (x := field.random_element(rng, size=1)).is_zero():
                pass
            return x

        diagonal = Matrix.diagonal(field, [nonzero() for _ in range(n)])
        sparse = Matrix(field, [[nonzero() if rng.random() < 0.3 else field.zero()
                                 for _ in range(n)] for _ in range(n)])
        monomial = Matrix(field, [[field.one() if j == (i + 1) % n else field.zero()
                                   for j in range(n)] for i in range(n)]) * diagonal
        for a in (diagonal, sparse, monomial):
            for ell in range(1, n):
                calls.clear()
                assert compound_matrix(a, ell) == compound_by_expansion(a, ell)
                if a is diagonal:
                    assert len(calls) == comb(n, ell)


def _wedge_by_expansion(field, vectors):
    """v_1 ^ ... ^ v_l from the multilinear definition: the sum over index
    tuples (i_1..i_l) of v_1[i_1]...v_l[i_l] e_(i_1) ^ ... ^ e_(i_l), where a
    repeated index gives 0 and no reordering carries a sign."""
    n, ell = len(vectors[0]), len(vectors)
    space = ExteriorSpace(n, ell)
    total = Vector.zero(field, space.dim)
    for idx in product(range(n), repeat=ell):
        if len(set(idx)) < ell:
            continue
        coeff = field.one()
        for v, i in zip(vectors, idx):
            coeff = coeff * v[i]
        total = total + space.basis_vector(field, [i + 1 for i in idx]).scale(coeff)
    return total


def test_wedge_matches_multilinear_definition(gf4, f2t, rng):
    for field in (gf4, f2t):
        for n, ell in ((4, 1), (4, 2), (4, 3), (6, 3)):
            vectors = [Vector(field, [field.random_element(rng, size=1) for _ in range(n)])
                       for _ in range(ell)]
            assert wedge(field, vectors) == _wedge_by_expansion(field, vectors)
            # the wedge of the first l columns of A is column (1..l) of its compound
            a = Matrix.from_columns(field, vectors + [Vector.unit(field, n, i)
                                                      for i in range(n - ell)])
            position = ExteriorSpace(n, ell).position(range(1, ell + 1))
            assert wedge(field, vectors) == compound_by_expansion(a, ell).column(position)


def test_exterior_form_gram(gf2, f2t):
    assert exterior_form_gram(BilinearForm(Matrix.identity(gf2, 4)), 2) \
        == Matrix.identity(gf2, 6)
    c = [f2t.parse(s) for s in ("1", "t", "1+t", "t^2+t")]
    gram = exterior_form_gram(BilinearForm(Matrix.diagonal(f2t, c)), 2)
    pairs = [c[0] * c[1], c[0] * c[2], c[0] * c[3], c[1] * c[2], c[1] * c[3], c[2] * c[3]]
    assert gram == Matrix.diagonal(f2t, pairs)
    # non-diagonal block input: the (12),(12) entry is the 2x2 block determinant
    one, zero, t = f2t.one(), f2t.zero(), f2t.generator
    h = Matrix(f2t, [[zero, one, zero, zero],
                     [one, one, zero, zero],
                     [zero, zero, t, zero],
                     [zero, zero, zero, t * t + t]])
    lgram = exterior_form_gram(BilinearForm(h), 2)
    assert lgram[0, 0].is_one()


def test_pfaffian_gram(gf2, f2t):
    space = ExteriorSpace(4, 2)
    pf = pfaffian_gram(gf2, 4, 2, 1)
    assert pf[space.position((1, 2)), space.position((3, 4))].is_one()
    assert pf[space.position((1, 2)), space.position((1, 2))].is_zero()
    assert pf.is_symmetric()
    assert all(pf[i, i].is_zero() for i in range(6))  # alternating
    s = f2t.parse("t+1")
    assert pfaffian_gram(f2t, 4, 2, s) == pfaffian_gram(f2t, 4, 2, 1) * s
    # each row pairs an index set with exactly its complement
    for i in range(6):
        nonzero = [j for j in range(6) if not pf[i, j].is_zero()]
        assert nonzero == [space.position(space.complement(space.sets[i]))]
    with pytest.raises(ZeroVolume):
        pfaffian_gram(gf2, 4, 2, 0)


def test_pfaffian_gram_matches_wedge_coefficients(gf4):
    # Pf is set at (T^c, T) for each l-set T; the reference builds every
    # entry from the wedge coefficient of its two index sets
    scale, zero = gf4.generator, gf4.zero()
    for n in range(2, 9):
        for ell in range(1, n):
            expected = Matrix(gf4, [[scale if wedge_coefficient(s, t) else zero
                                     for t in index_sets(n, ell)]
                                    for s in index_sets(n, n - ell)])
            assert pfaffian_gram(gf4, n, ell, scale) == expected


def test_hodge_identity_form(gf2):
    data = hodge(BilinearForm(Matrix.identity(gf2, 4)))
    assert data.delta.is_one()
    space = data.space
    for perm_s in space.sets:
        image = data.j_matrix * space.basis_vector(gf2, perm_s)
        assert image == space.basis_vector(gf2, space.complement(perm_s))


def test_hodge_delta_and_rescaling(f2t):
    m = f2t.generator
    form = BilinearForm(Matrix.diagonal(f2t, [m, f2t.one(), f2t.one(), f2t.one()]))
    data = hodge(form)
    assert data.delta == m
    s = f2t.parse("t+1")
    scaled = hodge(form, volume_scale=s)
    assert scaled.j_matrix == data.j_matrix * s.inverse()
    assert scaled.delta == data.delta * (s * s).inverse()


def test_hodge_closed_form_on_orthogonal_basis(f2t, rng):
    # J(v_S) = v_{S^c} * (prod of c_i over S) / b on an orthogonal basis
    for _ in range(5):
        c = []
        while len(c) < 4:
            v = f2t.random_element(rng, size=1)
            if not v.is_zero():
                c.append(v)
        scale = f2t.parse("t")
        data = hodge(BilinearForm(Matrix.diagonal(f2t, c)), volume_scale=scale)
        space = data.space
        for s in space.sets:
            image = data.j_matrix * space.basis_vector(f2t, s)
            coeff = scale.inverse()
            for i in s:
                coeff = coeff * c[i - 1]
            assert image == space.basis_vector(f2t, space.complement(s)).scale(coeff)


def _sparse_form(field, x, n):
    """A non-diagonal, non-degenerate n x n form with entries 0, 1, x, x+1."""
    diag = [x, 1, x + 1, 1, x, 1, x, 1][:n]
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    # two 2x2 blocks of determinants x + 1 and x, the rest diagonal
    rows[0][1] = rows[1][0] = rows[2][n - 1] = rows[n - 1][2] = field.one()
    return BilinearForm(Matrix(field, rows))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_hodge_matches_pfaffian_inverse(n, gf4, f2t, f2tu):
    # the general formula J = Pf^(-1) Lh, with Pf inverted by elimination
    for field, x in ((gf4, gf4.generator), (f2t, f2t.generator), (f2tu, f2tu.parse("u"))):
        form = _sparse_form(field, x, n)
        for scale in (field.one(), x):
            data = hodge(form, volume_scale=scale)
            pf = pfaffian_gram(field, n, n // 2, scale)
            assert data.pf_gram == pf
            assert data.j_matrix == pf.inverse() * exterior_form_gram(form, n // 2)


def test_hodge_identities_fixtures(gf2, gf4, f2t):
    from char2forms.groups import h_tilde_gram
    fixtures = [BilinearForm(Matrix.identity(gf2, 4)),
                BilinearForm(h_tilde_gram(gf2)),
                BilinearForm(Matrix.identity(gf4, 4)),
                BilinearForm(Matrix.diagonal(f2t, [f2t.parse(s)
                                                   for s in ("t", "1", "1+t", "t^2+t")]))]
    for form in fixtures:
        for name, ok, detail in hodge_identities(hodge(form)):
            assert ok, (name, detail)


def test_hodge_odd_dimension_rejected(gf2):
    with pytest.raises(WrongDimension):
        hodge(BilinearForm(Matrix.identity(gf2, 3)))


def test_pq_examples(gf2):
    space = ExteriorSpace(4, 2)
    e12 = space.basis_vector(gf2, (1, 2))
    assert pq(e12).is_zero()
    mixed = e12 + space.basis_vector(gf2, (3, 4))
    assert pq(mixed).is_one()
    with pytest.raises(WrongDimension):
        pq(Vector(gf2, [1, 0, 0]))


def test_pq_squared_is_det_gf2(gf2):
    for coords in product(range(2), repeat=6):
        x = Vector(gf2, coords)
        assert pq(x) * pq(x) == alt_matrix(x).det()


def test_pq_polar_form_is_pf(gf4, rng):
    pf = pfaffian_gram(gf4, 4, 2, 1)
    for _ in range(20):
        x = Vector(gf4, [gf4.random_element(rng) for _ in range(6)])
        y = Vector(gf4, [gf4.random_element(rng) for _ in range(6)])
        polar = pq(x + y) + pq(x) + pq(y)
        gy = pf * y
        total = gf4.zero()
        for a, b in zip(x, gy):
            total = total + a * b
        assert polar == total


class _RecordingField:
    """A field whose payload products record their operands."""

    def __init__(self, field):
        self.field, self.products = field, []

    def __getattr__(self, name):
        return getattr(self.field, name)

    def _mul(self, a, b):
        self.products.append((a, b))
        return self.field._mul(a, b)


@pytest.mark.parametrize("name", ["gf4", "f2t", "f2tu"])
def test_pq_skips_zero_and_unit_operands(name, gf4, f2t, f2tu):
    # Pq = p12 p34 + p13 p24 + p14 p23 on payloads, with no product by a zero
    # or a one; coordinates are drawn with zeros and ones over-represented
    field = {"gf4": gf4, "f2t": f2t, "f2tu": f2tu}[name]
    rng = random.Random(24)
    pool = [field.zero(), field.one()]
    recording = _RecordingField(field)
    zero, one = field._from_int(0), field._from_int(1)
    for _ in range(60):
        x = [rng.choice(pool) if rng.random() < 0.5 else field.random_element(rng, size=1)
             for _ in range(6)]
        p12, p13, p14, p23, p24, p34 = x
        expected = p12 * p34 + p13 * p24 + p14 * p23
        assert pq(Vector(field, x)) == expected
        assert _pq_payload(recording, [e.payload for e in x]) == expected.payload
    assert recording.products
    assert all(zero not in pair and one not in pair for pair in recording.products)


def test_decomposable_vectors_lie_on_quadric(gf4, rng):
    for _ in range(10):
        v = Vector(gf4, [gf4.random_element(rng) for _ in range(4)])
        w = Vector(gf4, [gf4.random_element(rng) for _ in range(4)])
        assert pq(wedge(gf4, [v, w])).is_zero()


def test_wedge_coordinates(gf2):
    v = Vector(gf2, [1, 1, 0, 0])
    w = Vector(gf2, [0, 0, 0, 1])
    space = ExteriorSpace(4, 2)
    expected = space.basis_vector(gf2, (1, 4)) + space.basis_vector(gf2, (2, 4))
    assert wedge(gf2, [v, w]) == expected


def _klein_reference(vectors):
    """(s, agree) for Pq(X)^2 = s det(alt X), on elements: Pq(X)^2 as
    pq(x) * pq(x) and det(alt X) as a Matrix determinant."""
    s, agree = None, True
    for x in vectors:
        lhs = pq(x) * pq(x)
        rhs = alt_matrix(x).det()
        if rhs.is_zero():
            agree = agree and lhs.is_zero()
            continue
        ratio = lhs * rhs.inverse()
        s = ratio if s is None else s
        agree = agree and ratio == s
    return s, agree


def _payloads(vectors):
    return [tuple(e.payload for e in x) for x in vectors]


@pytest.mark.parametrize("name", ["gf2", "gf4"])
def test_klein_scalar_matches_element_reference_exhaustively(name, gf2, gf4):
    field = {"gf2": gf2, "gf4": gf4}[name]
    vectors = [Vector(field, coords) for coords in product(list(field.elements()), repeat=6)]
    assert len(vectors) == field.order ** 6
    s, agree = klein_scalar(field, _payloads(vectors))
    assert (s, agree) == _klein_reference(vectors)
    assert s.is_one() and agree


def test_klein_scalar_matches_element_reference_on_sampled_f2t(f2t, tmp_path, capsys):
    # the 50 draws of verify's sampled branch at --seed 0, in the same order
    rng = random.Random(0)
    vectors = [Vector(f2t, [f2t.random_element(rng) for _ in range(6)]) for _ in range(50)]
    s, agree = klein_scalar(f2t, _payloads(vectors))
    assert (s, agree) == _klein_reference(vectors)
    assert agree
    path = tmp_path / "h1.txt"
    path.write_text("field: ratfunc(gf2,t)\ngram:\nt 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    assert main(["verify", str(path), "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"check Pq(X)^2 = s*det(altX), sampled, s = {s}: PASS" in lines
