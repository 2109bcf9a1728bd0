import dataclasses
import random

import pytest

from char2forms.errors import CheckFailed
from char2forms.exterior import hodge, wedge
from char2forms.fields import DescriptorMismatch, DivisionByZero, FieldElement
from char2forms.forms import BilinearForm
from char2forms.groups import h_tilde_gram, sum_squares_basis
from char2forms.kalgebra import (KAlgebra, KAlgebraError, NonInvertible, NotSplit,
                                 build_module, normalize_split, wz_submodule)
from char2forms.linalg import Matrix, SingularMatrix, Vector
from char2forms.oracle import direct_g


def _module(field, diag, scale=None):
    gram = Matrix.diagonal(field, [field.parse(d) if isinstance(d, str) else d
                                   for d in diag])
    return build_module(hodge(BilinearForm(gram), volume_scale=scale))


def test_k_multiplication_matches_matrix_model(f2t, rng):
    for delta in (f2t.one(), f2t.generator, f2t.parse("t^2+t")):
        algebra = KAlgebra(f2t, delta)
        model = algebra.matrix_model
        units = 0
        for _ in range(10):
            a = algebra.element(f2t.random_element(rng, 1), f2t.random_element(rng, 1))
            b = algebra.element(f2t.random_element(rng, 1), f2t.random_element(rng, 1))
            assert model(a * b) == model(a) * model(b)
            assert model(a + b) == model(a) + model(b)
            if algebra.is_unit(a):
                units += 1
                assert model(a.inverse()) == model(a).inverse()
            else:
                with pytest.raises(SingularMatrix):
                    model(a).inverse()
        assert units > 0


def test_k_split_nilpotent(gf2):
    algebra = KAlgebra(gf2, 1)
    z = algebra.z()
    assert (z * z).is_zero()
    assert not algebra.is_field()


def test_k_j_squares_to_delta(f2t):
    algebra = KAlgebra(f2t, f2t.generator)
    assert algebra.j() * algebra.j() == algebra.coerce(f2t.generator)


def test_k_inverse(f2t):
    algebra = KAlgebra(f2t, f2t.generator)
    # 1 + j has norm 1 + t != 0
    el = algebra.element(1, 1)
    assert algebra.norm(el) == f2t.parse("1+t")
    assert (el * el.inverse()).is_one()
    split = KAlgebra(f2t, 1)
    with pytest.raises(NonInvertible):
        split.z().inverse()


def test_k_every_element_squares_into_f(f2t, rng):
    algebra = KAlgebra(f2t, f2t.generator)
    for _ in range(10):
        a = algebra.element(f2t.random_element(rng, 1), f2t.random_element(rng, 1))
        x0, x1 = algebra.parts(a * a)
        assert x1.is_zero() and x0 == algebra.norm(a)


def test_k_is_square(f2t, f2tu):
    t = f2t.generator
    algebra = KAlgebra(f2t, t)
    assert algebra.element(t, 0).is_square()  # t = 0^2 + t*1^2
    assert not algebra.element(0, 1).is_square()  # j-component blocks squares
    assert algebra.element(0, 1).sqrt() is None
    root = algebra.element(t, 0).sqrt()
    assert root is not None and root * root == algebra.element(t, 0)
    # with delta = t^3 + t^2 the element t *is* a square: (1 + j/t)^2 = t
    big = KAlgebra(f2t, f2t.parse("t^3+t^2"))
    assert big.element(t, 0).is_square()
    witness = big.element(1, f2t.parse("1/t"))
    assert witness * witness == big.element(t, 0)
    # in a genuine defect-1 configuration c3 stays a non-square of K
    tu = KAlgebra(f2tu, f2tu.parse("tu"))
    assert not tu.element(f2tu.parse("t"), 0).is_square()


def test_k_error_types(f2t):
    t = f2t.generator
    algebra = KAlgebra(f2t, t)
    with pytest.raises(DivisionByZero):
        algebra.zero().inverse()
    with pytest.raises(DescriptorMismatch):
        algebra.j() + KAlgebra(f2t, 1).j()
    with pytest.raises(DescriptorMismatch):
        algebra.coerce(KAlgebra(f2t, 1).j())
    # coerce embeds elements of the base field and ints as the x0 part
    assert algebra.coerce(t) == algebra.element(t, 0)
    assert algebra.coerce(1) == algebra.one()
    assert isinstance(algebra.j(), FieldElement)


def test_k_print_parse_round_trip(f2t, f2tu, rng):
    deltas = [f2t.generator, f2t.one(), f2t.parse("t^2+t"), f2t.parse("1/(t+1)"),
              f2tu.parse("u"), f2tu.parse("tu"), f2tu.parse("t+u")]
    for delta in deltas:
        field = delta.field
        algebra = KAlgebra(field, delta)
        samples = [algebra.zero(), algebra.one(), algebra.j(), algebra.z()]
        samples += [algebra.element(field.random_element(rng, 1), field.random_element(rng, 1))
                    for _ in range(20)]
        for a in samples:
            assert algebra.parse(str(a)) == a


def test_build_module_identity(gf2):
    module = _module(gf2, ["1", "1", "1", "1"])
    assert module.split
    assert module.basis_sets == ((1, 2), (1, 3), (1, 4))
    assert module.g_gram == Matrix.identity(module.algebra, 3)


def test_build_module_h1(f2t):
    m = f2t.generator
    module = _module(f2t, [m, f2t.one(), f2t.one(), f2t.one()])
    assert not module.split
    expected = Matrix.diagonal(module.algebra, [module.algebra.coerce(m)] * 3)
    assert module.g_gram == expected


def test_g_diagonal_entries_from_definition(f2t, rng):
    # g(v1^vk, v1^vk) = c1 * ck on an orthogonal basis, straight from the
    # defining formula g = Lh + j*Pf
    c = []
    while len(c) < 4:
        v = f2t.random_element(rng, 1)
        if not v.is_zero():
            c.append(v)
    module = _module(f2t, c)
    for i, s in enumerate(module.basis_sets):
        expected = module.algebra.coerce(c[0] * c[s[1] - 1])
        assert module.g_gram[i, i] == expected
    assert module.g_gram.is_diagonal()


def test_build_module_requires_diagonal(gf2):
    with pytest.raises(KAlgebraError):
        build_module(hodge(BilinearForm(h_tilde_gram(gf2))))


def test_build_module_requires_j_onto_the_complement(f2t):
    # column S of J must be a nonzero multiple of e_(S^c): an extra entry at
    # another wedge without 1, or a zero entry at S^c, is refused
    data = hodge(BilinearForm(Matrix.diagonal(f2t, [f2t.parse("t"), 1, 1, 1])))
    space = data.space
    col, comp = space.position((1, 2)), space.position((3, 4))
    for row, value in ((space.position((2, 4)), f2t.one()), (comp, f2t.zero())):
        rows = [list(r) for r in data.j_matrix.entries]
        rows[row][col] = value
        with pytest.raises(KAlgebraError):
            build_module(dataclasses.replace(data, j_matrix=Matrix(f2t, rows)))


@pytest.mark.parametrize("diag,scale,split", [
    (["t", "1", "1", "1"], None, False),
    (["t", "t+1", "1", "t^2"], "t", False),
    (["t", "t", "1", "1"], None, True),
    (["t", "1", "t+1", "1", "t", "t+1"], "t+1", True),
    (["t", "1", "t+1", "1", "t", "t"], None, False),
])
def test_k_coordinates_match_solve(f2t, diag, scale, split):
    # the general solve in the F-picture: columns (e_S, J e_S) for S in B1
    module = _module(f2t, diag, scale=None if scale is None else f2t.parse(scale))
    assert module.split == split
    cols = []
    for s in module.basis_sets:
        e = module.basis_vector(s)
        cols += [e, module.hodge.j_matrix * e]
    phi = Matrix.from_columns(f2t, cols)
    rng = random.Random(len(diag))
    for _ in range(6):
        w = Vector(f2t, [f2t.random_element(rng, 1) for _ in range(module.hodge.space.dim)])
        sol = phi.solve(w)
        assert module.k_coordinates(w) == [module.algebra.element(sol[2 * i], sol[2 * i + 1])
                                           for i in range(len(module.basis_sets))]


def test_module_right_action_axioms(f2t, rng):
    module = _module(f2t, ["t", "1", "1", "1"])
    algebra = module.algebra
    for _ in range(8):
        a = algebra.element(f2t.random_element(rng, 1), f2t.random_element(rng, 1))
        b = algebra.element(f2t.random_element(rng, 1), f2t.random_element(rng, 1))
        w = Vector(f2t, [f2t.random_element(rng, 1) for _ in range(6)])
        assert module.right_action(module.right_action(w, a), b) \
            == module.right_action(w, a * b)
        # K-coordinates round trip
        coords = module.k_coordinates(w)
        assert module.from_k_coordinates(coords) == w


def test_g_is_k_bilinear(f2t, rng):
    module = _module(f2t, ["t", "1", "1", "1"])
    algebra = module.algebra
    for _ in range(6):
        a = algebra.element(f2t.random_element(rng, 1), f2t.random_element(rng, 1))
        u = Vector(f2t, [f2t.random_element(rng, 1) for _ in range(6)])
        v = Vector(f2t, [f2t.random_element(rng, 1) for _ in range(6)])
        assert module.g_value(module.right_action(u, a), v) == a * module.g_value(u, v)
        assert module.g_value(u, module.right_action(v, a)) == module.g_value(u, v) * a


def test_isometries_act_k_linearly(gf2, rng):
    # the exterior action of an isometry commutes with J (bimodule property)
    from char2forms.exterior import compound_matrix
    from char2forms.groups import defect3_generators
    module = _module(gf2, ["1", "1", "1", "1"])
    for a in defect3_generators(gf2):
        la = compound_matrix(a, 2)
        assert la * module.hodge.j_matrix == module.hodge.j_matrix * la


def test_normalize_split(f2t):
    delta_sq = f2t.parse("(t+1)^2")
    module = _module(f2t, ["1", "1", "1", delta_sq])
    assert module.split and module.hodge.delta == delta_sq
    normalized = normalize_split(module)
    assert normalized.hodge.delta.is_one()
    assert normalized.volume_rescale == f2t.parse("t+1")
    again = normalize_split(normalized)
    assert again.hodge.delta.is_one()
    nonsplit = _module(f2t, ["t", "1", "1", "1"])
    with pytest.raises(NotSplit):
        normalize_split(nonsplit)


def test_wz_submodule_identity_case(gf2):
    module = _module(gf2, ["1", "1", "1", "1"])
    basis, rho = wz_submodule(module)
    assert len(basis) == 3
    assert rho == Matrix.identity(gf2, 3)
    space = module.hodge.space
    # (e1^e2)z = e1^e2 + e3^e4 and so on
    assert basis[0] == space.basis_vector(gf2, (1, 2)) + space.basis_vector(gf2, (3, 4))
    z = module.z()
    for s in module.basis_sets:
        w = module.basis_vector(s)
        assert module.right_action(module.right_action(w, z), z).is_zero()


def test_wz_sum_squares_y_basis(gf2):
    # Y2 = (b2 ^ b4) z = b1 ^ b2 in the hyperbolic basis of the identity form
    module = _module(gf2, ["1", "1", "1", "1"])
    b = sum_squares_basis(gf2).columns()
    z = module.z()
    y2 = module.right_action(wedge(gf2, [b[1], b[3]]), z)
    assert y2 == wedge(gf2, [b[0], b[1]])
    y1 = module.right_action(wedge(gf2, [b[0], b[3]]), z)
    assert y1 == wedge(gf2, [b[0], b[3]]) + wedge(gf2, [b[1], b[2]])


def test_wz_h2_case_carries_m_factor(f2t):
    # (v1^v2)z = v1^v2 + m * v3^v4 once delta is normalized to 1: the factor
    # m is forced by J(v1^v2) = (c1 c2 / b) v3^v4 with b = m
    m = f2t.generator
    module = normalize_split(_module(f2t, [m, m, "1", "1"]))
    space = module.hodge.space
    z = module.z()
    w3z = module.right_action(space.basis_vector(f2t, (1, 2)), z)
    expected = space.basis_vector(f2t, (1, 2)) \
        + space.basis_vector(f2t, (3, 4)).scale(m)
    assert w3z == expected
    w1z = module.right_action(space.basis_vector(f2t, (1, 4)), z)
    assert w1z == space.basis_vector(f2t, (1, 4)) + space.basis_vector(f2t, (2, 3))


def test_wz_requires_normalized_split(f2t):
    module = _module(f2t, ["t", "1", "1", "1"])
    with pytest.raises(NotSplit):
        wz_submodule(module)
    split_unnormalized = _module(f2t, ["t", "t", "1", "1"])
    with pytest.raises(NotSplit):
        wz_submodule(split_unnormalized)



@pytest.mark.parametrize("diag", [["t", "t", "1", "1"], ["t", "t", "1", "1", "t+1", "t+1"]])
def test_wz_submodule_checks_every_column_of_j_w(f2t, diag):
    # "j fixes Wz" is one product J W; J changed on the row of one S^c moves
    # only the basis vector (e_S)z of Wz, and each such change must fail
    module = normalize_split(_module(f2t, diag))
    basis, rho = wz_submodule(module)
    assert rho == Matrix.identity(f2t, len(basis))
    data, space = module.hodge, module.hodge.space
    for s in module.basis_sets:
        q = space.position(space.complement(s))
        rows = [list(row) for row in data.j_matrix.entries]
        rows[q][q] += f2t.one()
        corrupted = dataclasses.replace(
            module, hodge=dataclasses.replace(data, j_matrix=Matrix(f2t, rows)))
        with pytest.raises(CheckFailed, match="j must fix Wz pointwise"):
            wz_submodule(corrupted)

def test_direct_g_examples(gf2):
    module = _module(gf2, ["1", "1", "1", "1"])
    space = module.hodge.space
    e12 = space.basis_vector(gf2, (1, 2))
    e34 = space.basis_vector(gf2, (3, 4))
    assert direct_g(e12, e12, module).is_one()
    assert direct_g(e12, e34, module) == module.algebra.j()


def test_direct_g_j_component_is_pf(f2t, rng):
    module = _module(f2t, ["t", "1", "1+t", "1"])
    for _ in range(8):
        u = Vector(f2t, [f2t.random_element(rng, 1) for _ in range(6)])
        v = Vector(f2t, [f2t.random_element(rng, 1) for _ in range(6)])
        value = direct_g(u, v, module)
        gy = module.hodge.pf_gram * v
        total = f2t.zero()
        for x, y in zip(u, gy):
            total = total + x * y
        assert module.algebra.parts(value)[1] == total
