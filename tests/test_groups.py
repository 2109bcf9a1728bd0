import random
from itertools import product
from pathlib import Path

import pytest

from char2forms import groups as G
from char2forms.cli import parse_document
from char2forms.exterior import compound_matrix, hodge
from char2forms.fields import GF2k
from char2forms.forms import BilinearForm, quadratic_data
from char2forms.kalgebra import KAlgebra, NotSplit, build_module, normalize_split, wz_submodule
from char2forms.linalg import Matrix, Vector
from char2forms.oracle import closure_order_matches, enumerate_isometries


def _rand_el(field, rng):
    return field.random_element(rng, size=1)


def test_is_isometry_examples(gf2, rng):
    ident = BilinearForm(Matrix.identity(gf2, 4))
    assert G.is_isometry(ident, Matrix.identity(gf2, 4))
    ht = BilinearForm(G.h_tilde_gram(gf2))
    assert G.is_isometry(ht, G.xi_matrix(gf2, 1, 0, 0))
    shear = Matrix(gf2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not G.is_isometry(ident, shear)


def test_similitude_multiplier_scalar(f2t):
    h = BilinearForm(Matrix.diagonal(f2t, [f2t.parse(x) for x in ("t", "1", "1", "1")]))
    s = f2t.parse("1+t")
    r = G.similitude_multiplier(h, Matrix.identity(f2t, 4) * s)
    assert r == s * s
    assert G.similitude_multiplier(h, Matrix.identity(f2t, 4)).is_one()


def test_similitude_multiplier_none_for_shear(gf2):
    ident = BilinearForm(Matrix.identity(gf2, 4))
    shear = Matrix(gf2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert G.similitude_multiplier(ident, shear) is None


def _all_sl2(ring):
    elements = list(ring.elements())
    one = ring.one()
    for a, b, c, d in product(elements, repeat=4):
        if a * d + b * c == one:
            yield Matrix(ring, [[a, b], [c, d]])


def test_sl2_decompose_swap(gf2):
    word = G.sl2_decompose(Matrix(gf2, [[0, 1], [1, 0]]))
    assert str(word) == "U(1) L(1) U(1)"


def test_sl2_decompose_identity(gf2):
    word = G.sl2_decompose(Matrix.identity(gf2, 2))
    assert word.evaluate() == Matrix.identity(gf2, 2)
    assert word.letters[0][0] == "L"  # the a-invertible branch


def test_sl2_decompose_exhaustive_small(gf2, gf4):
    count2 = 0
    for m in _all_sl2(gf2):
        assert G.sl2_decompose(m).evaluate() == m
        count2 += 1
    assert count2 == 6
    count4 = 0
    for m in _all_sl2(gf4):
        assert G.sl2_decompose(m).evaluate() == m
        count4 += 1
    assert count4 == 60


def test_sl2_decompose_split_local_ring(gf2):
    algebra = KAlgebra(gf2, 1)  # F2[z]/(z^2)
    count = 0
    for m in _all_sl2(algebra):
        assert G.sl2_decompose(m).evaluate() == m
        count += 1
    assert count == 48


def test_sl2_decompose_random_words(f2t, rng):
    for _ in range(30):
        mat = Matrix.identity(f2t, 2)
        for _ in range(rng.randrange(1, 5)):
            x = _rand_el(f2t, rng)
            mat = mat * (G.l2(f2t, x) if rng.randrange(2) else G.u2(f2t, x))
        word = G.sl2_decompose(mat)
        assert word.evaluate() == mat


def test_sl2_decompose_rejects(gf2):
    with pytest.raises(G.NotUnimodular):
        G.sl2_decompose(Matrix.zeros(gf2, 2, 2))


def test_hat_generators(gf2, gf4):
    for ring in (gf2, gf4):
        assert G.hat_l(ring, 0) == Matrix.identity(ring, 3)
        assert G.hat_u(ring, 0) == Matrix.identity(ring, 3)
        t = G.t_hat(ring)
        t_inv = t.inverse()
        for x in ring.elements():
            down_l = t_inv * G.hat_l(ring, x) * t
            down_u = t_inv * G.hat_u(ring, x) * t
            one_block = Matrix(ring, [[ring.one()]])
            pad_r = Matrix.zeros(ring, 1, 2)
            pad_c = Matrix.zeros(ring, 2, 1)
            assert down_l == Matrix.block([[one_block, pad_r], [pad_c, G.l2(ring, x)]])
            assert down_u == Matrix.block([[one_block, pad_r], [pad_c, G.u2(ring, x)]])


def test_hat_sigma_order_6(gf2):
    closure = G.generate_closure([G.hat_l(gf2, 1), G.hat_u(gf2, 1)])
    assert len(closure) == 6


def test_o3_standard_form_group(gf2, gf4):
    for ring in (gf2, gf4):
        data = G.o3_standard_form_group(ring)
        for g in data.generators:
            assert g.transpose() * data.f_gram * g == data.f_gram
    # over gf2, brute force over the 168 invertible 3x3 matrices gives exactly
    # the 6 generated elements
    data = G.o3_standard_form_group(gf2)
    result = enumerate_isometries(BilinearForm(data.f_gram))
    closure = G.generate_closure(list(data.generators))
    assert result.order == 6
    assert closure_order_matches(result, closure)


def test_o3_split_ring_strict_containment(gf2):
    # over the split ring F2[z]/(z^2) the hat L/U closure (a copy of SL2,
    # 48 elements) is a proper subgroup of the full orthogonal group of f:
    # exhaustive search finds 384 congruent matrices (all invertible)
    from itertools import product as iproduct
    algebra = KAlgebra(gf2, 1)
    els = list(algebra.elements())
    pos = {e: i for i, e in enumerate(els)}
    add = [[pos[a + b] for b in els] for a in els]
    mul = [[pos[a * b] for b in els] for a in els]
    one, zero = pos[algebra.one()], pos[algebra.zero()]

    def dot(u, v):
        s = zero
        for a, b in zip(u, v):
            s = add[s][mul[a][b]]
        return s

    vecs = list(iproduct(range(4), repeat=3))
    count = 0
    sample = None
    for c1 in vecs:
        if dot(c1, c1) != one:
            continue
        for c2 in vecs:
            if dot(c2, c2) != one or dot(c1, c2) != zero:
                continue
            for c3 in vecs:
                if dot(c3, c3) == one and dot(c1, c3) == zero and dot(c2, c3) == zero:
                    count += 1
                    sample = (c1, c2, c3)
    assert count == 384
    closure = G.generate_closure([G.hat_l(algebra, x) for x in els]
                                 + [G.hat_u(algebra, x) for x in els])
    assert len(closure) == 48
    # scaling one hyperbolic K-line by the unit j (j^2 = 1) is orthogonal but
    # lies outside the generated group
    j = algebra.j()
    outside = Matrix.diagonal(algebra, [j, algebra.one(), algebra.one()])
    gram = Matrix.identity(algebra, 3)
    assert outside.transpose() * gram * outside == gram
    assert outside not in set(closure)


def test_o3_kernel_invariance(gf4):
    # ker q = K u2 + K u3 for u2 = (1,1,0), u3 = (1,0,1) is invariant
    span = Matrix.from_columns(gf4, [Vector(gf4, [1, 1, 0]), Vector(gf4, [1, 0, 1])])
    for x in gf4.elements():
        for gen in (G.hat_l(gf4, x), G.hat_u(gf4, x)):
            for col in span.columns():
                assert span.solve(gen * col) is not None


def test_xi_is_additive_homomorphism(f2t, rng):
    for _ in range(10):
        x = tuple(_rand_el(f2t, rng) for _ in range(3))
        y = tuple(_rand_el(f2t, rng) for _ in range(3))
        prod_xy = G.xi_matrix(f2t, *x) * G.xi_matrix(f2t, *y)
        total = G.xi_matrix(f2t, x[0] + y[0], x[1] + y[1], x[2] + y[2])
        assert prod_xy == total


def test_xi_twisted_scalar_rule(f2t, rng):
    # (t1,t2,t3).s = (t1 s, t2 s, t3 s^2) makes xi F-linear at the group level
    for _ in range(10):
        s = _rand_el(f2t, rng)
        x = tuple(_rand_el(f2t, rng) for _ in range(3))
        y = tuple(_rand_el(f2t, rng) for _ in range(3))
        def act(v):
            return (v[0] * s, v[1] * s, v[2] * s * s)
        lhs = G.xi_matrix(f2t, *act((x[0] + y[0], x[1] + y[1], x[2] + y[2])))
        rhs = G.xi_matrix(f2t, *act(x)) * G.xi_matrix(f2t, *act(y))
        assert lhs == rhs


def test_sigma_normalizes_xi(gf2):
    ht = BilinearForm(G.h_tilde_gram(gf2))
    for b_mat in (G.l2(gf2, 1), G.u2(gf2, 1)):
        sig = G.sigma_matrix(b_mat)
        assert G.is_isometry(ht, sig)
        for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            xi = G.xi_matrix(gf2, *t)
            conj = sig * xi * sig.inverse()
            # stays in Xi: recover parameters from the matrix shape
            assert conj[1, 0].is_zero() and conj[2, 0].is_zero()
            assert G.is_isometry(ht, conj)
        # the central slice xi(0, 0, c) is fixed pointwise
        central = G.xi_matrix(gf2, 0, 0, 1)
        assert sig * central * sig.inverse() == central


def test_eta_identity_and_multiplicative(gf2, rng):
    module = build_module(hodge(BilinearForm(Matrix.identity(gf2, 4))))
    ident = Matrix.identity(gf2, 4)
    assert G.eta(module, ident) == Matrix.identity(module.algebra, 3)
    gens = G.defect3_generators(gf2)
    for _ in range(10):
        a = gens[rng.randrange(len(gens))]
        b = gens[rng.randrange(len(gens))]
        assert G.eta(module, a * b) == G.eta(module, a) * G.eta(module, b)


def test_eta_injective_on_defect3_group(gf2):
    module = build_module(hodge(BilinearForm(Matrix.identity(gf2, 4))))
    closure = G.generate_closure(G.defect3_generators(gf2))
    images = {G.eta(module, a) for a in closure}
    assert len(images) == len(closure) == 48


def test_defect3_hyperbolic_k_basis_gram(gf2):
    # on the K-basis b1^b4, b2^b4, b3^b4 the form g has Gram diag(1) + swap
    # (b1^b2 would be a z-multiple of b2^b4, hence no basis)
    from char2forms.exterior import wedge
    module = build_module(hodge(BilinearForm(Matrix.identity(gf2, 4))))
    algebra = module.algebra
    b = G.sum_squares_basis(gf2).columns()
    triple = [wedge(gf2, [b[0], b[3]]), wedge(gf2, [b[1], b[3]]), wedge(gf2, [b[2], b[3]])]
    cols = [module.k_coordinates(v) for v in triple]
    c = Matrix(algebra, [[cols[j][i] for j in range(3)] for i in range(3)])
    assert algebra.is_unit(c.det())
    one, zero = algebra.one(), algebra.zero()
    assert c.transpose() * module.g_gram * c == Matrix(
        algebra, [[one, zero, zero], [zero, zero, one], [zero, one, zero]])
    # the degenerate candidate: b1^b2 = (b2^b4) z
    z = module.z()
    assert wedge(gf2, [b[0], b[1]]) == module.right_action(wedge(gf2, [b[1], b[3]]), z)


def test_defect3_wz_action_is_full_sl2(gf2):
    # the 48-element isometry group induces exactly {diag(1, B): B in SL2(F2)}
    # on Wz in the Y basis (kernel Xi of order 8)
    from char2forms.exterior import wedge
    module = build_module(hodge(BilinearForm(Matrix.identity(gf2, 4))))
    b = G.sum_squares_basis(gf2).columns()
    z = module.z()
    y_basis = [module.right_action(wedge(gf2, [b[i], b[3]]), z) for i in range(3)]
    closure = G.generate_closure(G.defect3_generators(gf2))
    images = {G.eta_o(module, a, wz_basis=y_basis) for a in closure}
    assert len(images) == 6
    for img in images:
        assert img[0, 0].is_one()
        assert all(img[0, j].is_zero() and img[j, 0].is_zero() for j in (1, 2))
        block_det = img[1, 1] * img[2, 2] + img[1, 2] * img[2, 1]
        assert block_det.is_one()


def test_eta_preserves_g(gf2, f2t, rng):
    module = build_module(hodge(BilinearForm(Matrix.identity(gf2, 4))))
    for a in G.defect3_generators(gf2):
        assert G.preserves_g(module, G.eta(module, a))
    m = f2t.generator
    h1 = BilinearForm(G.h1_gram(f2t, m))
    module1 = build_module(hodge(h1))
    for _ in range(5):
        x = _rand_el(f2t, rng)
        image = G.eta(module1, G.h1_isometry_l(f2t, x))
        assert G.preserves_g(module1, image)


def test_eta_rejects_non_similitude(gf2):
    module = build_module(hodge(BilinearForm(Matrix.identity(gf2, 4))))
    shear = Matrix(gf2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(G.NotSimilitude):
        G.eta(module, shear)


def test_h1_eta_images_are_hat_matrices(f2t, rng):
    m = f2t.generator
    module = build_module(hodge(BilinearForm(G.h1_gram(f2t, m))))
    for _ in range(8):
        x = _rand_el(f2t, rng)
        img_l = G.eta(module, G.h1_isometry_l(f2t, x))
        img_u = G.eta(module, G.h1_isometry_u(f2t, x))
        assert img_l == G.hat_l(module.algebra, module.algebra.coerce(x))
        assert img_u == G.hat_u(module.algebra, module.algebra.coerce(x))
        for img in (img_l, img_u):
            assert all(module.algebra.parts(img[i, j])[1].is_zero()
                       for i in range(3) for j in range(3))


def test_h1_similitude_multiplier(f2t, rng):
    m = f2t.generator
    h1 = BilinearForm(G.h1_gram(f2t, m))
    for _ in range(8):
        a, b = _rand_el(f2t, rng), _rand_el(f2t, rng)
        expected = a * a + b * b * m
        if expected.is_zero():
            continue
        mat, mult = G.h1_similitude(f2t, m, a, b)
        assert mult == expected
        assert G.similitude_multiplier(h1, mat) == expected


def test_eta_scales_g_by_square_of_multiplier(f2t):
    m = f2t.generator
    h1 = BilinearForm(G.h1_gram(f2t, m))
    module = build_module(hodge(h1))
    mat, mult = G.h1_similitude(f2t, m, f2t.zero(), f2t.one())
    image = G.eta(module, mat)
    assert G.eta_multiplier(module, mat) == mult * mult
    assert G.scales_g(module, image, mult * mult)


def test_h2_group_is_elementary_abelian(f2t, rng):
    m = f2t.generator
    h2 = BilinearForm(G.h2_gram(f2t, m))
    for _ in range(8):
        p1 = [_rand_el(f2t, rng) for _ in range(3)]
        p2 = [_rand_el(f2t, rng) for _ in range(3)]
        x1 = G.h2_isometry(f2t, m, *p1)
        x2 = G.h2_isometry(f2t, m, *p2)
        assert G.is_isometry(h2, x1)
        assert x1 * x2 == x2 * x1
        assert x1 * x1 == Matrix.identity(f2t, 4)
        total = G.h2_isometry(f2t, m, *(a + b for a, b in zip(p1, p2)))
        assert x1 * x2 == total


def test_h2_similitude_multiplier(f2t, rng):
    m = f2t.generator
    h2 = BilinearForm(G.h2_gram(f2t, m))
    for _ in range(8):
        a, b = _rand_el(f2t, rng), _rand_el(f2t, rng)
        expected = a * a + b * b * m
        if expected.is_zero():
            continue
        mat, mult = G.h2_similitude(f2t, m, a, b)
        assert G.similitude_multiplier(h2, mat) == expected == mult


def test_h2_eta_o_matrix_and_kernel(f2t, rng):
    m = f2t.generator
    module = normalize_split(build_module(hodge(BilinearForm(G.h2_gram(f2t, m)))))
    wzb, _ = wz_submodule(module)
    wz_order = [wzb[2], wzb[1], wzb[0]]  # (v1^v4)z, (v1^v3)z, (v1^v2)z
    for _ in range(8):
        a, b, c = (_rand_el(f2t, rng) for _ in range(3))
        x = G.h2_isometry(f2t, m, a, b, c)
        got = G.eta_o(module, x, wz_basis=wz_order)
        assert got == G.h2_eta_o_matrix(f2t, m, a, b, c)
        # kernel of the Wz action: a = c with b free; those elements square to
        # the identity on all of W
        x_ker = G.h2_isometry(f2t, m, a, b, a)
        assert G.eta_o(module, x_ker, wz_basis=wz_order) == Matrix.identity(f2t, 3)
        la = compound_matrix(x_ker, 2)
        assert la * la == Matrix.identity(f2t, 6)


def test_defect1_gram_hypotheses(f2t, f2tu):
    t = f2tu.parse("t")
    u = f2tu.parse("u")
    G.defect1_gram(f2tu, t, u)  # valid
    with pytest.raises(G.HypothesisViolated):
        # c3*c4 = t * t^3 = t^4 is a square
        G.defect1_gram(f2tu, t, f2tu.parse("t^3"))
    with pytest.raises(G.HypothesisViolated):
        # 1, t, t^2+t are dependent over the squares: defect comes out 2
        G.defect1_gram(f2t, f2t.parse("t"), f2t.parse("t^2+t"))


def test_defect1_group_law_and_eta(f2tu, rng):
    t, u = f2tu.parse("t"), f2tu.parse("u")
    gram = G.defect1_gram(f2tu, t, u)
    form = BilinearForm(gram)
    module = G.defect1_module(f2tu, t, u)
    c_change, w_gram = G.defect1_w_basis(module)
    c_inv = c_change.inverse()
    v_basis = G.defect1_v_basis(f2tu)
    v_inv = v_basis.inverse()
    expected_gram = Matrix.diagonal(module.algebra,
                                    [module.algebra.coerce(t),
                                     module.algebra.coerce(t),
                                     module.algebra.one()])
    assert w_gram == expected_gram
    for _ in range(8):
        x, y = _rand_el(f2tu, rng), _rand_el(f2tu, rng)
        ux = G.defect1_isometry(f2tu, x)
        uy = G.defect1_isometry(f2tu, y)
        assert G.is_isometry(form, ux)
        assert ux * uy == G.defect1_isometry(f2tu, x + y)
        a_v = v_inv * ux * v_basis
        img = c_inv * G.eta(module, a_v) * c_change
        assert img == G.hat_u(module.algebra, module.algebra.coerce(x))
        assert all(module.algebra.parts(img[i, j])[1].is_zero()
                   for i in range(3) for j in range(3))


def test_defect1_isotropic_vector(f2tu):
    t, u = f2tu.parse("t"), f2tu.parse("u")
    module = G.defect1_module(f2tu, t, u)
    c_change, _ = G.defect1_w_basis(module)
    w1 = module.from_k_coordinates([c_change[i, 0] for i in range(3)])
    w2 = module.from_k_coordinates([c_change[i, 1] for i in range(3)])
    assert module.g_value(w1 + w2, w1 + w2).is_zero()
    assert not module.g_value(w1, w1).is_zero()


def test_defect0_nonsplit_family(f2tu, rng):
    # a = t, b = t + 1 (rho = 1), c = u: entries 1, t, u, u(t+1) independent
    t, u = f2tu.parse("t"), f2tu.parse("u")
    a, b, c = t, f2tu.parse("t+1"), u
    gram = G.defect0_gram(f2tu, a, c, b)
    form = BilinearForm(gram)
    assert quadratic_data(form).defect == 0
    for _ in range(8):
        x, y = _rand_el(f2tu, rng), _rand_el(f2tu, rng)
        if x.is_zero() and y.is_zero():
            continue
        mat, mult = G.defect0_nonsplit_similitude(f2tu, a, b, x, y)
        assert G.similitude_multiplier(form, mat) == mult == x * x + y * y * a


def test_defect0_nonsplit_constraint_chain(f2tu, rng):
    # y1(y1 rho + y2 b)c + y2(y1 + y2 rho)cb = rho c (y1^2 + y2^2 b)
    for _ in range(10):
        rho, b, c, y1, y2 = (_rand_el(f2tu, rng) for _ in range(5))
        lhs = y1 * (y1 * rho + y2 * b) * c + y2 * (y1 + y2 * rho) * c * b
        rhs = rho * c * (y1 * y1 + y2 * y2 * b)
        assert lhs == rhs


def test_defect0_split_x_squares(f2tu, rng):
    t, u = f2tu.parse("t"), f2tu.parse("u")
    form = BilinearForm(G.defect0_gram(f2tu, t, u, t))
    for _ in range(8):
        xs = [_rand_el(f2tu, rng) for _ in range(4)]
        if all(x.is_zero() for x in xs):
            continue
        mat, mult = G.defect0_split_element(f2tu, t, u, *xs)
        assert G.similitude_multiplier(form, mat) == mult
        assert mat * mat == Matrix.identity(f2tu, 4) * mult


def test_classify_case_tags(gf2, f2t, f2tu):
    ident = BilinearForm(Matrix.identity(gf2, 4))
    assert G.classify(ident).case == "defect3"
    t = f2t.generator
    rep_h1 = G.classify(BilinearForm(G.h1_gram(f2t, t)))
    assert (rep_h1.case, rep_h1.case_data["variant"]) == ("defect2_nonsplit", "H1")
    rep_h2 = G.classify(BilinearForm(G.h2_gram(f2t, t)))
    assert (rep_h2.case, rep_h2.case_data["variant"]) == ("defect2_split", "H2")
    tt, uu = f2tu.parse("t"), f2tu.parse("u")
    assert G.classify(BilinearForm(G.defect1_gram(f2tu, tt, uu))).case == "defect1"
    rep0 = G.classify(BilinearForm(G.defect0_gram(f2tu, tt, uu, tt)))
    assert rep0.case == "defect0" and rep0.case_data["subcase"] == "split"


def test_report_claims_come_from_the_case_table(gf2, f2tu):
    # a report's claims are its row of CASES, the multipliers and the note
    # taken from the sub-case
    rep = G.classify(BilinearForm(Matrix.identity(gf2, 4)))
    assert [rep.predicted_order(q) for q in (2, 4)] == [48, 3840]
    tt, uu = f2tu.parse("t"), f2tu.parse("u")
    rep0 = G.classify(BilinearForm(G.defect0_gram(f2tu, tt, uu, tt + uu)))
    assert rep0.case_data["subcase"] == "none"
    assert (rep0.multipliers, rep0.notes[0]) == G.CASES["defect0"].subcases["none"]
    # the rows partition the (defect, K split) pairs
    pairs = [(row.defect, split) for row in G.CASES.values() for split in row.k_split]
    assert sorted(pairs) == [(0, False), (0, True), (1, False), (2, False), (2, True),
                             (3, True)]


def test_classify_normal_form_congruence(f2t, f2tu, rng):
    fixtures = [BilinearForm(Matrix.diagonal(f2t, [f2t.parse(s)
                                                   for s in ("1", "t", "1+t", "1")])),
                BilinearForm(Matrix.diagonal(f2t, [f2t.parse(s)
                                                   for s in ("1", "t", "1+t", "t^2+t")]))]
    for form in fixtures:
        rep = G.classify(form)
        s = rep.normalizer
        assert s.transpose() * form.gram * s == rep.normal_gram * rep.scale
        for g in rep.generators:
            if g.multiplier.is_one():
                assert G.is_isometry(form, g.matrix)
            else:
                assert G.similitude_multiplier(form, g.matrix) == g.multiplier


def test_classify_scrambled_input(gf2, f2t, rng):
    # congruent scrambles land in the same case with verified generators
    t = f2t.generator
    one = f2t.one()
    base = BilinearForm(Matrix.diagonal(f2t, [t, one, one, one]))
    done = 0
    while done < 3:
        s = Matrix(f2t, [[_rand_el(f2t, rng) for _ in range(4)] for _ in range(4)])
        if s.det().is_zero():
            continue
        moved = BilinearForm(s.transpose() * base.gram * s)
        rep = G.classify(moved)
        assert rep.case == "defect2_nonsplit"
        for g in rep.generators:
            if g.multiplier.is_one():
                assert G.is_isometry(moved, g.matrix)
        done += 1


def test_classify_generators_are_moved_once_on_read(f2t):
    # the report keeps the generators in the normal-form coordinates and
    # computes S g S^-1 on the first read of `generators` only
    t, one = f2t.generator, f2t.one()
    s = Matrix(f2t, [[1, t, 0, 1], [0, 1, t + one, 0], [0, 0, 1, t], [0, 0, 0, 1]])
    base = Matrix.diagonal(f2t, [t, t, one, one])
    rep = G.classify(BilinearForm(s.transpose() * base * s))
    assert rep.case == "defect2_split"
    moved = rep.generators
    assert rep.generators is moved
    n, n_inv = rep.normalizer, rep.normalizer.inverse()
    assert len(moved) == len(rep.normal_generators) > 0
    for g, h in zip(rep.normal_generators, moved):
        assert (h.matrix, h.multiplier) == (n * g.matrix * n_inv, g.multiplier)


def test_classify_double_rewrite(f2t):
    # diag(1, t, 1+t, 1): both rewriting steps fire, discriminant t+t^2 is not
    # a square, so the result is the three-equal-entries normal form
    entries = [f2t.parse(s) for s in ("1", "t", "1+t", "1")]
    rep = G.classify(BilinearForm(Matrix.diagonal(f2t, entries)))
    assert rep.case == "defect2_nonsplit"
    assert not rep.case_data["m"].is_square()


def test_classify_defect0_no_family(f2tu):
    # diagonal (1, t, u, u*(t^2+t)): b = t^2+t, a + b = t^2 square? t + t^2 + t
    # = t^2 -> square, so the non-split family applies; force the "none"
    # branch with b = t^2 u ... use entries where a+b is not a square and a != b
    one = f2tu.one()
    t, u = f2tu.parse("t"), f2tu.parse("u")
    b = f2tu.parse("t+u")  # a + b = u: not a square; a != b
    gram = G.defect0_gram(f2tu, t, u, b)
    rep = G.classify(BilinearForm(gram))
    assert rep.case_data["subcase"] == "none"
    assert rep.generators == ()


def test_build_case_wrappers(gf2, f2t, f2tu):
    # each case is built as classify(BilinearForm(<normal-form builder>)); the
    # builders reject parameters outside the case's hypotheses
    t, one = f2t.generator, f2t.one()
    assert G.classify(BilinearForm(Matrix.identity(gf2, 4))).case == "defect3"
    assert G.classify(BilinearForm(G.h1_gram(f2t, t))).case == "defect2_nonsplit"
    assert G.classify(BilinearForm(G.h2_gram(f2t, t))).case == "defect2_split"
    for builder in (G.h1_gram, G.h2_gram):
        with pytest.raises(G.HypothesisViolated):
            builder(f2t, one)
    tt, uu = f2tu.parse("t"), f2tu.parse("u")
    assert G.classify(BilinearForm(G.defect1_gram(f2tu, tt, uu))).case == "defect1"
    rep = G.classify(BilinearForm(G.defect0_gram(f2tu, tt, uu, tt)))
    assert rep.case_data["subcase"] == "split"
    with pytest.raises(G.HypothesisViolated):
        G.defect0_gram(f2tu, tt, uu, tt * uu)


def test_classify_defect0_nonsplit_golden():
    # the scrambled defect0_gram(F, t, u, t+1) of the goldens: a + b = 1 is a
    # square and a != b, so the non-split family applies
    path = Path(__file__).parent / "golden" / "defect0_nonsplit_f2tu.txt"
    doc = parse_document(str(path), path.read_text())
    field, form = doc.field, BilinearForm(doc.matrix)
    rep = G.classify(form)
    data = rep.case_data
    assert (rep.case, data["subcase"]) == ("defect0", "nonsplit")
    assert data["a"] + data["b"] == field.one() and data["a"] != data["b"]
    assert data["rho"] == field.one()
    # the printed multiplier (`similitude multiplier=t+1`), checked on the
    # generators moved to the input coordinates
    assert [str(g.multiplier) for g in rep.generators] == ["t+1"]
    for g in rep.generators:
        assert G.similitude_multiplier(form, g.matrix) == g.multiplier


def test_classify_defect0_from_parameters(f2tu):
    # r = t, s = 0, c = u, t-parameter = 0: a = b = t, the split sub-case
    tt, uu = f2tu.parse("t"), f2tu.parse("u")
    zero = f2tu.zero()
    gram, u_basis = G.defect0_gram_from_parameters(f2tu, tt, zero, uu, zero)
    moved = u_basis.transpose() * gram * u_basis
    assert moved == G.defect0_gram(f2tu, tt, uu, tt)
    rep = G.classify(BilinearForm(gram))
    assert rep.case == "defect0" and rep.case_data["subcase"] == "split"
    # a nontrivial shear: r = t, s = 1, c = u, t-parameter = 1 gives a = t+1,
    # b = t+1 (split again), with a genuinely non-diagonal input Gram
    one = f2tu.one()
    gram2, u2 = G.defect0_gram_from_parameters(f2tu, tt, one, uu, one)
    assert not gram2.is_diagonal()
    a = tt + one
    assert u2.transpose() * gram2 * u2 == G.defect0_gram(f2tu, a, uu, a)
    rep2 = G.classify(BilinearForm(gram2))
    assert rep2.case == "defect0" and rep2.case_data["subcase"] == "split"


def test_classify_rejects(gf2, f2t):
    with pytest.raises(Exception):
        G.classify(BilinearForm(Matrix.identity(gf2, 3)))
    degenerate = Matrix.diagonal(gf2, [1, 1, 1, 0])
    with pytest.raises(Exception):
        G.classify(BilinearForm(degenerate))


def test_hypothesis_validation(f2t):
    with pytest.raises(G.HypothesisViolated):
        G.h1_gram(f2t, f2t.parse("t^2"))
    with pytest.raises(G.HypothesisViolated):
        G.defect0_gram(f2t, f2t.parse("t"), f2t.parse("t"), f2t.one())


def _bfs_closure(generators):
    """Reference closure: breadth-first, one product per element and generator."""
    identity = Matrix.identity(generators[0].ring, generators[0].nrows)
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                p = m * g
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return seen


@pytest.mark.parametrize("ring_name", ["gf2", "gf4", "gf8", "split_k", "gf512"])
def test_closure_matches_breadth_first_reference(ring_name, gf2, gf4):
    # GF(2), GF(4) and GF(8) close on packed rows; the split K-algebra
    # F2[z]/(z^2) and GF(2^9) have no packed view and close on payload rows
    if ring_name == "split_k":
        ring = KAlgebra(gf2, 1)
        pool = [G.hat_l(ring, x) for x in ring.elements() if not x.is_zero()] + \
            [G.hat_u(ring, x) for x in ring.elements() if not x.is_zero()]
    elif ring_name == "gf512":
        # hat L_g and hat U_1 generate a group of order 1,022, and each of
        # their two products one of order 511; every subset stays inside it
        ring = GF2k(9, 0b1000010001)
        lg, u1 = G.hat_l(ring, ring.generator), G.hat_u(ring, 1)
        pool = [lg, u1, lg * u1, u1 * lg]
    elif ring_name == "gf8":
        # diag(1, hat L/U) over GF(8): 12-bit packed rows, so every product
        # takes two table chunks; the groups stay within SL2(8) (order 504)
        ring = GF2k(3, 0b1011)
        one, zeros = Matrix.identity(ring, 1), Matrix.zeros(ring, 1, 3)
        pool = [Matrix.block([[one, zeros], [zeros.transpose(), hat(ring, x)]])
                for hat in (G.hat_l, G.hat_u) for x in ring.elements() if not x.is_zero()]
    else:
        ring = gf2 if ring_name == "gf2" else gf4
        pool = G.defect3_generators(ring)
    rng = random.Random(0)
    for _ in range(6):
        gens = rng.sample(pool, rng.randint(2, 4))
        closure = G.generate_closure(gens)
        assert len(closure) == len(set(closure))
        assert set(closure) == _bfs_closure(gens)
    # the cap admits a group of exactly its size and no larger
    assert len(G.generate_closure(gens, cap=len(closure))) == len(closure)
    with pytest.raises(G.EnumerationTooLarge):
        G.generate_closure(gens, cap=len(closure) - 1)


def test_closure_order_on_payload_rows_lists_no_element(gf2, monkeypatch):
    # split K and GF(2^9) have no packed view: there too the chain's order
    # is the product of its orbit sizes, and `len` lists no element
    from char2forms import _smallfield
    from char2forms._smallfield import try_int_field

    def no_listing(*args):
        raise AssertionError("listed the elements of a group")

    monkeypatch.setattr(_smallfield, "chain_products", no_listing)
    split = KAlgebra(gf2, 1)
    units = [x for x in split.elements() if not x.is_zero()]
    gf512 = GF2k(9, 0b1000010001)
    g = gf512.generator
    for gens, order in (([G.hat_l(split, x) for x in units]
                         + [G.hat_u(split, x) for x in units], 48),
                        ([Matrix.diagonal(gf512, [g, 1])], 511),
                        ([G.hat_l(gf512, g), G.hat_u(gf512, 1)], 1022)):
        assert try_int_field(gens[0].ring) is None
        closure = G.generate_closure(gens)
        assert len(closure) == order
        with pytest.raises(AssertionError, match="listed the elements"):
            closure.rows


def _packed_bfs_closure(intf, generators):
    """Reference closure on packed rows: breadth-first, one product per
    element and generator, with no chain."""
    identity = intf.identity(len(generators[0]))
    right = [intf.row_tables(g) for g in generators]
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for m in frontier:
            for tables in right:
                p = intf.mat_mul(m, tables)
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return seen


@pytest.mark.parametrize("ring_name", ["gf2", "gf4"])
def test_chain_order_matches_breadth_first_with_and_without_bound(ring_name, gf2, gf4,
                                                                  monkeypatch):
    # seeded subsets of the classify generators of the identity form, some
    # with a shear that is invertible but no isometry: the chain's order is
    # the breadth-first order whether or not the enumerated group is offered
    # as a bound, the bound is used only when every generator is an
    # isometry, and a chain of the whole group has the oracle's orbits
    from char2forms._smallfield import IntField, try_int_field
    ring = gf2 if ring_name == "gf2" else gf4
    intf = try_int_field(ring)
    form = BilinearForm(Matrix.identity(ring, 4))
    result = enumerate_isometries(form)
    pool = [g.matrix for g in G.classify(form).generators if g.multiplier.is_one()]
    o, z = ring.one(), ring.zero()
    shear = Matrix(ring, [[o, o, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o]])
    assert not G.is_isometry(form, shear) and not shear.det().is_zero()
    calls = [0]
    real = IntField.mat_mul

    def counting(self, a, right):
        calls[0] += 1
        return real(self, a, right)

    monkeypatch.setattr(IntField, "mat_mul", counting)
    rng = random.Random(23)
    whole = with_shear = 0
    for trial in range(8):
        gens = rng.sample(pool, rng.randint(2, len(pool)))
        if trial % 3 == 2:
            gens = gens[:2] + [shear]
        reference = _packed_bfs_closure(intf, [intf.encode_matrix(g) for g in gens])
        chains, products = [], []
        for within in (None, result):
            start = calls[0]
            chains.append(G.generate_closure(gens, within=within))
            products.append(calls[0] - start)
        for chain in chains:
            assert len(chain) == len(reference)
            assert set(chain.rows) == reference
        isometries = shear not in gens
        assert closure_order_matches(result, chains[1]) == (
            isometries and len(reference) == result.order)
        if isometries and len(reference) == result.order:
            whole += 1
            assert products[1] < products[0]  # the bound cut the search short
            for j, (ours, theirs) in enumerate(zip(chains[1].transversals,
                                                    result.transversals)):
                column = {tuple(row >> intf.k * j & intf.order - 1 for row in t) for t in ours}
                assert column == {tuple(row >> intf.k * j & intf.order - 1 for row in t)
                                  for t in theirs}
        with_shear += not isometries
    assert whole and with_shear


def test_generate_closure_rejects_singular_generators(gf4):
    singular = Matrix.diagonal(gf4, [gf4.one()] * 3 + [gf4.zero()])
    with pytest.raises(G.GroupError):
        G.generate_closure([Matrix.identity(gf4, 4), singular])


def test_generate_closure_cap(gf2):
    gens = G.defect3_generators(gf2)
    with pytest.raises(G.EnumerationTooLarge):
        G.generate_closure(gens, cap=10)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records its first argument."""
    seen = []
    real = getattr(owner, name)

    def wrapper(first, *args):
        seen.append(first)
        return real(first, *args)
    monkeypatch.setattr(owner, name, wrapper)
    return seen


def test_eta_reads_the_congruence_and_compound_its_generator_keeps(f2t, monkeypatch):
    # is_isometry and the similitude guard of eta take A^T H A of one
    # generator by the same Gram matrix, and eta and eta_o take Lambda^2 A:
    # each is computed once per generator instance, and an equal generator
    # built apart computes its own
    from char2forms import linalg
    m = f2t.generator
    h2 = BilinearForm(G.h2_gram(f2t, m))
    module = normalize_split(build_module(hodge(h2)))
    assert module.hodge.form is h2
    wzb, _ = wz_submodule(module)
    wz_order = [wzb[2], wzb[1], wzb[0]]
    congruences = _counting(monkeypatch, linalg, "congruence_rows")
    minors = _counting(monkeypatch, Matrix, "minors")
    for a, b, c in ((1, m, 0), (m + 1, 0, 1)):
        gen = G.h2_isometry(f2t, m, a, b, c)
        assert G.is_isometry(h2, gen)
        image = G.eta(module, gen)
        assert len(congruences) == 1 and len(minors) == 1
        assert G.eta_o(module, gen, wz_basis=wz_order) == G.h2_eta_o_matrix(f2t, m, a, b, c)
        assert G.eta(module, gen) == image
        assert len(congruences) == 1 and minors == [gen]
        twin = G.h2_isometry(f2t, m, a, b, c)
        assert twin == gen and twin is not gen
        assert G.eta(module, twin) == image
        assert len(congruences) == 2 and minors == [gen, twin]
        del congruences[:], minors[:]


def test_eta_rejects_a_corrupted_generator_is_isometry_has_seen(f2t):
    # the memo never stands in for the check: a generator that is not a
    # similitude is refused by eta after is_isometry has taken its congruence
    m = f2t.generator
    h1 = BilinearForm(G.h1_gram(f2t, m))
    module = build_module(hodge(h1))
    gen = G.h1_isometry_l(f2t, m + 1)
    rows = [list(row) for row in gen.entries]
    rows[0][1] += f2t.one()
    bad = Matrix(f2t, rows)
    assert G.is_isometry(h1, gen) and not G.is_isometry(h1, bad)
    assert G.similitude_multiplier(h1, bad) is None
    with pytest.raises(G.NotSimilitude):
        G.eta(module, bad)
    assert G.eta(module, gen) == G.hat_l(module.algebra, module.algebra.coerce(m + 1))


def test_eta_o_refuses_a_map_that_moves_wz(f2t):
    # one elimination solves for all columns of Lambda^2 A W; a shear moves
    # Wz off itself, so a column has no solution and eta_o raises NotSplit
    m = f2t.generator
    module = normalize_split(build_module(hodge(BilinearForm(G.h2_gram(f2t, m)))))
    shear = Matrix(f2t, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotSplit):
        G.eta_o(module, shear)
    assert G.eta_o(module, Matrix.identity(f2t, 4)) == Matrix.identity(f2t, 3)
