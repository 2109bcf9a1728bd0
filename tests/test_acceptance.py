"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints one PASS line on success (visible with pytest -s); pytest -v
shows one line per criterion either way.  Runtime bounds are asserted where
the criterion states one.
"""

import random
import time
from itertools import product

from char2forms import groups as G
from char2forms.exterior import (alt_matrix, compound_matrix, hodge, hodge_identities,
                                 pq)
from char2forms.fields import GF2, GF2k, RationalFunctionField
from char2forms.forms import BilinearForm, orthogonalize
from char2forms.kalgebra import KAlgebra, build_module, normalize_split, wz_submodule
from char2forms.linalg import Matrix, Vector
from char2forms.oracle import (brute_pq_scalar, closure_order_matches,
                               enumerate_isometries)

GF2_FIELD = GF2()
GF4_FIELD = GF2k(2, 0b111)
F2T = RationalFunctionField(GF2_FIELD, "t")
F2TU = RationalFunctionField(F2T, "u")

SEED = 0x5EED


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def _random_nonzero(field, rng):
    while True:
        x = field.random_element(rng, size=1)
        if not x.is_zero():
            return x


def test_criterion_01_defect3_order_gf2():
    start = time.time()
    form = BilinearForm(Matrix.identity(GF2_FIELD, 4))
    report = G.classify(form)
    assert report.case == "defect3"
    assert "SL2(F) semidirect F^2" in report.description
    assert report.predicted_order(2) == 48 == 6 * 4 * 2
    result = enumerate_isometries(form)
    assert result.method == "full_gl_scan"
    assert result.order == 48
    closure = G.generate_closure([g.matrix for g in report.generators])
    assert closure_order_matches(result, closure)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"defect-3 order over GF(2) is exactly 48 ({elapsed:.2f}s)")


def test_criterion_02_defect3_order_gf4():
    start = time.time()
    form = BilinearForm(Matrix.identity(GF4_FIELD, 4))
    result = enumerate_isometries(form)
    assert result.method == "backtracking"
    assert result.order == 3840 == 60 * 16 * 4
    elapsed = time.time() - start
    assert elapsed < 60.0
    # the generated group agrees with the exhaustive enumeration elementwise
    closure = G.generate_closure(G.defect3_generators(GF4_FIELD))
    assert closure_order_matches(result, closure)
    _report(2, f"defect-3 order over GF(4) is exactly 3840, generators agree "
               f"({elapsed:.2f}s)")


def test_criterion_03_o3_generators_gf2():
    start = time.time()
    form = BilinearForm(Matrix.identity(GF2_FIELD, 3))
    result = enumerate_isometries(form)
    closure = G.generate_closure([G.hat_l(GF2_FIELD, 1), G.hat_u(GF2_FIELD, 1)])
    assert result.order == len(closure) == 6
    assert set(result.elements) == set(closure)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(3, f"O(K^3,f) over GF(2) equals the 6-element generated group "
               f"({elapsed:.2f}s)")


def _hodge_fixtures():
    fixtures = [BilinearForm(Matrix.identity(GF2_FIELD, 4)),
                BilinearForm(G.h_tilde_gram(GF2_FIELD)),
                BilinearForm(Matrix.identity(GF4_FIELD, 4)),
                BilinearForm(Matrix.diagonal(GF4_FIELD, [GF4_FIELD.generator,
                                                         GF4_FIELD.one(),
                                                         GF4_FIELD.generator + 1,
                                                         GF4_FIELD.generator]))]
    return fixtures


def test_criterion_04_hodge_identities():
    rng = random.Random(SEED)
    checked = 0
    for form in _hodge_fixtures():
        for name, ok, detail in hodge_identities(hodge(form)):
            assert ok, (name, detail)
        checked += 1
    for _ in range(50):
        diag = [_random_nonzero(F2T, rng) for _ in range(4)]
        form = BilinearForm(Matrix.diagonal(F2T, diag))
        for name, ok, detail in hodge_identities(hodge(form)):
            assert ok, (name, detail, [str(d) for d in diag])
        checked += 1
    _report(4, f"all four pairing identities hold exactly on 36 basis pairs "
               f"for {checked} forms")


def test_criterion_05_j_squared_delta():
    rng = random.Random(SEED + 1)
    forms = _hodge_fixtures()
    # non-diagonal inputs: h~, the hyperbolic-block shape, and scrambles
    one, zero, t = F2T.one(), F2T.zero(), F2T.generator
    forms.append(BilinearForm(Matrix(F2T, [[zero, one, zero, zero],
                                           [one, one, zero, zero],
                                           [zero, zero, t, zero],
                                           [zero, zero, zero, one + t]])))
    base = BilinearForm(Matrix.diagonal(F2T, [t, one, one, one]))
    count = 0
    while count < 5:
        s = Matrix(F2T, [[F2T.random_element(rng, 1) for _ in range(4)]
                         for _ in range(4)])
        if s.det().is_zero():
            continue
        forms.append(BilinearForm(s.transpose() * base.gram * s))
        count += 1
    for form in forms:
        for direct in (form, BilinearForm(
                Matrix.diagonal(form.field, orthogonalize(form)[1]))):
            if direct.is_degenerate():
                continue
            data = hodge(direct)
            ident = Matrix.identity(direct.field, 6)
            assert data.j_matrix * data.j_matrix == ident * data.delta
    _report(5, f"J^2 = delta*id exactly for {len(forms)} fixtures, raw and "
               f"orthogonalized")


def test_criterion_06_klein_quadric():
    start = time.time()
    for field, size in ((GF2_FIELD, 64), (GF4_FIELD, 4096)):
        s = brute_pq_scalar(field)
        count = 0
        for coords in product(list(field.elements()), repeat=6):
            x = Vector(field, coords)
            assert pq(x) * pq(x) == s * alt_matrix(x).det()
            count += 1
        assert count == size
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(6, f"Pq(X)^2 = s*det over all 64 + 4096 two-vectors with one s "
               f"({elapsed:.2f}s)")


def test_criterion_07_sl2_decomposition():
    def all_sl2(ring):
        one = ring.one()
        for a, b, c, d in product(list(ring.elements()), repeat=4):
            if a * d + b * c == one:
                yield Matrix(ring, [[a, b], [c, d]])

    counts = {}
    for name, ring, expected in (("SL2(F2)", GF2_FIELD, 6),
                                 ("SL2(F4)", GF4_FIELD, 60),
                                 ("SL2(F2[z]/(z^2))", KAlgebra(GF2_FIELD, 1), 48)):
        n = 0
        for m in all_sl2(ring):
            assert G.sl2_decompose(m).evaluate() == m
            n += 1
        assert n == expected
        counts[name] = n
    rng = random.Random(SEED + 2)
    for _ in range(100):
        mat = Matrix.identity(F2T, 2)
        for _ in range(rng.randrange(1, 6)):
            x = F2T.random_element(rng, 1)
            mat = mat * (G.l2(F2T, x) if rng.randrange(2) else G.u2(F2T, x))
        assert G.sl2_decompose(mat).evaluate() == mat
    _report(7, f"L/U words reproduce every element: {counts} plus 100 seeded "
               f"products over F2(t)")


def _split_fixtures():
    t = F2T.generator
    u = F2TU.parse("u")
    out = []
    # defect 3 over GF(2) and GF(4)
    for field in (GF2_FIELD, GF4_FIELD):
        form = BilinearForm(Matrix.identity(field, 4))
        out.append(("defect3/" + field.describe(), form, None))
    # defect 2 split over F2(t)
    out.append(("defect2-split/f2t", BilinearForm(G.h2_gram(F2T, t)), t))
    # defect 0 split over F2(t)(u)
    out.append(("defect0-split/f2tu",
                BilinearForm(G.defect0_gram(F2TU, F2TU.parse("t"), u, F2TU.parse("t"))),
                None))
    return out


def test_criterion_08_split_module_suite():
    rng = random.Random(SEED + 3)
    for name, form, m_param in _split_fixtures():
        field = form.field
        basis, diag = orthogonalize(form)
        module = normalize_split(build_module(hodge(BilinearForm(
            Matrix.diagonal(field, diag)))))
        z = module.z()
        assert (z * z).is_zero()
        wz_basis, rho = wz_submodule(module)
        for u_vec in wz_basis:
            for v_vec in wz_basis:
                assert module.g_value(u_vec, v_vec).is_zero()
        assert not rho.det().is_zero()

        if name.startswith("defect3"):
            # Xi acts trivially on Wz; its elements square to the identity on W
            b = G.sum_squares_basis(field)
            b_inv = b.inverse()
            params = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
            for t1, t2, t3 in params:
                xi_std = b * G.xi_matrix(field, t1, t2, t3) * b_inv
                assert G.eta_o(module, xi_std, wz_basis=wz_basis) \
                    == Matrix.identity(field, 3)
                la = compound_matrix(xi_std, 2)
                assert la * la == Matrix.identity(field, 6)
        if name.startswith("defect2-split"):
            # kernel of the Wz action is {a = c}; squares to identity on W
            for _ in range(10):
                a = F2T.random_element(rng, 1)
                b_par = F2T.random_element(rng, 1)
                x = G.h2_isometry(F2T, m_param, a, b_par, a)
                assert G.eta_o(module, x) == Matrix.identity(F2T, 3)
                la = compound_matrix(x, 2)
                assert la * la == Matrix.identity(F2T, 6)
    _report(8, "z^2 = 0, g|Wz = 0, rho_z bijective, Xi trivial on Wz, "
               "eta_o-kernel elements square to id on W (4 split fixtures)")


def test_criterion_09_case_suites():
    rng = random.Random(SEED + 4)
    t = F2T.generator

    # case 2 (defect 2, non-split): 100 samples
    h1 = BilinearForm(G.h1_gram(F2T, t))
    module1 = build_module(hodge(h1))
    for _ in range(100):
        x = F2T.random_element(rng, 1)
        gen_l = G.h1_isometry_l(F2T, x)
        gen_u = G.h1_isometry_u(F2T, x)
        assert G.is_isometry(h1, gen_l) and G.is_isometry(h1, gen_u)
        img = G.eta(module1, gen_l)
        assert img == G.hat_l(module1.algebra, module1.algebra.coerce(x))
        assert all(module1.algebra.parts(img[i, j])[1].is_zero()
                   for i in range(3) for j in range(3))
        assert G.preserves_g(module1, img)

    # case 3 (defect 2, split): commutative of exponent 2; eta preserves g
    h2 = BilinearForm(G.h2_gram(F2T, t))
    module2 = normalize_split(build_module(hodge(h2)))
    prev = None
    for _ in range(100):
        params = [F2T.random_element(rng, 1) for _ in range(3)]
        x = G.h2_isometry(F2T, t, *params)
        assert G.is_isometry(h2, x)
        assert x * x == Matrix.identity(F2T, 4)
        if prev is not None:
            assert x * prev == prev * x
        prev = x
        img = G.eta(module2, x)
        assert G.preserves_g(module2, img)

    # case 4 (defect 1): needs two transcendentals, so the suite runs over
    # F2(t)(u) (over F2(t) the defect-1 hypotheses are unsatisfiable)
    tt, uu = F2TU.parse("t"), F2TU.parse("u")
    gram = G.defect1_gram(F2TU, tt, uu)
    form1 = BilinearForm(gram)
    module4 = G.defect1_module(F2TU, tt, uu)
    c_change, w_gram = G.defect1_w_basis(module4)
    c_inv = c_change.inverse()
    v_basis = G.defect1_v_basis(F2TU)
    v_inv = v_basis.inverse()
    w1 = module4.from_k_coordinates([c_change[i, 0] for i in range(3)])
    w2 = module4.from_k_coordinates([c_change[i, 1] for i in range(3)])
    assert module4.g_value(w1 + w2, w1 + w2).is_zero()
    for _ in range(100):
        x = F2TU.random_element(rng, 1)
        y = F2TU.random_element(rng, 1)
        ux, uy = G.defect1_isometry(F2TU, x), G.defect1_isometry(F2TU, y)
        assert G.is_isometry(form1, ux)
        assert ux * uy == G.defect1_isometry(F2TU, x + y)
        img = c_inv * G.eta(module4, v_inv * ux * v_basis) * c_change
        assert img == G.hat_u(module4.algebra, module4.algebra.coerce(x))
        assert all(module4.algebra.parts(img[i, j])[1].is_zero()
                   for i in range(3) for j in range(3))
        assert img.transpose() * w_gram * img == w_gram
    _report(9, "case-2/3/4 generator suites: isometry, group laws, eta images "
               "(defect-1 over F2(t)(u); its hypotheses need [F:F^2] >= 4)")


def test_criterion_10_defect0_split_multipliers():
    rng = random.Random(SEED + 5)
    a, c = F2TU.parse("t"), F2TU.parse("u")
    form = BilinearForm(G.defect0_gram(F2TU, a, c, a))
    done = 0
    while done < 50:
        xs = [F2TU.random_element(rng, 1) for _ in range(4)]
        if all(x.is_zero() for x in xs):
            continue
        mat, mult = G.defect0_split_element(F2TU, a, c, *xs)
        expected = (xs[0] * xs[0] + xs[1] * xs[1] * a + xs[2] * xs[2] * c
                    + xs[3] * xs[3] * a * c)
        assert mult == expected
        assert G.similitude_multiplier(form, mat) == expected
        assert mat * mat == Matrix.identity(F2TU, 4) * expected
        done += 1
    _report(10, "50 seeded nonzero X in F(A,C): multiplier formula and "
                "X^2 = multiplier*id, exact")
