import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from char2forms import groups as G
from char2forms._smallfield import IntField, try_int_field
from char2forms.exterior import compound_matrix, hodge
from char2forms.fields import FieldElement, GF2k
from char2forms.forms import BilinearForm
from char2forms.kalgebra import build_module
from char2forms.linalg import Matrix, Vector
from char2forms.oracle import (NoConsistentScalar, OracleError, TooLarge, _transversals,
                               brute_pq_scalar, closure_order_matches,
                               compound_by_expansion, direct_g, enumerate_isometries)


def test_enumerate_identity_gf2(gf2):
    result = enumerate_isometries(BilinearForm(Matrix.identity(gf2, 4)))
    assert result.order == 48
    assert result.method == "full_gl_scan"
    form = BilinearForm(Matrix.identity(gf2, 4))
    for m in result.elements:
        assert G.is_isometry(form, m)


def test_enumerate_sum_of_products_form(gf2):
    result = enumerate_isometries(BilinearForm(Matrix.identity(gf2, 3)))
    assert result.order == 6
    closure = G.generate_closure([G.hat_l(gf2, 1), G.hat_u(gf2, 1)])
    assert closure_order_matches(result, closure)


def test_enumerate_matches_closure_on_nonstandard_gram(gf2):
    ht = BilinearForm(G.h_tilde_gram(gf2))
    result = enumerate_isometries(ht)
    assert result.order == 48  # congruent to the identity form
    b = G.sum_squares_basis(gf2)
    b_inv = b.inverse()
    gens = [b_inv * g * b for g in G.defect3_generators(gf2)]
    closure = G.generate_closure(gens)
    assert closure_order_matches(result, closure)


def test_closure_order_matches_compares_sets_not_counts(gf2, gf4):
    form = BilinearForm(Matrix.identity(gf2, 3))
    result = enumerate_isometries(form)
    closure = G.generate_closure([G.hat_l(gf2, 1), G.hat_u(gf2, 1)])
    assert closure_order_matches(result, closure)
    # the right order with one element swapped for a non-isometry
    shear = Matrix(gf2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert not G.is_isometry(form, shear)
    assert not closure_order_matches(result, closure[:-1] + [shear])
    # the same payloads over another field, either way round
    lifted = [Matrix(gf4, [[gf4.from_bits(e.payload) for e in row] for row in m.entries])
              for m in closure]
    assert not closure_order_matches(result, lifted)
    assert not closure_order_matches(replace(result, field=gf4), closure)
    # an enumeration has no generators, so it is compared as a set: the
    # isometries of x1 y1 + x2 y3 + x3 y2 are another 6 matrices
    other = enumerate_isometries(BilinearForm(G.o3_prime_gram(gf2)))
    assert other.order == 6 and not closure_order_matches(result, other)
    assert closure_order_matches(result, result)


def _gf4_mul(a, b):
    # carry-less product modulo x^2 + x + 1, independent of the field's tables
    p = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
    return p ^ 0b111 if p & 0b100 else p


def _literal_isometries(h, q, mul):
    """Every invertible n x n A over GF(q) with A^T H A = H, as row tuples,
    filtered over all q^(n^2) matrices with plain int arithmetic (n <= 3)."""
    n = len(h)

    def dot(xs, ys):
        acc = 0
        for x, y in zip(xs, ys):
            acc ^= mul(x, y)
        return acc

    def det(a):
        if n == 2:
            return mul(a[0][0], a[1][1]) ^ mul(a[0][1], a[1][0])
        return (mul(a[0][0], mul(a[1][1], a[2][2]) ^ mul(a[1][2], a[2][1]))
                ^ mul(a[0][1], mul(a[1][0], a[2][2]) ^ mul(a[1][2], a[2][0]))
                ^ mul(a[0][2], mul(a[1][0], a[2][1]) ^ mul(a[1][1], a[2][0])))

    found = set()
    for a in product(product(range(q), repeat=n), repeat=n):
        cols = list(zip(*a))
        h_cols = [[dot(h_row, col) for h_row in h] for col in cols]  # H a_j
        congruent = all(dot(cols[i], h_cols[j]) == h[i][j]
                        for i in range(n) for j in range(n))
        if congruent and det(a):
            found.add(a)
    return found


def _every_symmetric_gram(q, n):
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for values in product(range(q), repeat=len(cells)):
        h = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, values):
            h[i][j] = h[j][i] = v
        yield h


def _payload_rows(result):
    rows = {tuple(tuple(e.payload for e in row) for row in m.entries) for m in result.elements}
    assert len(rows) == result.order
    return rows


def test_full_scan_matches_literal_filter_on_every_3x3_gf2_gram(gf2, gf4):
    # all 64 symmetric 3x3 Grams over GF(2) and all 64 symmetric 2x2 Grams
    # over GF(4), degenerate and alternating ones included: the pruned scan
    # must decide every matrix without assuming non-degeneracy
    for field, q, n, mul in ((gf2, 2, 3, lambda a, b: a & b), (gf4, 4, 2, _gf4_mul)):
        for h in _every_symmetric_gram(q, n):
            gram = Matrix(field, [[field.from_int(x) if q == 2 else field.from_bits(x)
                                   for x in row] for row in h])
            result = enumerate_isometries(BilinearForm(gram))
            assert result.method == "full_gl_scan"
            assert _payload_rows(result) == _literal_isometries(h, q, mul)


def _leaf_search(intf, gram, n, check_rank):
    """The column search that decided every leaf of the column tree on its
    own, kept as the reference for the transversal chain: each chosen column
    filters the candidates of the later columns by its pairing, and every
    surviving full matrix is listed (with `check_rank`, if invertible)."""
    by_norm = {}
    for cand in range(intf.order ** n):
        by_norm.setdefault(intf.bilinear(cand, gram, cand), []).append(cand)
    entries = [intf.unpack(row, n) for row in gram]
    gram_tables = intf.row_tables(gram)
    pairings = {}
    spread = intf.column_tables(n)
    found = []

    def extend(j, matrix, levels):
        if j + 1 == n:
            for cand in levels[0]:
                rows = intf.split_rows(matrix ^ intf.apply(spread[j], cand), n)
                if not check_rank or intf.inverse(rows) is not None:
                    found.append(rows)
            return
        for cand in levels[0]:
            pairing = pairings.get(cand)
            if pairing is None:
                pairing = intf.row_tables(intf.unpack(intf.apply(gram_tables, cand), n))
                pairings[cand] = pairing
            later = []
            for i, level in enumerate(levels[1:], start=j + 1):
                kept = intf.select(pairing, level, entries[j][i])
                if not kept:
                    break
                later.append(kept)
            else:
                extend(j + 1, matrix ^ intf.apply(spread[j], cand), later)

    extend(0, 0, [by_norm.get(entries[j][j], []) for j in range(n)])
    return found


def test_transversal_chain_matches_leaf_search_on_every_4x4_gf2_gram(gf2):
    # all 1,024 symmetric 4x4 Grams over GF(2), degenerate and alternating
    # ones included: invertible isometries form a group for any H, so the
    # chain lists exactly the matrices the leaf-by-leaf search decides
    intf = try_int_field(gf2)
    orders = set()
    for h in _every_symmetric_gram(2, 4):
        gram = Matrix(gf2, h)
        result = enumerate_isometries(BilinearForm(gram))
        expected = _leaf_search(intf, intf.encode_matrix(gram), 4, True)
        assert result.method == "full_gl_scan"
        assert result.order == len(expected)
        assert set(result.rows) == set(expected)
        orders.add(result.order)
    assert 48 in orders and 20160 in orders  # the identity form and H = 0


def test_gf4_scrambles_match_closure_and_transversals_are_isometries(gf4):
    # seeded S^T S over GF(4), congruent to the identity form: the oracle
    # lists 3,840 isometries, the closure of the classify generators is the
    # same set, and every transversal element is an invertible isometry
    intf = try_int_field(gf4)
    rng = random.Random(22)
    checked = 0
    while checked < 4:
        s = Matrix(gf4, [[gf4.random_element(rng) for _ in range(4)] for _ in range(4)])
        if s.det().is_zero():
            continue
        checked += 1
        form = BilinearForm(s.transpose() * s)
        result = enumerate_isometries(form)
        assert result.method == "backtracking" and result.order == 3840
        gens = [g.matrix for g in G.classify(form).generators if g.multiplier.is_one()]
        assert closure_order_matches(result, G.generate_closure(gens))
        bounded = G.generate_closure(gens, within=result)
        assert len(bounded) == 3840 and closure_order_matches(result, bounded)
        assert set(bounded.rows) == set(result.rows)
        transversals = _transversals(intf, intf.encode_matrix(form.gram), 4, False)
        sizes = [len(found) for found in transversals]
        assert sizes[0] * sizes[1] * sizes[2] * sizes[3] == 3840
        for found in transversals:
            for rows in found:
                m = intf.decode_matrix(rows)
                assert G.is_isometry(form, m) and not m.det().is_zero()


DUPLICATE_CHILD = """\
import sys
from char2forms._smallfield import IntField
from char2forms.fields import GF2
from char2forms.forms import BilinearForm
from char2forms.linalg import Matrix
from char2forms.oracle import OracleError, enumerate_isometries

assert sys.flags.optimize == 1
result = enumerate_isometries(BilinearForm(Matrix.identity(GF2(), 4)))
IntField.mat_mul = lambda self, a, right: (1, 2, 4, 8)
try:
    result.rows
except OracleError:
    pass
else:
    sys.exit("repeated transversal products were accepted")
"""


def _run_under_python_O(child_source):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = subprocess.run([sys.executable, "-O", "-c", child_source],
                           capture_output=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr.decode()


def test_repeated_products_raise_under_python_and_python_O(gf2, monkeypatch):
    # a product kernel that returns one fixed matrix makes every product
    # equal; the products are formed only when the rows are read, and the
    # distinctness check there is explicit code, so python -O keeps it
    result = enumerate_isometries(BilinearForm(Matrix.identity(gf2, 4)))
    assert result.order == 48
    monkeypatch.setattr(IntField, "mat_mul", lambda self, a, right: (1, 2, 4, 8))
    with pytest.raises(OracleError):
        result.rows
    with pytest.raises(OracleError):
        list(result.elements)
    _run_under_python_O(DUPLICATE_CHILD)


REPEATED_COLUMN_CHILD = """\
import sys
from char2forms import oracle
from char2forms.fields import GF2
from char2forms.forms import BilinearForm
from char2forms.linalg import Matrix

assert sys.flags.optimize == 1
transversals = oracle._transversals
def repeated(*args):
    found = transversals(*args)
    found[1][1] = found[1][0]
    return found
oracle._transversals = repeated
try:
    oracle.enumerate_isometries(BilinearForm(Matrix.identity(GF2(), 4)))
except oracle.OracleError:
    pass
else:
    sys.exit("a repeated transversal column was accepted")
"""


def test_repeated_transversal_column_raises_under_python_and_python_O(gf2, monkeypatch):
    # two elements of T_1 with the same column 1 would list every product of
    # theirs twice; enumerate_isometries refuses the chain before any
    # product is formed, in explicit code that python -O keeps
    from char2forms import oracle
    transversals = oracle._transversals

    def repeated(*args):
        found = transversals(*args)
        found[1][1] = found[1][0]
        return found

    monkeypatch.setattr(oracle, "_transversals", repeated)
    with pytest.raises(OracleError, match="share that column"):
        enumerate_isometries(BilinearForm(Matrix.identity(gf2, 4)))
    _run_under_python_O(REPEATED_COLUMN_CHILD)


def test_transversal_moving_an_earlier_basis_vector_raises(gf2, monkeypatch):
    # an element of T_2 that moves e_0 does not lie in G_2; the last element
    # of T_0 maps e_0 to the largest candidate, which is not e_0
    from char2forms import oracle
    transversals = oracle._transversals

    def moved(*args):
        found = transversals(*args)
        found[2][0] = found[0][-1]
        return found

    monkeypatch.setattr(oracle, "_transversals", moved)
    with pytest.raises(OracleError, match="moves an earlier basis vector"):
        enumerate_isometries(BilinearForm(Matrix.identity(gf2, 4)))


def test_gf8_scrambles_match_closure_by_order():
    # seeded S^T S over GF(8): the oracle counts 258,048 isometries without
    # listing them, and the classify generators, checked as isometries of
    # the scrambled form, close to a chain of that order
    gf8 = GF2k(3, 0b1011)
    rng = random.Random(8)
    checked = 0
    while checked < 2:
        s = Matrix(gf8, [[gf8.random_element(rng) for _ in range(4)] for _ in range(4)])
        if s.det().is_zero():
            continue
        checked += 1
        form = BilinearForm(s.transpose() * s)
        result = enumerate_isometries(form)
        assert result.method == "backtracking" and result.order == 258048
        gens = [g.matrix for g in G.classify(form).generators if g.multiplier.is_one()]
        closure = G.generate_closure(gens, within=result)
        assert len(closure) == 258048 and closure_order_matches(result, closure)


def test_oracle_matches_closure_on_3x3_gf8_form():
    # 3x3 over GF(8) packs 9 bits per vector, so the pairing filters and the
    # column spreads take two table chunks; |GL3(8)| is above the full-scan
    # bound, so the label is backtracking
    gf8 = GF2k(3, 0b1011)
    form = BilinearForm(Matrix.identity(gf8, 3))
    result = enumerate_isometries(form)
    assert result.method == "backtracking"
    assert result.order == 504  # SL2(8)
    closure = G.generate_closure(list(G.o3_standard_form_group(gf8).generators))
    assert len(closure) == 504
    assert closure_order_matches(result, closure)
    assert all(G.is_isometry(form, m) for m in result.elements)
    assert all(not m.det().is_zero() for m in result.elements)


SINGULAR_CLOSURE_CHILD = """\
import sys
from char2forms.fields import GF2k
from char2forms.groups import GroupError, generate_closure
from char2forms.linalg import Matrix

assert sys.flags.optimize == 1
gf512 = GF2k(9, 0b1000010001)
try:
    generate_closure([Matrix.diagonal(gf512, [1, 0])])
except GroupError as error:
    sys.exit(0 if str(error) == "closure generators must be invertible" else str(error))
sys.exit("a singular generator was accepted")
"""


def test_matrix_closure_rejects_singular_generators_under_python_and_python_O():
    # GF(2^9) has no packed view, so the closure runs the stabilizer chain
    # on payload rows; a singular generator would make it close a monoid,
    # and the check that rejects it is explicit code, so python -O keeps it
    gf512 = GF2k(9, 0b1000010001)
    assert try_int_field(gf512) is None
    g = gf512.generator
    assert len(G.generate_closure([Matrix.diagonal(gf512, [g, 1])])) == 511
    for gens in ([Matrix.diagonal(gf512, [1, 0])],
                 [Matrix.diagonal(gf512, [g, 1]), Matrix(gf512, [[1, g], [1, g]])]):
        with pytest.raises(G.GroupError, match="closure generators must be invertible"):
            G.generate_closure(gens)
    _run_under_python_O(SINGULAR_CLOSURE_CHILD)


def test_enumerate_small_gf4(gf4):
    result = enumerate_isometries(BilinearForm(Matrix.identity(gf4, 2)))
    form = BilinearForm(Matrix.identity(gf4, 2))
    for m in result.elements:
        assert G.is_isometry(form, m)
    assert result.method == "full_gl_scan"


def test_backtracking_on_degenerate_gram_keeps_only_invertible(gf4):
    # diag(1,1,1,0) over GF(4) is above the full-scan bound; its radical lets
    # singular matrices satisfy A^T H A = H, and they must not be counted
    h = Matrix.diagonal(gf4, [gf4.one()] * 3 + [gf4.zero()])
    result = enumerate_isometries(BilinearForm(h))
    assert result.method == "backtracking"
    assert result.order == len(result.elements) == 11520
    assert all(not m.det().is_zero() for m in result.elements)


def test_enumerate_rejects_infinite(f2t):
    with pytest.raises(TooLarge):
        enumerate_isometries(BilinearForm(Matrix.identity(f2t, 2)))


def test_pq_scalar(gf2, gf4):
    assert brute_pq_scalar(gf2).is_one()
    assert brute_pq_scalar(gf4).is_one()


def test_pq_scalar_exhaustive_only_up_to_gf8(gf2):
    # the bit-sliced pass takes about 0.25 ms over GF(4) and 2.7 ms over
    # GF(8); GF(16) stays sampled.  The kernel works on GF(2^k) payload
    # bits, so the ring k(1) of order 4 is refused too.
    from char2forms.kalgebra import KAlgebra
    with pytest.raises(TooLarge):
        brute_pq_scalar(GF2k(4, 0b10011))
    with pytest.raises(TooLarge):
        brute_pq_scalar(KAlgebra(gf2, gf2.one()))


def test_pq_scalar_is_bit_sliced_over_gf8(monkeypatch):
    # pins the bit-sliced kernel by operation count, not wall clock: no
    # per-point determinant and under 1,000 field products, where a walk
    # over the 8^6 2-vectors makes at least one product per point (the
    # sampled walk below shows the counter sees those products)
    from char2forms import exterior
    from char2forms.exterior import klein_scalar
    field = GF2k(3, 0b1011)
    det_calls, mul_calls = [], []
    det_rows, mul = exterior.det_rows, GF2k._mul

    def counting_det(ring, rows):
        det_calls.append(len(rows))
        return det_rows(ring, rows)

    def counting_mul(self, a, b):
        mul_calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(exterior, "det_rows", counting_det)
    monkeypatch.setattr(GF2k, "_mul", counting_mul)
    assert brute_pq_scalar(field).is_one()
    assert det_calls == [] and len(mul_calls) < 1000
    points = list(product(range(8), repeat=6))[::262]
    mul_calls.clear()
    assert klein_scalar(field, points)[1]
    assert len(det_calls) == len(points) and len(mul_calls) >= len(points)


def _flip_at_e12_e34(planes, field, bit):
    # bit `bit` of the value at the 2-vector e12 + e34 (Pq = 1, det = 1),
    # point q^5 + 1 in itertools.product order
    planes = list(planes)
    planes[bit] ^= 1 << (field.order ** 5 + 1)
    return planes


def test_pq_scalar_detects_one_wrong_determinant(gf2, gf4, monkeypatch):
    # a determinant that is wrong on the single 2-vector e12 + e34, whether
    # zero there or another nonzero value, must break the exhaustive check
    from char2forms import oracle
    klein_planes = oracle._klein_planes
    for field in (gf2, gf4, GF2k(3, 0b1011)):
        for bit in range(field.order.bit_length() - 1):
            def wrong_once(intf, bit=bit, field=field):
                lhs, det = klein_planes(intf)
                return lhs, _flip_at_e12_e34(det, field, bit)
            monkeypatch.setattr(oracle, "_klein_planes", wrong_once)
            with pytest.raises(NoConsistentScalar):
                brute_pq_scalar(field)
        monkeypatch.setattr(oracle, "_klein_planes", klein_planes)
        assert brute_pq_scalar(field).is_one()


def test_pq_scalar_detects_one_wrong_pq(gf2, gf4, monkeypatch):
    from char2forms import oracle
    pq_payload = oracle._pq_payload
    for field in (gf2, gf4, GF2k(3, 0b1011)):
        for bit in range(field.order.bit_length() - 1):
            def wrong_once(sliced, coords, bit=bit, field=field):
                return _flip_at_e12_e34(pq_payload(sliced, coords), field, bit)
            monkeypatch.setattr(oracle, "_pq_payload", wrong_once)
            with pytest.raises(NoConsistentScalar):
                brute_pq_scalar(field)
        monkeypatch.setattr(oracle, "_pq_payload", pq_payload)
        assert brute_pq_scalar(field).is_one()


def _decode(planes, size):
    values = [0] * size
    for b, plane in enumerate(planes):
        for i, bit in enumerate(reversed(format(plane, f"0{size}b"))):
            if bit == "1":
                values[i] |= 1 << b
    return values


@pytest.mark.parametrize("name", ["gf2", "gf4", "gf8"])
def test_klein_planes_match_element_reference(name, gf2, gf4):
    # every point over GF(2) and GF(4), 2,000 seeded points over GF(8)
    import random
    from char2forms.exterior import alt_matrix, klein_scalar, pq
    from char2forms.oracle import _klein_planes
    from char2forms._smallfield import IntField
    field = {"gf2": gf2, "gf4": gf4, "gf8": GF2k(3, 0b1011)}[name]
    size = field.order ** 6
    lhs, det = (_decode(planes, size) for planes in _klein_planes(IntField(field)))
    points = list(product(range(field.order), repeat=6))
    if name == "gf8":
        points = random.Random(13).sample(points, 2000)
    for coords in points:
        i = sum(c * field.order ** (5 - m) for m, c in enumerate(coords))
        x = Vector(field, [FieldElement(field, c) for c in coords])
        assert lhs[i] == (pq(x) * pq(x)).payload
        assert det[i] == alt_matrix(x).det().payload
    if name == "gf8":
        s, agree = klein_scalar(field, points)
        assert s.is_one() and agree


def test_pq_scalar_homogeneous(gf4):
    # rescaling coordinates multiplies Pq^2 and det by the same fourth power,
    # so the measured scalar is unchanged
    from char2forms.exterior import alt_matrix, pq
    s = brute_pq_scalar(gf4)
    lam = gf4.generator
    for coords in product(range(4), repeat=6):
        x = Vector(gf4, [gf4.from_bits(c) for c in coords])
        scaled = x.scale(lam)
        det = alt_matrix(scaled).det()
        assert pq(scaled) * pq(scaled) == s * det


def test_direct_g_agreement_all_pairs(gf2, f2t):
    for field, diag in ((gf2, ["1", "1", "1", "1"]), (f2t, ["t", "1", "1+t", "1"])):
        gram = Matrix.diagonal(field, [field.parse(d) for d in diag])
        module = build_module(hodge(BilinearForm(gram)))
        space = module.hodge.space
        for s in space.sets:
            for t_set in space.sets:
                direct_g(space.basis_vector(field, s),
                         space.basis_vector(field, t_set), module)


def test_compound_expansion_matches_minors(gf4, f2t, rng):
    for field in (gf4, f2t):
        for _ in range(4):
            a = Matrix(field, [[field.random_element(rng, 1) for _ in range(4)]
                               for _ in range(4)])
            for ell in (1, 2, 3, 4):
                assert compound_by_expansion(a, ell) == compound_matrix(a, ell)
