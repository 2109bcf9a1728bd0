import random

import pytest

from char2forms._smallfield import IntField, try_int_field
from char2forms.fields import GF2, GF2k
from char2forms.linalg import Matrix, Vector, bilinear

# an irreducible modulus of each degree 1..8
MODULI = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011,
          7: 0b10000011, 8: 0b100011011}
FIELDS = [GF2()] + [GF2k(k, m) for k, m in MODULI.items()]


def _random_matrix(field, n, rng):
    return Matrix(field, [[field.random_element(rng) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pack_and_encode_round_trip(field, n):
    intf = try_int_field(field)
    k = intf.k
    assert intf.order == 1 << k
    rng = random.Random(n * 100 + k)
    for _ in range(20):
        payloads = tuple(rng.randrange(intf.order) for _ in range(n))
        v = intf.pack(payloads)
        assert 0 <= v < 1 << (k * n)
        assert intf.unpack(v, n) == payloads
        bits = rng.randrange(1 << (k * n))
        assert intf.pack(intf.unpack(bits, n)) == bits
        m = _random_matrix(field, n, rng)
        rows = intf.encode_matrix(m)
        assert rows == tuple(intf.pack([e.payload for e in row]) for row in m.entries)
        assert intf.decode_matrix(rows) == m
    assert intf.decode_matrix(intf.identity(n)) == Matrix.identity(field, n)
    assert intf.encode_matrix(Matrix.identity(field, n)) == intf.identity(n)


def test_int_field_needs_a_small_field(f2t):
    assert try_int_field(GF2k(9, 0b1000010001)) is None
    assert try_int_field(f2t) is None
    with pytest.raises(ValueError):
        IntField(f2t)


@pytest.mark.parametrize("k", [2, 3, 4, 8])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_mat_mul_matches_matrix_product(k, n):
    # k*n > 8 bits (GF(8) from n = 3, GF(16) from n = 3, GF(256) always)
    # takes more than one table chunk per row
    field = GF2k(k, MODULI[k])
    intf = try_int_field(field)
    rng = random.Random(k * 10 + n)
    for _ in range(10):
        a, b = _random_matrix(field, n, rng), _random_matrix(field, n, rng)
        right = intf.row_tables(intf.encode_matrix(b))
        assert len(right) == -(-k * n // 8)
        product = intf.mat_mul(intf.encode_matrix(a), right)
        assert intf.decode_matrix(product) == a * b


@pytest.mark.parametrize("k", [1, 3, 4])
def test_bilinear_and_select_match_the_pairing(k):
    field = GF2k(k, MODULI[k])
    intf = try_int_field(field)
    n = 4
    rng = random.Random(k)
    gram = _random_matrix(field, n, rng)
    rows = intf.encode_matrix(gram)
    vectors = [Vector(field, [field.random_element(rng) for _ in range(n)]) for _ in range(12)]
    packed = [intf.pack([e.payload for e in v]) for v in vectors]
    for x, px in zip(vectors, packed):
        for y, py in zip(vectors, packed):
            assert intf.bilinear(px, rows, py) == bilinear(gram, x, y).payload
        # v -> x^T G v, tabulated from the packed row x^T G
        x_gram = intf.unpack(intf.apply(intf.row_tables(rows), px), n)
        pairing = intf.row_tables(x_gram)
        for target in range(intf.order):
            kept = intf.select(pairing, packed, target)
            assert kept == [py for y, py in zip(vectors, packed)
                            if bilinear(gram, x, y).payload == target]


def test_scale_matches_vector_scale():
    field = GF2k(3, MODULI[3])
    intf = try_int_field(field)
    rng = random.Random(3)
    for _ in range(20):
        v = Vector(field, [field.random_element(rng) for _ in range(4)])
        s = field.random_element(rng)
        packed = intf.pack([e.payload for e in v])
        assert intf.scale(packed, s.payload) == intf.pack([e.payload for e in v.scale(s)])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_independent_matches_rank(k):
    field = GF2k(k, MODULI[k])
    intf = try_int_field(field)
    rng = random.Random(40 + k)
    for n in (2, 3, 4):
        for i in range(30):
            m = _random_matrix(field, n, rng)
            if i % 3 == 1:  # the last row a multiple of the first
                s = field.random_element(rng)
                m = Matrix(field, [list(r) for r in m.entries[:-1]] +
                           [[s * a for a in m.entries[0]]])
            assert (intf.inverse(intf.encode_matrix(m)) is None) == (m.rank() < n)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_transpose_inverse_and_preserve_match_matrices(k):
    # the packed transpose, Gauss-Jordan inverse and isometry test that the
    # stabilizer-chain closure runs on, against Matrix and A^T H A
    field = GF2k(k, MODULI[k])
    intf = try_int_field(field)
    rng = random.Random(50 + k)
    for n in (1, 2, 3, 4):
        gram = Matrix.identity(field, n)
        isometry = Matrix.identity(field, n)
        if n >= 2:  # a transposition of two coordinates keeps the identity form
            isometry = Matrix(field, [list(r) for r in isometry.entries[1::-1]
                                      + isometry.entries[2:]])
        for i in range(20):
            m = _random_matrix(field, n, rng)
            if i % 4 == 1:  # the last row a multiple of the first
                s = field.random_element(rng)
                m = Matrix(field, [list(r) for r in m.entries[:-1]] +
                           [[s * a for a in m.entries[0]]])
            rows = intf.encode_matrix(m)
            assert intf.transpose(rows) == intf.encode_matrix(m.transpose())
            inverse = intf.inverse(rows)
            if m.rank() < n:
                assert inverse is None
            else:
                assert intf.decode_matrix(inverse) == m.inverse()
            h = intf.encode_matrix(m.transpose() * m)
            assert intf.preserve([intf.encode_matrix(isometry)], h) == (
                isometry.transpose() * (m.transpose() * m) * isometry == m.transpose() * m)
        assert intf.preserve([intf.encode_matrix(isometry)], intf.encode_matrix(gram))
        assert not intf.preserve([intf.identity(n + 1)], intf.encode_matrix(gram))
