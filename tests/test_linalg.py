import random

import pytest

from char2forms.fields import GF2, GF2k, DescriptorMismatch, RationalFunctionField
from char2forms.groups import t_hat
from char2forms.kalgebra import KAlgebra
from char2forms.linalg import (BadIndexSet, DimensionMismatch, Matrix, SingularMatrix,
                               Vector)


def _random_matrix(field, n, rng):
    return Matrix(field, [[field.random_element(rng) for _ in range(n)]
                          for _ in range(n)])


def _cofactor_det(m):
    # independent recursive cofactor expansion (char 2: all signs +)
    n = m.nrows
    if n == 1:
        return m[0, 0]
    total = m.ring.zero()
    rest = list(range(1, n))
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        total = total + m[0, j] * _cofactor_det(m.submatrix(rest, cols))
    return total


def test_identity_neutral(gf2, f2t):
    t = f2t.generator
    h = Matrix.diagonal(f2t, [t, f2t.one(), f2t.one(), f2t.one()])
    assert Matrix.identity(f2t, 4) * h == h


def test_t_hat_squares_to_swap(gf2):
    # direct multiplication: T is not an involution; T^2 swaps the last two
    # coordinates (and T^4 is the identity)
    t = t_hat(gf2)
    swap = Matrix(gf2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert t * t == swap
    assert (t * t) * (t * t) == Matrix.identity(gf2, 3)
    assert t.inverse() * t == Matrix.identity(gf2, 3)


def test_iota_is_involution(gf2):
    iota = Matrix(gf2, [[0, 1], [1, 0]])
    assert iota * iota == Matrix.identity(gf2, 2)


def test_determinant_examples(gf2, f2t):
    assert Matrix.identity(gf2, 4).det().is_one()
    t = f2t.generator
    one, zero = f2t.one(), f2t.zero()
    assert Matrix.diagonal(f2t, [t, one, one, one]).det() == t
    c3, c4 = t, f2t.parse("t^2+t")
    h = Matrix(f2t, [[zero, one, zero, zero],
                     [one, one, zero, zero],
                     [zero, zero, c3, zero],
                     [zero, zero, zero, c4]])
    expected = f2t.parse("t^3+t^2")
    assert h.det() == expected
    assert _cofactor_det(h) == expected


def test_det_multiplicative(gf4, f2t, rng):
    for field in (gf4, f2t):
        for _ in range(10):
            a = _random_matrix(field, 3, rng)
            b = _random_matrix(field, 3, rng)
            assert (a * b).det() == a.det() * b.det()
    for _ in range(5):
        a = _random_matrix(gf4, 4, rng)
        assert a.det() == _cofactor_det(a)


def test_inverse_round_trip(gf4, f2t, rng):
    for field in (gf4, f2t):
        done = 0
        while done < 8:
            a = _random_matrix(field, 4, rng)
            if a.det().is_zero():
                continue
            assert a.inverse() * a == Matrix.identity(field, 4)
            done += 1
    with pytest.raises(SingularMatrix):
        Matrix.zeros(gf4, 3, 3).inverse()


def test_kernel_examples(gf2):
    assert Matrix.identity(gf2, 3).kernel_basis() == []
    assert len(Matrix.zeros(gf2, 2, 2).kernel_basis()) == 2
    kernel = Matrix(gf2, [[1, 1], [1, 1]]).kernel_basis()
    assert kernel == [Vector(gf2, [1, 1])]


def test_rank_nullity(gf4, f2t, rng):
    for field in (gf4, f2t):
        for _ in range(10):
            a = _random_matrix(field, 4, rng)
            assert a.rank() + len(a.kernel_basis()) == 4


def test_minor_examples(gf2, f2t):
    m = Matrix.identity(f2t, 4)
    t = f2t.generator
    a = Matrix(f2t, [[t, f2t.one()], [f2t.zero(), t]])
    assert a.minor_det([0], [1]) == f2t.one()
    assert m.minor_det([0, 1], [0, 1]).is_one()
    assert m.minor_det([0, 1], [2, 3]).is_zero()
    with pytest.raises(BadIndexSet):
        m.minor_det([0], [1, 2])
    with pytest.raises(BadIndexSet):
        m.minor_det([0, 9], [1, 2])


def test_block_and_solve(gf2, f2t):
    t = f2t.generator
    one, zero = f2t.one(), f2t.zero()
    a = Matrix(f2t, [[one, t], [zero, one]])
    b = Matrix.zeros(f2t, 2, 2)
    blocked = Matrix.block([[a, b], [b, a]])
    assert blocked.nrows == 4 and blocked[2, 3] == t
    rhs = Vector(f2t, [t, one])
    sol = a.solve(rhs)
    assert sol is not None and a * sol == rhs
    unsolvable = Matrix(f2t, [[one, one], [one, one]]).solve(Vector(f2t, [one, zero]))
    assert unsolvable is None


def test_matrix_keeps_ring_elements_and_coerces_the_rest(gf2, gf4):
    g = gf4.generator
    a = Matrix(gf4, [[g, 1], [0, g]])
    assert a[0, 0] is g
    assert a[0, 1] == gf4.one() and a[1, 0] == gf4.zero()
    assert all(e.field is gf4 for row in a.entries for e in row)
    with pytest.raises(DescriptorMismatch):
        Matrix(gf4, [[g, gf2.one()], [0, g]])


def test_shape_errors(gf2):
    a = Matrix.identity(gf2, 2)
    b = Matrix.identity(gf2, 3)
    with pytest.raises(DimensionMismatch):
        a * b
    with pytest.raises(DimensionMismatch):
        a + b


def test_inverse_over_split_local_ring(gf2):
    # k(1) over GF(2) is F2[z]/(z^2) with z = 1 + j: z is a non-unit
    k = KAlgebra(gf2, 1)
    z, one = k.z(), k.one()
    a = Matrix(k, [[z, one], [one, z]])
    a_inv = a.inverse()
    assert a * a_inv == Matrix.identity(k, 2)
    assert a_inv * a == Matrix.identity(k, 2)
    with pytest.raises(SingularMatrix):
        Matrix.diagonal(k, [z, one]).inverse()


def _det_rings():
    gf2 = GF2()
    f2t = RationalFunctionField(gf2, "t")
    return {
        "k1": KAlgebra(gf2, 1),  # F2[z]/(z^2), z = 1 + j
        "gf4": GF2k(2, 0b111),  # product tables
        "gf8": GF2k(3, 0b1011),
        "gf512": GF2k(9, 0b1000010001),  # above order 256: _gf2x_mulmod
        "f2t": f2t,
        "kt_nonsplit": KAlgebra(f2t, f2t.generator),  # t is not a square
    }


def _entry_sampler(ring, rng):
    if ring.order is not None and ring.order <= 16:
        elements = list(ring.elements())
        return lambda: rng.choice(elements)

    def draw():
        # a quarter zeros, so that pivots move and columns can vanish
        if rng.random() < 0.25:
            return ring.zero()
        if isinstance(ring, KAlgebra):
            return ring.element(ring.field.random_element(rng, size=1),
                                ring.field.random_element(rng, size=1))
        return ring.random_element(rng, size=1)
    return draw


@pytest.mark.parametrize("name", list(_det_rings()))
def test_det_over_split_local_ring_matches_expansion(name):
    # det eliminates on payloads with the ring's primitives; over
    # F2[z]/(z^2) = k(1) a column can hold nonzero entries none of which is
    # a unit, where elimination finds no pivot; det then expands by cofactors
    from char2forms.oracle import compound_by_expansion
    ring = _det_rings()[name]
    if name == "k1":
        z = ring.z()
        one = ring.one()
        assert Matrix.diagonal(ring, [z, one, one, one]).det() == z
    draw = _entry_sampler(ring, random.Random(4))
    for n, count in ((4, 200 if name == "k1" else 40), (6, 10)):
        for _ in range(count):
            a = Matrix(ring, [[draw() for _ in range(n)] for _ in range(n)])
            assert a.det() == compound_by_expansion(a, n)[0, 0]