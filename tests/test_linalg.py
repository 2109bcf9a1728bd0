import random

import pytest

from char2forms.fields import GF2, GF2k, DescriptorMismatch, RationalFunctionField
from char2forms.forms import BilinearForm, orthogonalize
from char2forms.groups import t_hat
from char2forms.kalgebra import KAlgebra
from char2forms.linalg import (DimensionMismatch, Matrix, NonUnitColumn, NotSymmetric,
                               SingularMatrix, Vector, bilinear, congruence)


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
        total = total + m[0, j] * _cofactor_det(Matrix(m.ring, [[m[r, c] for c in cols]
                                                                for r in rest]))
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


def test_unrolled_cofactor_det_matches_recursive_expansion(gf4, f2t, f2tu):
    # linalg._cofactor_det spells out 2x2 and 3x3 and skips zero entries,
    # zero minors and factors one; entries are drawn with zeros and ones
    # over-represented, so every skip is taken.  det_rows takes it up to
    # 4x4, over F2(t)(u) and the local ring k(1) as well
    from char2forms import linalg
    rng = random.Random(23)
    k1 = _det_rings()["k1"]
    k1_elements = list(k1.elements())
    for field, sizes, count in ((gf4, (1, 2, 3, 4), 60), (f2t, (1, 2, 3, 4), 60),
                                (f2tu, (4,), 15), (k1, (1, 2, 3, 4), 60)):
        pool = [field.zero(), field.one()]
        # F2(t)(u) entries are kept small so its 4x4 expansions stay quick
        draw = ((lambda: rng.choice(k1_elements)) if field is k1
                else (lambda: field.random_element(rng, size=1)) if field is f2tu
                else (lambda: field.random_element(rng)))
        for n in sizes:
            for _ in range(count):
                m = Matrix(field, [[rng.choice(pool) if rng.random() < 0.4 else draw()
                                    for _ in range(n)] for _ in range(n)])
                rows = [[x.payload for x in row] for row in m.entries]
                expected = _cofactor_det(m).payload
                assert linalg._cofactor_det(field, rows) == expected
                assert linalg.det_rows(field, rows) == expected


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
    assert a.minors([[0]], [[1]]) == Matrix(f2t, [[f2t.one()]])
    minors = m.minors([[0, 1]], [[0, 1], [2, 3]])
    assert minors[0, 0].is_one()
    assert minors[0, 1].is_zero()


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
    coerced = []
    coerce = gf4.coerce
    gf4.coerce = lambda x: coerced.append(x) or coerce(x)
    try:
        a = Matrix(gf4, [[g, 1], [0, g]])
    finally:
        del gf4.coerce
    # the two ring elements are taken as they are; only the ints are coerced
    assert coerced == [1, 0]
    assert a[0, 0] == g and a[1, 1] == g
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


def _skipped_column_matrix(k1):
    """A k(1) matrix whose column 0 holds the non-units j and 1+j only, so it
    gets no pivot, while the unit pivot of column 1 sits in a row that is
    nonzero in column 0; an elimination that clears only the columns right
    of each pivot leaves column 0 wrong and gives det 1+j, not 0."""
    j = k1.j()
    return Matrix(k1, [[j, 1 + j, j, 0], [0, 0, 0, j], [j, 0, 1 + j, j], [1, 0, 0, 1]])


@pytest.mark.parametrize("name", list(_det_rings()))
def test_det_over_split_local_ring_matches_expansion(name):
    # det eliminates on payloads with the ring's primitives; over
    # F2[z]/(z^2) = k(1) a column can hold nonzero entries none of which is
    # a unit, where elimination finds no pivot; det then expands the block
    # left without pivots by cofactors
    from char2forms import linalg
    from char2forms.oracle import compound_by_expansion
    ring = _det_rings()[name]
    if name == "k1":
        z = ring.z()
        one = ring.one()
        assert Matrix.diagonal(ring, [z, one, one, one]).det() == z
        skipped = _skipped_column_matrix(ring)
        assert skipped.det() == compound_by_expansion(skipped, 4)[0, 0] == ring.zero()
        # 4x4 determinants are cofactors, so `_forward`'s block of non-units
        # is reached only above: the skipped-column matrix plus an identity
        # block, as it is and with columns 0 and 1 swapped (column 0 then
        # holds only the non-unit z), and diag(z, 1, ..)
        for size in (5, 6):
            grow = size - 4
            identity = Matrix.identity(ring, grow)
            zeros = Matrix.zeros(ring, 4, grow)
            block = Matrix.block([[skipped, zeros], [zeros.transpose(), identity]])
            swapped = Matrix._from_payloads(ring, [(r[1], r[0]) + r[2:] for r in block.rows])
            for a in (block, swapped, Matrix.diagonal(ring, [z] + [one] * (size - 1))):
                assert len(linalg._forward(ring, [list(r) for r in a.rows], size)) < size
                assert a.det() == compound_by_expansion(a, size)[0, 0]
    draw = _entry_sampler(ring, random.Random(4))
    for n, count in ((4, 200 if name == "k1" else 40), (6, 10)):
        for _ in range(count):
            a = Matrix(ring, [[draw() for _ in range(n)] for _ in range(n)])
            assert a.det() == compound_by_expansion(a, n)[0, 0]


def test_bilinear_rejects_vectors_of_the_wrong_length(gf2):
    # x^T G y needs len(x) = rows of G and len(y) = columns of G; a short
    # vector used to be cut off by the pairing instead of raising
    gram = Matrix.identity(gf2, 3)
    short, full = Vector(gf2, [1, 1]), Vector(gf2, [1, 1, 1])
    assert bilinear(gram, full, full) == gf2.one()
    with pytest.raises(DimensionMismatch):
        bilinear(gram, short, full)
    with pytest.raises(DimensionMismatch):
        bilinear(gram, full, short)


# -- products, pairings and echelon on payloads against element references --

def _product_rings():
    rings = _det_rings()
    rings.update(gf2=GF2(), f2tu=RationalFunctionField(rings["f2t"], "u"),
                 gf4t=RationalFunctionField(rings["gf4"], "t"))
    return rings


def _ref_dot(xs, ys):
    total = xs[0] * ys[0]
    for a, b in zip(xs[1:], ys[1:]):
        total = total + a * b
    return total


def _ref_mul(a, b):
    cols = [b.column(j).entries for j in range(b.ncols)]
    return [[_ref_dot(row, col) for col in cols] for row in a.entries]


def _ref_echelon(rows, ring, width):
    # the row echelon on elements: first unit pivot per column, reduced
    pivots, r = [], 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if ring.is_unit(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _ref_kernel(m):
    rows, pivots = _ref_echelon([list(r) for r in m.entries], m.ring, m.ncols)
    basis = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        vec = [m.ring.zero()] * m.ncols
        vec[f] = m.ring.one()
        for r, c in enumerate(pivots):
            vec[c] = rows[r][f]
        basis.append(vec)
    return basis


def _ref_solve(m, rhs):
    rows, pivots = _ref_echelon([list(r) + [b] for r, b in zip(m.entries, rhs)],
                                m.ring, m.ncols)
    if any(not rows[r][-1].is_zero() for r in range(len(pivots), m.nrows)):
        return None
    x = [m.ring.zero()] * m.ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return x


def _check_kernel_and_solve(a, rhss) -> bool:
    """kernel_basis and solve against the reference echelon; returns whether
    it leaves a nonzero entry below its pivot rows (a column of non-units
    with no pivot), in which case both must raise NonUnitColumn."""
    rows, pivots = _ref_echelon([list(r) for r in a.entries], a.ring, a.ncols)
    undecided = any(not x.is_zero() for row in rows[len(pivots):] for x in row)
    if undecided:
        with pytest.raises(NonUnitColumn):
            a.kernel_basis()
        for rhs in rhss:
            with pytest.raises(NonUnitColumn):
                a.solve(rhs)
        return True
    kernel = a.kernel_basis()
    assert [list(v) for v in kernel] == _ref_kernel(a)
    assert all(not any(_ref_dot(row, v.entries) for row in a.entries) for v in kernel)
    for rhs in rhss:
        expected = _ref_solve(a, rhs.entries)
        solution = a.solve(rhs)
        assert (None if solution is None else list(solution)) == expected
        if solution is not None:
            assert [_ref_dot(row, solution.entries) for row in a.entries] == list(rhs)
    return False


# entries of degree <= 1 keep 6x6 echelons over the towers fast
_SMALL_ENTRIES = {
    "f2t": ("t", "t+1", "1/t", "t/(t+1)"),
    "f2tu": ("t", "u", "1/u"),
    "gf4t": ("g", "t", "g*t+1", "1/t", "g/(t+1)"),
}


def _small_sampler(name, ring, rng):
    if name == "kt_nonsplit":
        small = [ring.field.parse(s) for s in _SMALL_ENTRIES["f2t"]]
        elements = [ring.element(a, b) for a in small for b in small]
    elif name in _SMALL_ENTRIES:
        elements = [ring.parse(s) for s in _SMALL_ENTRIES[name]]
    else:
        return _entry_sampler(ring, rng)
    # a third zeros, so that pivots move and rows fill slowly
    elements += [ring.one()] + [ring.zero()] * (len(elements) // 2 + 1)
    return lambda: rng.choice(elements)


def _test_matrices(draw, ring, n, count, rng):
    """Seeded n x n matrices: random ones, singular ones (row n-1 is the sum
    of rows 0 and 1) and, over k(1), ones whose column 0 holds non-units;
    then the identity, a permutation and a one-column shear, whose zero and
    one entries take the skips of the product kernel."""
    for i in range(count):
        rows = [[draw() for _ in range(n)] for _ in range(n)]
        if i % 3 == 1:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        if i % 3 == 2 and isinstance(ring, KAlgebra) and ring.is_split():
            z = ring.z()
            for row in rows:
                row[0] = z if rng.randrange(2) else ring.zero()
        yield Matrix(ring, rows)
    yield from _unit_matrices(ring, n, draw)


def _unit_matrices(ring, n, draw):
    """The identity, the cyclic permutation e_i -> e_(i+1) and the shear that
    adds draws to column 1 off the diagonal."""
    one, zero = ring.one(), ring.zero()
    yield Matrix.identity(ring, n)
    yield Matrix(ring, [[one if i == (j + 1) % n else zero for j in range(n)]
                        for i in range(n)])
    yield Matrix(ring, [[one if i == j else draw() if j == 1 else zero for j in range(n)]
                        for i in range(n)])


@pytest.mark.parametrize("name", list(_product_rings()))
def test_payload_products_and_echelon_match_element_reference(name):
    ring = _product_rings()[name]
    rng = random.Random(10)
    draw = _small_sampler(name, ring, rng)
    undecided = 0
    if name == "k1":
        # diag(1+j, 1): column 0 holds the non-unit z = 1+j and no pivot, so
        # the echelon does not decide b*x = 0 nor b*x = (z, 0), though
        # x = (1, 0) solves the second
        z = ring.z()
        b = Matrix.diagonal(ring, [z, ring.one()])
        assert _check_kernel_and_solve(b, [Vector(ring, [z, ring.zero()])])
        # column 0 gets no pivot, and the pivot row of column 1 is nonzero in
        # it: back substitution must clear that column too
        skipped = _skipped_column_matrix(ring)
        rhs = Vector(ring, [1, z, 0, 1])
        assert skipped.rank() == len(_ref_echelon([list(r) for r in skipped.entries],
                                                  ring, 4)[1]) == 3
        assert not _check_kernel_and_solve(skipped, [rhs, skipped * rhs])
    # fewer 6x6 ones over the infinite rings, where fractions grow
    for n, count in ((4, 12), (6, 4 if ring.order else 2)):
        mats = list(_test_matrices(draw, ring, n, count, rng))
        for a, b in zip(mats, mats[1:] + mats[:1]):
            x = Vector(ring, [draw() for _ in range(n)])
            y = Vector(ring, [draw() for _ in range(n)])
            product = a * b
            assert [list(r) for r in product.entries] == _ref_mul(a, b)
            assert all(e.field is ring for r in product.entries for e in r)
            assert list(a * y) == [_ref_dot(row, y.entries) for row in a.entries]
            assert bilinear(a, x, y) == _ref_dot(
                x.entries, [_ref_dot(row, y.entries) for row in a.entries])
            pivots = _ref_echelon([list(r) for r in a.entries], ring, n)[1]
            assert a.rank() == len(pivots)
            undecided += _check_kernel_and_solve(
                a, [y, Vector(ring, [draw() for _ in range(n)])])
            if len(pivots) < n:
                with pytest.raises(SingularMatrix):
                    a.inverse()
            else:
                identity = [list(r) for r in Matrix.identity(ring, n).entries]
                inv = a.inverse()
                assert [list(r) for r in inv.entries] == [
                    row[n:] for row in _ref_echelon(
                        [list(r) + i for r, i in zip(a.entries, identity)], ring, n)[0]]
                if n == 4:
                    assert _ref_mul(a, inv) == identity and _ref_mul(inv, a) == identity
    # only a local ring with non-units can leave a column undecided; the
    # seeded k(1) matrices with a column of non-units include such ones
    assert (undecided > 0) == (name == "k1")


def _congruence_rings():
    rings = _product_rings()
    f2t = rings["f2t"]
    t = f2t.generator
    return {name: rings[name] for name in ("gf2", "gf4", "f2t", "f2tu", "k1", "kt_nonsplit")} | {
        "kt_split": KAlgebra(f2t, t * t + 1)}  # delta = (t+1)^2


@pytest.mark.parametrize("name", sorted(_congruence_rings()))
def test_congruence_matches_transpose_products(name):
    # congruence(H, A) computes A^T H A for a symmetric H from H A and the
    # upper triangle, mirrored; it must be the generic product A^T (H A),
    # payload for payload, for square and rectangular A
    ring = _congruence_rings()[name]
    rng = random.Random(28)
    draw = _small_sampler(name, ring, rng)
    for n, widths, count in ((4, (4, 2, 3, 6), 6), (6, (6, 4), 2)):
        for i in range(count):
            upper = [[draw() for _ in range(n)] for _ in range(n)]
            h = Matrix(ring, [[upper[min(r, c)][max(r, c)] for c in range(n)]
                              for r in range(n)])
            assert h.is_symmetric()
            mats = [Matrix(ring, [[draw() for _ in range(m)] for _ in range(n)])
                    for m in widths]
            if i == 0:
                mats += list(_unit_matrices(ring, n, draw))
            for a in mats:
                result = congruence(h, a)
                assert result.rows == (a.transpose() * h * a).rows
                assert result.is_symmetric() and result.nrows == a.ncols
            # H itself is moved by one changed off-diagonal entry
            broken = [list(row) for row in h.entries]
            broken[0][n - 1] += ring.one()
            with pytest.raises(NotSymmetric):
                congruence(Matrix(ring, broken), mats[0])
    one = ring.one()
    with pytest.raises(NotSymmetric):
        congruence(Matrix(ring, [[one, one]]), Matrix.identity(ring, 2))
    with pytest.raises(DimensionMismatch):
        congruence(Matrix.identity(ring, 3), Matrix.identity(ring, 2))


class _RecordingGF4(GF2k):
    """GF(4) that records the operands of each payload product."""

    def __init__(self):
        super().__init__(2, 0b111)
        self.products = []

    def _mul(self, a, b):
        self.products.append((a, b))
        return super()._mul(a, b)


def test_products_skip_zero_operands_and_unit_left_factors():
    # the product kernel, scalar multiples, the elimination and the cofactor
    # determinants multiply by no zero and no one, on either side; identity,
    # permutation and shear matrices are mostly made of both
    from itertools import combinations, cycle
    ring = _RecordingGF4()
    g = ring.generator
    shear_entries = cycle([g, g * g, g])
    mats = list(_unit_matrices(ring, 4, lambda: next(shear_entries)))
    scaled = [a * g for a in mats]
    # 6x6 ones, so that det and the 4x4 minors take the elimination; the
    # 2x2 and 3x3 minors of the 4x4 ones take the cofactors
    mats6 = list(_unit_matrices(ring, 6, lambda: next(shear_entries)))
    mats6 += [a * g for a in mats6]
    sets6 = [list(c) for c in combinations(range(6), 4)]
    small_sets = [[list(c) for c in combinations(range(4), ell)] for ell in (2, 3)]
    vectors = [Vector(ring, [g, 0, g * g, 1]), Vector(ring, [1, g, 0, g])]
    # H = g S^T S for the identity, the permutation and the shear e_1 -> e_0 + e_1;
    # then a Gram whose restricted Gram turns alternating (the hyperbolic
    # repair step runs) and one with entries one.  det(H) is known first
    forms = [BilinearForm(a.transpose() * a * g)
             for a in _unit_matrices(ring, 4, iter([1, 0, 0]).__next__)]
    forms += [BilinearForm(Matrix(ring, rows)) for rows in (
        [[g, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, g]],
        [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, g, 1], [0, 0, 1, 1]])]
    for form in forms:
        form.det()
    pairs = [(a, b) for a in mats for b in mats + scaled]
    applied = [(a, x) for a in scaled for x in vectors]
    paired = [(a, x, y) for a in scaled for x in vectors for y in vectors]
    squares = mats + scaled
    wide = [Matrix.block([[a, b]]) for a, b in zip(squares, scaled + mats)]
    multiples = [(a, g) for a in mats] + [(a, 1) for a in scaled]
    ring.products.clear()
    products = ([a * b for a, b in pairs], [a * x for a, x in applied],
                [bilinear(a, x, y) for a, x, y in paired], [orthogonalize(f) for f in forms])
    made = ring.products[:]
    ring.products.clear()
    scalars = ([a * s for a, s in multiples], [x.scale(s) for x in vectors for s in (g, 1)])
    dets = [a.det() for a in squares + mats6]
    minors = [a.minors(sets6, sets6) for a in mats6]
    small_minors = [a.minors(sets, sets) for a in squares for sets in small_sets]
    inverses = [a.inverse() for a in squares]
    ranks = [a.rank() for a in squares + wide]
    kernels = [a.kernel_basis() for a in squares + wide]
    solutions = [a.solve(x) for a in squares for x in vectors]
    strict = ring.products[:]
    one = ring._from_int(1)
    assert made and strict
    assert all(not ring._is_zero(x) and not ring._is_zero(y) for x, y in made + strict)
    assert all(x != one and y != one for x, y in made + strict)
    # and the results are right
    assert products[0] == [Matrix(ring, _ref_mul(a, b)) for a, b in pairs]
    assert products[1] == [Vector(ring, [_ref_dot(row, x.entries) for row in a.entries])
                           for a, x in applied]
    assert products[2] == [_ref_dot(x.entries, [_ref_dot(row, y.entries) for row in a.entries])
                           for a, x, y in paired]
    for form, (basis, values) in zip(forms, products[3]):
        assert form.congruent(Matrix.from_columns(ring, basis)).gram == Matrix.diagonal(ring, values)
    assert scalars[0] == [Matrix(ring, [[x * s for x in row] for row in a.entries])
                          for a, s in multiples]
    assert scalars[1] == [Vector(ring, [e * s for e in x]) for x in vectors for s in (g, 1)]
    assert dets == [_cofactor_det(a) for a in squares + mats6]
    assert minors == [Matrix(ring, [[_cofactor_det(Matrix(ring, [[a[i, j] for j in cols]
                                                                 for i in rows]))
                                     for cols in sets6] for rows in sets6])
                      for a in mats6]
    assert small_minors == [Matrix(ring, [[_cofactor_det(Matrix(ring, [[a[i, j] for j in cols]
                                                                       for i in rows]))
                                           for cols in sets] for rows in sets])
                            for a in squares for sets in small_sets]
    identity = [list(r) for r in Matrix.identity(ring, 4).entries]
    assert all(_ref_mul(a, inv) == identity for a, inv in zip(squares, inverses))
    assert ranks == [len(_ref_echelon([list(r) for r in a.entries], ring, a.ncols)[1])
                     for a in squares + wide]
    assert [[list(v) for v in kernel] for kernel in kernels] == [
        _ref_kernel(a) for a in squares + wide]
    assert [None if x is None else list(x) for x in solutions] == [
        _ref_solve(a, x.entries) for a in squares for x in vectors]


def test_mixed_ring_products_raise(gf2, gf4):
    a2, a4 = Matrix.identity(gf2, 2), Matrix.identity(gf4, 2)
    v2, v4 = Vector(gf2, [1, 0]), Vector(gf4, [1, 0])
    for left, right in ((a2, a4), (a4, a2), (a2, v4), (a4, v2)):
        with pytest.raises(DescriptorMismatch):
            left * right
    for gram, x, y in ((a2, v4, v2), (a2, v2, v4), (a4, v2, v2)):
        with pytest.raises(DescriptorMismatch):
            bilinear(gram, x, y)
    with pytest.raises(DescriptorMismatch):
        a2.solve(v4)


def test_equal_rings_built_apart_multiply():
    ring_a, ring_b = GF2k(2, 0b111), GF2k(2, 0b111)
    f2t_a, f2t_b = (RationalFunctionField(GF2(), "t") for _ in range(2))
    g = ring_a.generator
    a = Matrix(ring_a, [[g, 1], [0, g]])
    b = Matrix(ring_b, [[1, ring_b.generator], [ring_b.generator, 0]])
    product = a * b
    assert product.ring is ring_a
    assert product == Matrix(ring_a, [[0, g * g], [g * g, 0]])
    assert a * Vector(ring_b, [1, 1]) == Vector(ring_a, [g + 1, g])
    assert bilinear(a, Vector(ring_b, [1, 0]), Vector(ring_b, [0, 1])).is_one()
    t = f2t_a.generator
    m = Matrix(f2t_a, [[t, 1], [1, 0]])
    assert (m * Matrix.identity(f2t_b, 2)) == m
    assert m.solve(Vector(f2t_b, [1, 0])) == Vector(f2t_a, [0, 1])


def _comparison_rings():
    gf2 = GF2()
    f2t = RationalFunctionField(gf2, "t")
    return {
        "gf2": gf2,
        "gf4": GF2k(2, 0b111),
        "f2t": f2t,
        "f2tu": RationalFunctionField(f2t, "u"),
        "k_t": KAlgebra(f2t, f2t.generator),
    }


@pytest.mark.parametrize("name", sorted(_comparison_rings()))
def test_matrix_eq_and_hash_agree_with_entrywise_comparison(name):
    # Matrix == compares the ring once and then the payload rows; it must be
    # the relation of the entries compared one element at a time
    ring = _comparison_rings()[name]
    rng = random.Random(24)
    draw = _entry_sampler(ring, rng)
    mats = []
    for _ in range(12):
        a = Matrix(ring, [[draw() for _ in range(3)] for _ in range(3)])
        # an equal copy built apart, one with a changed entry and one with
        # the same entries in another shape
        copy = Matrix(ring, [[x for x in row] for row in a.entries])
        changed = [list(row) for row in a.entries]
        changed[rng.randrange(3)][rng.randrange(3)] += ring.one()
        mats += [a, copy, Matrix(ring, changed), Matrix(ring, [list(sum(a.entries, ()))[:9]])]
    for a in mats:
        for b in mats:
            entrywise = ((a.nrows, a.ncols) == (b.nrows, b.ncols) and all(
                x == y for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb)))
            assert (a == b) == entrywise
            assert (a != b) == (not entrywise)
            if entrywise:
                assert hash(a) == hash(b)
        vector = a.column(0)
        assert vector == Vector(ring, list(vector))
        assert hash(vector) == hash(Vector(ring, list(vector)))
        assert (vector == a.column(1)) == all(x == y for x, y in zip(vector, a.column(1)))


def test_equal_payloads_over_other_rings_differ():
    # GF(2) and GF(4) share the payloads 0 and 1: the ring tells them apart,
    # as it does for the elements
    gf2, gf4 = GF2(), GF2k(2, 0b111)
    assert Matrix.identity(gf2, 2).rows == Matrix.identity(gf4, 2).rows
    assert Matrix.identity(gf2, 2) != Matrix.identity(gf4, 2)
    assert Matrix.identity(gf2, 2)[0, 0] != Matrix.identity(gf4, 2)[0, 0]
    assert Vector(gf2, [1, 0]) != Vector(gf4, [1, 0])
    with pytest.raises(DescriptorMismatch):
        Matrix.identity(gf2, 2) + Matrix.identity(gf4, 2)
    with pytest.raises(DescriptorMismatch):
        Vector(gf2, [1, 0]) + Vector(gf4, [1, 0])


@pytest.mark.parametrize("name", ["gf4", "f2tu", "k_t"])
def test_kernels_wrap_no_element_until_an_entry_is_read(name, monkeypatch):
    from char2forms.fields import FieldElement
    ring = _comparison_rings()[name]
    rng = random.Random(7)
    draw = _entry_sampler(ring, rng)
    while True:
        a = Matrix(ring, [[draw() for _ in range(4)] for _ in range(4)])
        if ring.is_unit(a.det()):
            break
    b = Matrix(ring, [[draw() for _ in range(4)] for _ in range(4)])
    s, x = draw(), Vector(ring, [draw() for _ in range(4)])
    sets = [[0, 1], [0, 2], [1, 3], [2, 3]]
    made = []
    init = FieldElement.__init__

    def counting(self, field, payload):
        # str over F2(t)(u) formats coefficients through base-field elements
        if field is ring:
            made.append(payload)
        init(self, field, payload)
    monkeypatch.setattr(FieldElement, "__init__", counting)
    results = [a * b, a.transpose(), a.inverse(), a.minors(sets, sets), a * s, a + b,
               Matrix.block([[a, b]]), Matrix.identity(ring, 4), a.column(2), a * x,
               x.scale(s), x + x, a.solve(x)]
    results += a.kernel_basis() + Matrix.block([[a, b]]).kernel_basis()
    assert made == []
    assert results[0] == results[0] and hash(results[2]) == hash(a.inverse())
    assert str(results[0]) and made == []
    # reading builds the elements read, and no more
    assert results[0][1, 2] == results[0].entries[1][2]
    assert len(made) == 1 + 16
    assert results[0].entries is results[0].entries and len(made) == 17
    monkeypatch.undo()
    assert a * a.inverse() == Matrix.identity(ring, 4)
    assert results[0] == Matrix(ring, _ref_mul(a, b))


def test_matrices_and_vectors_stay_immutable(gf4):
    g = gf4.generator
    a = Matrix(gf4, [[g, 1], [0, g]])
    v = Vector(gf4, [g, 0, 1])
    for obj, names in ((a, ("ring", "nrows", "ncols", "rows", "entries", "_entries")),
                       (v, ("ring", "payloads", "entries", "_entries"))):
        before = obj.entries
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        # the entry cache is built once and is itself immutable
        assert obj.entries is before and isinstance(before, tuple)
    assert all(isinstance(row, tuple) for row in a.entries + (a.rows,) + a.rows)
    with pytest.raises(TypeError):
        a.entries[0][0] = g
    with pytest.raises(TypeError):
        v.entries[0] = g
    with pytest.raises(TypeError):
        a.rows[0] = (0, 0)
    assert a == Matrix(gf4, [[g, 1], [0, g]]) and v == Vector(gf4, [g, 0, 1])


@pytest.mark.parametrize("name", ["gf4", "f2t", "f2tu", "k1"])
def test_multi_rhs_solve_matches_per_column_solve(name):
    # solve of a Matrix of right-hand sides eliminates [M | B] once; each
    # column of its result is the solve of that column alone, it is None when
    # any column has no solution, and it raises NonUnitColumn exactly when
    # the per-column solves do
    ring = _product_rings()[name]
    rng = random.Random(30)
    draw = _small_sampler(name, ring, rng)
    seen = set()
    mats = list(_test_matrices(draw, ring, 4, 9, rng))
    if name == "k1":
        mats.append(_skipped_column_matrix(ring))
    for a in mats:
        xs = [Vector(ring, [draw() for _ in range(4)]) for _ in range(3)]
        solvable = [a * x for x in xs]
        free = Vector(ring, [draw() for _ in range(4)])
        for columns in (solvable, solvable + [free], [free] + solvable[:1]):
            rhs = Matrix.from_columns(ring, columns)
            try:
                each = [a.solve(b) for b in columns]
            except NonUnitColumn:
                with pytest.raises(NonUnitColumn):
                    a.solve(rhs)
                seen.add("undecided")
                continue
            got = a.solve(rhs)
            if any(x is None for x in each):
                assert got is None
                seen.add("none")
            else:
                assert got.columns() == each and a * got == rhs
                seen.add("solved")
            # one column as a Matrix is the Vector solve as a column
            one = a.solve(Matrix.from_columns(ring, columns[:1]))
            assert (None if one is None else one.column(0)) == each[0]
    assert seen == ({"solved", "none", "undecided"} if name == "k1" else {"solved", "none"})
    a = mats[0]
    with pytest.raises(DimensionMismatch):
        a.solve(Matrix.identity(ring, 3))


def test_congruence_is_kept_per_instance_and_form(f2t, monkeypatch):
    # A keeps its latest A^T H A with the H object it was taken by: the same
    # H reads it, another H (or an equal but distinct A) computes again
    from char2forms import linalg
    t = f2t.generator
    calls = []
    real = linalg.congruence_rows
    monkeypatch.setattr(linalg, "congruence_rows",
                        lambda *args: calls.append(1) or real(*args))
    a = Matrix(f2t, [[1, t], [0, 1]])
    h1 = Matrix.diagonal(f2t, [t, 1])
    h2 = Matrix(f2t, [[0, 1], [1, t + 1]])
    expected = {id(h): a.transpose() * h * a for h in (h1, h2)}
    assert congruence(h1, a) == expected[id(h1)] and len(calls) == 1
    assert congruence(h1, a) is congruence(h1, a) and len(calls) == 1
    assert congruence(h2, a) == expected[id(h2)] and len(calls) == 2
    assert congruence(h1, a) == expected[id(h1)] and len(calls) == 3
    # an equal H that is another object is another form to the memo
    h1_copy = Matrix.diagonal(f2t, [t, 1])
    assert congruence(h1_copy, a) == expected[id(h1)] and len(calls) == 4
    twin = Matrix(f2t, [[1, t], [0, 1]])
    assert twin == a and congruence(h1, twin) == expected[id(h1)] and len(calls) == 5
    # the memo is no part of the value: equality and hashing ignore it
    assert hash(twin) == hash(a)
    # a congruence that raises replaces nothing
    with pytest.raises(NotSymmetric):
        congruence(Matrix(f2t, [[0, 1], [0, 0]]), a)
    assert len(calls) == 6
    assert congruence(h1_copy, a) == expected[id(h1)] and len(calls) == 6
