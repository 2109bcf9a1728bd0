"""Isometry and similitude groups of non-alternating forms in dimension 4.

The classification has five cases, set by the defect of q (0-3) and, for
defect 2, by whether K splits.  ``CASES`` states the fixed claims of each
case once: its defect, the K-split values it admits, the structure of
O(V,h), |O(V,h)| over GF(q), and a (multipliers, note) pair per sub-case
(``None`` where there is none; defect 0 has ``split``, ``nonsplit`` and
``none``).  The report text, the case check of ``classify`` and the
predicted order are all read off that table.

Each case comes with an explicit normal form, explicit generators, the
similitude families realizing the multiplier set, and the representation on
the K-module W = Lambda^2 V (and on Wz in the split cases).  ``classify``
normalizes an arbitrary non-degenerate non-alternating 4-dimensional form to
the matching normal form by constructive basis changes and checks the
generators there; the report keeps only that computed data, and moves the
generators to the input coordinates on first read.

All group elements are plain matrices with a multiplier.  Over every
finite ring the group a generator set generates is held as a Schreier-Sims
chain of column stabilizers (`_smallfield.ChainGroup`), on packed rows over
GF(2^k) with q <= 256 and on payload rows elsewhere; its order is known
before any element is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from ._smallfield import ChainGroup, row_view, stabilizer_chain
from .errors import Char2FormsError, CheckFailed, require
from .exterior import compound_matrix, hodge
from .fields import FieldElement
from .forms import BilinearForm, DegenerateForm, FormError, quadratic_data
from .kalgebra import KAlgebra, KModule, NotSplit, build_module, wz_submodule
from .linalg import DimensionMismatch, Matrix, Vector, congruence, square_span_solve


# `classify` proves <gens> = O(V,h) only up to this order: the identity form
# gives 48 over GF(2), 3,840 over GF(4), 258,048 over GF(8) and 16,711,680
# over GF(16).  The oracle finds the transversals of its chain of column
# stabilizers, one isometry per point of the orbit of e_j under G_j (the
# isometries fixing e_0..e_(j-1)), and their sizes multiply to |O(V,h)|;
# the generators, checked as isometries, close to a Schreier-Sims chain
# whose order is then exact, and equal orders prove the groups equal.
# Neither group is listed.  Over GF(8) the transversal search takes
# 0.2-0.37 s and the chain 3.5-6.5 ms, and a run of classify about 0.5 s at
# an 18 MB peak; over GF(16) the transversal search alone takes about 11 s
# (Python 3.11, 2 shared cores)
MAX_VERIFIED_ORDER = 10 ** 6


class GroupError(Char2FormsError):
    pass


class NotUnimodular(GroupError):
    pass


class NotSimilitude(GroupError):
    pass


class HypothesisViolated(GroupError):
    pass


class EnumerationTooLarge(GroupError):
    pass


# ---------------------------------------------------------------------------
# membership predicates

def is_isometry(form: BilinearForm, a: Matrix) -> bool:
    """A^T H A = H with A invertible."""
    if not a.is_square() or a.nrows != form.dim:
        raise DimensionMismatch("candidate has the wrong shape")
    if congruence(form.gram, a) != form.gram:
        return False
    return not a.det().is_zero()


def similitude_multiplier(form: BilinearForm, a: Matrix) -> Optional[FieldElement]:
    """r with A^T H A = r H and r != 0, if one exists."""
    if not a.is_square() or a.nrows != form.dim:
        raise DimensionMismatch("candidate has the wrong shape")
    m = congruence(form.gram, a)
    ring, gram, n = form.gram.ring, form.gram.rows, form.dim
    anchor = next(((i, j) for i in range(n) for j in range(n)
                   if not ring._is_zero(gram[i][j])), None)
    if anchor is None:
        return None
    i, j = anchor
    if ring._is_zero(m.rows[i][j]):
        return None
    r = FieldElement(ring, ring._mul(m.rows[i][j], ring._inv(gram[i][j])))
    if m != form.gram * r:
        return None
    return r


@dataclass(frozen=True)
class GroupElement:
    """A similitude candidate with its multiplier (1 for isometries)."""

    matrix: Matrix
    multiplier: FieldElement


# ---------------------------------------------------------------------------
# SL2 over a commutative local ring of characteristic 2

def l2(ring, x) -> Matrix:
    x = ring.coerce(x)
    return Matrix(ring, [[ring.one(), ring.zero()], [x, ring.one()]])


def u2(ring, x) -> Matrix:
    x = ring.coerce(x)
    return Matrix(ring, [[ring.one(), x], [ring.zero(), ring.one()]])


@dataclass(frozen=True)
class SL2Word:
    """A word in the elementary matrices L(x) and U(x)."""

    ring: object
    letters: tuple[tuple[str, object], ...]

    def evaluate(self) -> Matrix:
        out = Matrix.identity(self.ring, 2)
        for kind, x in self.letters:
            out = out * (l2(self.ring, x) if kind == "L" else u2(self.ring, x))
        return out

    def __str__(self):
        return " ".join(f"{kind}({x})" for kind, x in self.letters)


def sl2_decompose(a: Matrix) -> SL2Word:
    """Factor a determinant-1 matrix over a local char-2 ring into L/U letters.

    Over a local ring the entries a11 and a21 cannot both be non-units, which
    picks one of two explicit words of length at most four.
    """
    ring = a.ring
    if a.nrows != 2 or a.ncols != 2:
        raise DimensionMismatch("SL2 decomposition needs a 2x2 matrix")
    one = ring.one()
    det = a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0]
    if det != one:
        raise NotUnimodular(f"determinant is {det}, not 1")
    aa, ab, ac, ad = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    if ring.is_unit(aa):
        inv = aa.inverse()
        word = SL2Word(ring, (("L", inv * (ac + one)), ("U", aa + one),
                              ("L", one), ("U", inv * (one + ab + aa))))
    elif ring.is_unit(ac):
        inv = ac.inverse()
        word = SL2Word(ring, (("U", inv * (aa + one)), ("L", ac),
                              ("U", inv * (ad + one))))
    else:
        raise GroupError("internal: both corner entries non-invertible with det 1")
    require(word.evaluate() == a, "internal: the L/U word does not reproduce the matrix")
    return word


def hat_l(ring, x) -> Matrix:
    x = ring.coerce(x)
    one, zero = ring.one(), ring.zero()
    return Matrix(ring, [[one + x, zero, x], [zero, one, zero], [x, zero, one + x]])


def hat_u(ring, x) -> Matrix:
    x = ring.coerce(x)
    one, zero = ring.one(), ring.zero()
    return Matrix(ring, [[one + x, x, zero], [x, one + x, zero], [zero, zero, one]])


def t_hat(ring) -> Matrix:
    one, zero = ring.one(), ring.zero()
    return Matrix(ring, [[one, one, one], [one, one, zero], [one, zero, one]])


def o3_prime_gram(ring) -> Matrix:
    """Gram of f'(x,y) = x1 y1 + x2 y3 + x3 y2."""
    one, zero = ring.one(), ring.zero()
    return Matrix(ring, [[one, zero, zero], [zero, zero, one], [zero, one, zero]])


@dataclass(frozen=True)
class O3Data:
    """Generators of O(R^3, f) for the sum-of-products form f."""

    ring: object
    generators: tuple[Matrix, ...]
    f_gram: Matrix


def o3_standard_form_group(ring) -> O3Data:
    """The group generated by hat L/U inside O(R^3, f), f = x1y1 + x2y2 + x3y3.

    Over a field of characteristic 2 this is the whole orthogonal group of f
    (kernel-of-q invariance pins the block shape).  Over a split quadratic
    ring the kernel of q is strictly larger than R u2 + R u3, and the full
    orthogonal group strictly contains the generated copy of SL2(R) (over
    F2[z]/(z^2) it is 8 times bigger; see the tests for the measured orders).

    For a finite ring the generator set runs over all ring elements; for an
    infinite ring the representatives use the parameter 1 (the families are
    additive in their parameter).
    """
    if ring.order is not None:
        params = [x for x in ring.elements() if not x.is_zero()]
    else:
        params = [ring.one()]
    gens = tuple(hat_l(ring, x) for x in params) + tuple(hat_u(ring, x) for x in params)
    return O3Data(ring=ring, generators=gens, f_gram=Matrix.identity(ring, 3))


def generate_closure(generators: Sequence[Matrix], cap: int = MAX_VERIFIED_ORDER,
                     within=None) -> Sequence[Matrix]:
    """The group the invertible `generators` generate, a
    `_smallfield.ChainGroup` built by Sims' algorithm on the rows of the
    ring's `row_view` (packed over GF(2^k) with q <= 256, payload rows over
    any other finite ring); raises beyond `cap` elements, and `GroupError`
    on a singular generator.  Its `len` is the chain's order, and its
    elements are listed only where they are read.  `within` may be an
    `oracle.EnumerationResult`, O(V,h) for a form over the generators'
    field.  When every generator is an isometry of that form (checked on
    packed rows, and kept for `oracle.closure_order_matches`), <gens> lies
    in O(V,h), so the chain stops growing once its order reaches |O(V,h)|.
    """
    if not generators:
        return []
    view = row_view(generators[0].ring)
    gens = tuple(view.encode_matrix(g) for g in generators)
    if any(view.inverse(g) is None for g in gens):
        raise GroupError("closure generators must be invertible")
    preserved = {}
    if within is not None and within.field == view.field:
        preserved[within.gram] = view.preserve(gens, within.gram)
    bound = within.order if any(preserved.values()) else None
    levels = stabilizer_chain(view, gens, cap, bound)
    if levels is None:
        raise EnumerationTooLarge(f"closure exceeds cap {cap}")
    return ChainGroup(view.field, levels, gens, preserved)


# ---------------------------------------------------------------------------
# the representation on the K-module W and on Wz

def eta(module: KModule, a: Matrix) -> Matrix:
    """The matrix of Lambda^2 A on the K-basis B1, entries in K.

    Defined for similitudes of the underlying form; their exterior action
    commutes with J, hence is K-linear.  The similitude check reads the
    congruence A^T H A that A keeps, and Lambda^2 A is kept on A as well.
    """
    r = similitude_multiplier(module.hodge.form, a)
    if r is None:
        raise NotSimilitude("eta is defined on similitudes only")
    space, field = module.hodge.space, module.field
    la = compound_matrix(a, space.ell)
    j = module.hodge.j_matrix
    # the images of the B1 wedges e_S under Lambda^2 A and J are the columns
    # S of la and j
    b1 = [space.position(s) for s in module.basis_sets]
    la_b1 = Matrix._from_payloads(field, [[row[p] for p in b1] for row in la.rows])
    j_b1 = Matrix._from_payloads(field, [[row[p] for p in b1] for row in j.rows])
    # K-linearity probe on the basis (automatic for similitudes)
    if j * la_b1 != la * j_b1:
        raise NotSimilitude("exterior action fails to be K-linear")
    columns = [module.k_coordinates(image) for image in la_b1.columns()]
    return Matrix(module.algebra, zip(*columns))


def eta_multiplier(module: KModule, a: Matrix) -> FieldElement:
    """The similitude multiplier of eta(A) on (W, g): r^2 for multiplier r."""
    r = similitude_multiplier(module.hodge.form, a)
    if r is None:
        raise NotSimilitude("eta is defined on similitudes only")
    return r * r


def eta_o(module: KModule, a: Matrix, wz_basis: Optional[Sequence[Vector]] = None) -> Matrix:
    """The action of Lambda^2 A on Wz, in the given (or canonical) wz basis."""
    if wz_basis is None:
        wz_basis = wz_submodule(module)[0]
    la = compound_matrix(a, module.hodge.space.ell)
    wz_mat = Matrix.from_columns(module.field, list(wz_basis))
    # every column of Lambda^2 A W in the basis W, by one elimination
    image = wz_mat.solve(la * wz_mat)
    if image is None:
        raise NotSplit("Wz is not invariant under the given map")
    return image


def preserves_g(module: KModule, m: Matrix) -> bool:
    """Whether a K-matrix on B1 satisfies M^T G M = G for the K-valued form."""
    return congruence(module.g_gram, m) == module.g_gram


def scales_g(module: KModule, m: Matrix, r) -> bool:
    return congruence(module.g_gram, m) == module.g_gram * module.algebra.coerce(r)


# ---------------------------------------------------------------------------
# defect 3: the sum-of-squares case

def sum_squares_basis(field) -> Matrix:
    """Columns b1..b4 turning the identity Gram into the hyperbolic-ish h~."""
    one, zero = field.one(), field.zero()
    return Matrix(field, [[one, one, one, zero],
                          [one, one, zero, zero],
                          [one, zero, one, zero],
                          [one, zero, zero, one]])


def h_tilde_gram(field) -> Matrix:
    one, zero = field.one(), field.zero()
    return Matrix(field, [[zero, zero, zero, one],
                          [zero, zero, one, zero],
                          [zero, one, zero, zero],
                          [one, zero, zero, one]])


def xi_matrix(field, t1, t2, t3) -> Matrix:
    """The unipotent isometry xi(t1,t2,t3) of h~, in the b-basis coordinates."""
    t1, t2, t3 = field.coerce(t1), field.coerce(t2), field.coerce(t3)
    one, zero = field.one(), field.zero()
    return Matrix(field, [[one, t2, t1, t3 + t1 * t2],
                          [zero, one, zero, t1],
                          [zero, zero, one, t2],
                          [zero, zero, zero, one]])


def sigma_matrix(b: Matrix) -> Matrix:
    """diag(1, B, 1) for B in SL2(F), in the b-basis coordinates."""
    field, (top, bottom) = b.ring, b.rows
    one, zero = field._from_int(1), field._from_int(0)
    return Matrix._from_payloads(field, [[one, zero, zero, zero],
                                         [zero, *top, zero],
                                         [zero, *bottom, zero],
                                         [zero, zero, zero, one]])


def _field_additive_basis(field) -> list[FieldElement]:
    """An F2-basis when the field is finite, else the single element 1."""
    if getattr(field, "k", None) is not None and field.order is not None:
        g = field.generator
        out = [field.one()]
        for _ in range(field.k - 1):
            out.append(out[-1] * g)
        return out
    return [field.one()]


def defect3_generators(field) -> list[Matrix]:
    """Generators of O(F^4, identity) in standard coordinates."""
    b = sum_squares_basis(field)
    b_inv = b.inverse()
    gens = []
    for x in _field_additive_basis(field):
        zero = field.zero()
        gens.append(b * xi_matrix(field, x, zero, zero) * b_inv)
        gens.append(b * xi_matrix(field, zero, x, zero) * b_inv)
        gens.append(b * xi_matrix(field, zero, zero, x) * b_inv)
        gens.append(b * sigma_matrix(l2(field, x)) * b_inv)
        gens.append(b * sigma_matrix(u2(field, x)) * b_inv)
    return gens


# ---------------------------------------------------------------------------
# defect 2: the two diagonal normal forms

def h1_gram(field, m) -> Matrix:
    m = field.coerce(m)
    if m.is_square():
        raise HypothesisViolated("defect 2 needs m outside the squares")
    return Matrix.diagonal(field, [m, field.one(), field.one(), field.one()])


def h2_gram(field, m) -> Matrix:
    m = field.coerce(m)
    if m.is_square():
        raise HypothesisViolated("defect 2 needs m outside the squares")
    one = field.one()
    return Matrix.diagonal(field, [m, m, one, one])


def _one_plus_block(field, block: Matrix) -> Matrix:
    top = Matrix(field, [[field.one()]])
    pad_r = Matrix.zeros(field, 1, 3)
    pad_c = Matrix.zeros(field, 3, 1)
    return Matrix.block([[top, pad_r], [pad_c, block]])


def h1_isometry_l(field, x) -> Matrix:
    """The generator diag(1, hat L_x) of O(V, H1) in standard coordinates."""
    return _one_plus_block(field, hat_l(field, x))


def h1_isometry_u(field, x) -> Matrix:
    return _one_plus_block(field, hat_u(field, x))


def h1_b_basis(field) -> Matrix:
    """b1 = e1, b2 = e2+e3+e4, b3 = e2+e3, b4 = e2+e4 (block-diagonalizes H1)."""
    return _one_plus_block(field, t_hat(field))


def _norm_block_similitude(field, basis, m, a, b) -> tuple[Matrix, FieldElement]:
    """diag(A, A) with A = [[a, b], [b m, a]] in the given basis, moved to
    standard coordinates, and its multiplier a^2 + b^2 m."""
    a, b, m = field.coerce(a), field.coerce(b), field.coerce(m)
    blk = Matrix(field, [[a, b], [b * m, a]])
    z = Matrix.zeros(field, 2, 2)
    mat = basis * Matrix.block([[blk, z], [z, blk]]) * basis.inverse()
    return mat, a * a + b * b * m


def h1_similitude(field, m, a, b) -> tuple[Matrix, FieldElement]:
    """A similitude of H1 with multiplier a^2 + b^2 m, in standard coordinates."""
    return _norm_block_similitude(field, h1_b_basis(field), m, a, b)


def h2_isometry(field, m, a, b, c) -> Matrix:
    """[[E+aM, bM], [mbM, E+cM]] with M the all-ones 2x2 matrix (M^2 = 0)."""
    m, a, b, c = (field.coerce(v) for v in (m, a, b, c))
    one, zero = field.one(), field.zero()
    e = Matrix.identity(field, 2)
    mm = Matrix(field, [[one, one], [one, one]])
    return Matrix.block([[e + mm * a, mm * b], [mm * (m * b), e + mm * c]])


def h2_d_basis(field) -> Matrix:
    """d1 = e1+e2, d2 = e3+e4, d3 = e1, d4 = e4 (kernel of q first)."""
    one, zero = field.one(), field.zero()
    return Matrix(field, [[one, zero, one, zero],
                          [one, zero, zero, zero],
                          [zero, one, zero, zero],
                          [zero, one, zero, one]])


def h2_similitude(field, m, a, b) -> tuple[Matrix, FieldElement]:
    """A similitude of H2 with multiplier a^2 + b^2 m, in standard coordinates."""
    return _norm_block_similitude(field, h2_d_basis(field), m, a, b)


def h2_eta_o_matrix(field, m, a, b, c) -> Matrix:
    """The action of the (a,b,c) isometry of H2 on Wz, in the basis
    (v1^v4)z, (v1^v3)z, (v1^v2)z.  The parameter b drops out."""
    m, a, b, c = (field.coerce(v) for v in (m, a, b, c))
    one, zero = field.one(), field.zero()
    s = a + c
    return Matrix(field, [[one + s, s, zero],
                          [s, one + s, zero],
                          [zero, zero, one]])


# ---------------------------------------------------------------------------
# defect 1

def defect1_gram(field, c3, c4) -> Matrix:
    """[[0,1],[1,1]] + diag(c3, c4) in the basis u1..u4; checks the hypotheses."""
    c3, c4 = field.coerce(c3), field.coerce(c4)
    one, zero = field.one(), field.zero()
    delta = c3 * c4
    if delta.is_square():
        raise HypothesisViolated("defect 1 needs a non-square discriminant c3*c4")
    if square_span_solve(one, [c3, c4]) is not None:
        raise HypothesisViolated("defect 1 needs 1, c3, c4 independent over the squares")
    algebra = KAlgebra(field, delta)
    if algebra.coerce(c3).is_square():
        raise HypothesisViolated("defect 1 needs c3 outside the squares of K")
    return Matrix(field, [[zero, one, zero, zero],
                          [one, one, zero, zero],
                          [zero, zero, c3, zero],
                          [zero, zero, zero, c4]])


def defect1_isometry(field, x) -> Matrix:
    """diag(U_x, E) in the u-basis coordinates."""
    x = field.coerce(x)
    one, zero = field.one(), field.zero()
    return Matrix(field, [[one, x, zero, zero],
                          [zero, one, zero, zero],
                          [zero, zero, one, zero],
                          [zero, zero, zero, one]])


def defect1_v_basis(field) -> Matrix:
    """v1 = u1+u2, v2 = u2, v3 = u3, v4 = u4: an orthogonal basis."""
    one, zero = field.one(), field.zero()
    return Matrix(field, [[one, zero, zero, zero],
                          [one, one, zero, zero],
                          [zero, zero, one, zero],
                          [zero, zero, zero, one]])


def defect1_module(field, c3, c4) -> KModule:
    """The K-module over the orthogonal v-basis diag(1, 1, c3, c4)."""
    defect1_gram(field, c3, c4)  # hypothesis check
    one = field.one()
    gram = Matrix.diagonal(field, [one, one, field.coerce(c3), field.coerce(c4)])
    return build_module(hodge(BilinearForm(gram)))


def defect1_w_basis(module: KModule) -> tuple[Matrix, Matrix]:
    """K-coordinate change to the basis w1 = v1^v3, w2 = (v1^v4)(j/c4), w3 = v1^v2.

    Returns (C, w_gram): columns of C are the w-vectors in B1 coordinates and
    w_gram = C^T G C = diag(c3, c3, 1), so w1 + w2 is g-isotropic and the
    isometries act by hat U matrices with entries in F.
    """
    algebra = module.algebra
    field = module.field
    c4 = module.hodge.form.gram[3, 3]
    zero, one = algebra.zero(), algebra.one()
    jc4 = algebra.j() * algebra.coerce(c4.inverse())
    c = Matrix(algebra, [[zero, zero, one],
                         [one, zero, zero],
                         [zero, jc4, zero]])
    w_gram = congruence(module.g_gram, c)
    return c, w_gram


# ---------------------------------------------------------------------------
# defect 0

def m_k(field, k) -> Matrix:
    k = field.coerce(k)
    one, zero = field.one(), field.zero()
    return Matrix(field, [[zero, k], [one, zero]])


def defect0_gram(field, a, c, b) -> Matrix:
    """diag(1, a, c, c*b); requires the four entries independent over squares."""
    a, c, b = field.coerce(a), field.coerce(c), field.coerce(b)
    one = field.one()
    entries = [one, a, c, c * b]
    if square_span_solve(entries[3], entries[:3]) is not None or \
            square_span_solve(entries[2], entries[:2]) is not None or \
            square_span_solve(entries[1], entries[:1]) is not None:
        raise HypothesisViolated("defect 0 needs diagonal entries independent over squares")
    return Matrix.diagonal(field, entries)


def defect0_gram_from_parameters(field, r, s, c, t) -> tuple[Matrix, Matrix]:
    """The Gram matrix built from a defect-0 similitude with multiplier r.

    Returns (gram in the v-basis, change to the orthogonal u-basis) where the
    u-basis Gram is diag(1, a, c, c*b) with a = r + s^2 and b = r + t^2.
    """
    r, s, c, t = (field.coerce(v) for v in (r, s, c, t))
    one, zero = field.one(), field.zero()
    gram = Matrix(field, [[one, s, zero, zero],
                          [s, r, zero, zero],
                          [zero, zero, c, c * t],
                          [zero, zero, c * t, c * r]])
    u_basis = Matrix(field, [[one, s, zero, zero],
                             [zero, one, zero, zero],
                             [zero, zero, one, t],
                             [zero, zero, zero, one]])
    return gram, u_basis


def defect0_nonsplit_similitude(field, a, b, x, y) -> tuple[Matrix, FieldElement]:
    """diag(A, psi(A)) for A = xE + yM_a, with psi(xE + yM_a) = (x + rho y)E + yM_b.

    rho = sqrt(a + b) must lie in F (the non-split case); the multiplier of a
    nonzero element is x^2 + y^2 a.
    """
    a, b, x, y = (field.coerce(v) for v in (a, b, x, y))
    rho = (a + b).sqrt()
    if rho is None:
        raise HypothesisViolated("the non-split family needs a + b a square in F")
    e = Matrix.identity(field, 2)
    top = e * x + m_k(field, a) * y
    bot = e * (x + rho * y) + m_k(field, b) * y
    z = Matrix.zeros(field, 2, 2)
    return Matrix.block([[top, z], [z, bot]]), x * x + y * y * a


def defect0_split_family(field, a, c) -> tuple[Matrix, Matrix]:
    """The commuting similitudes A (multiplier a) and C (multiplier c)."""
    a, c = field.coerce(a), field.coerce(c)
    ma = m_k(field, a)
    z = Matrix.zeros(field, 2, 2)
    e = Matrix.identity(field, 2)
    big_a = Matrix.block([[ma, z], [z, ma]])
    big_c = Matrix.block([[z, e * c], [e, z]])
    return big_a, big_c


def defect0_split_element(field, a, c, x1, x2, x3, x4) -> tuple[Matrix, FieldElement]:
    """x1 E + x2 A + x3 C + x4 AC and its multiplier x1^2 + x2^2 a + x3^2 c + x4^2 ac."""
    a, c, x1, x2, x3, x4 = (field.coerce(v) for v in (a, c, x1, x2, x3, x4))
    big_a, big_c = defect0_split_family(field, a, c)
    e4 = Matrix.identity(field, 4)
    mat = e4 * x1 + big_a * x2 + big_c * x3 + (big_a * big_c) * x4
    mult = x1 * x1 + x2 * x2 * a + x3 * x3 * c + x4 * x4 * (a * c)
    return mat, mult


# ---------------------------------------------------------------------------
# classification

_SQUARE_MULTIPLIERS = "every multiplier is a square: GO(V,h) = F^x * O(V,h)"
_NORM_MULTIPLIERS = ("multipliers form the inseparable quadratic extension "
                     "F^2(m) minus 0 (all a^2 + b^2 m != 0)")


@dataclass(frozen=True)
class Case:
    """The fixed claims of one classification case (a row of ``CASES``)."""

    defect: int
    k_split: tuple[bool, ...]
    structure: str
    order: Callable[[int], int]
    subcases: dict[Optional[str], tuple[str, str]]


CASES: dict[str, Case] = {
    "defect3": Case(
        3, (True,), "O(V,h) ~= (SL2(F) semidirect F^2) x F; K splits",
        lambda q: q ** 4 * (q * q - 1),
        {None: (_SQUARE_MULTIPLIERS,
                "generators: xi(t1,t2,t3) spanning Xi and diag(1,B,1) with "
                "B in SL2(F), transported from the hyperbolic coordinates")}),
    "defect2_nonsplit": Case(
        2, (False,), "O(V,h) ~= SL2(F); K = F(j) with j^2 = m",
        lambda q: q * (q * q - 1),
        {None: (_NORM_MULTIPLIERS,
                "isometries diag(1, hat L_x) and diag(1, hat U_x), x in F, "
                "generate O; similitudes diag(A, A) with A = [[a,b],[bm,a]] "
                "realize every multiplier a^2 + b^2 m")}),
    "defect2_split": Case(
        2, (True,), "O(V,h) ~= (F^3, +), elementary abelian of exponent 2; K splits",
        lambda q: q ** 3,
        {None: (_NORM_MULTIPLIERS,
                "O(V,h) = {[[E+aM, bM],[mbM, E+cM]]: a,b,c in F} with M the "
                "all-ones matrix; the action on Wz has kernel {a = c}")}),
    "defect1": Case(
        1, (False,), "O(V,h) ~= (F, +); K is not split",
        lambda q: q,
        {None: (_SQUARE_MULTIPLIERS,
                "O(V,h) = {diag(U_x, E): x in F} in the u-basis; on the K-basis "
                "(v1^v3, (v1^v4)(j/c4), v1^v2) the form g is diag(c3, c3, 1) and "
                "eta sends the generator family to hat U_x")}),
    "defect0": Case(
        0, (True, False), "q is anisotropic; O(V,q) and O(V,h) are trivial",
        lambda q: 1,
        {"split": ("every element of E = F^2(a) + F^2(a)c occurs as a "
                   "multiplier; GO(V,h) is sharply transitive on V minus 0",
                   "split sub-case (a = b): the similitudes F(A,C) form a "
                   "field acting sharply transitively"),
         "nonsplit": ("multipliers form F^2(a) minus 0, the multiplicative "
                      "group of an inseparable quadratic extension of F^2",
                      "non-split sub-case (rho = sqrt(a+b) in F): similitudes "
                      "are the nonzero elements of the field L = {diag(A, psi(A))}"),
         "none": ("no similitude with non-square multiplier found among "
                  "the constructed families; F^x * id is realized",
                  "similitude analysis skipped: the diagonal (1,a,c,cb) "
                  "fits neither constructed family (a+b not a square, a != b)")}),
}


@dataclass(frozen=True)
class ClassificationReport:
    """The computed data of a classification; the claims are read off
    ``CASES[case]``, the sub-case from ``case_data``."""

    case: str
    k_split: bool
    case_data: dict
    normalizer: Matrix
    scale: FieldElement
    normal_gram: Matrix
    normal_generators: tuple[GroupElement, ...]

    @cached_property
    def generators(self) -> tuple[GroupElement, ...]:
        """The normal-form generators g moved to the input coordinates as
        S g S^-1 (S the normalizer), computed on first read and kept."""
        s, s_inv = self.normalizer, self.normalizer.inverse()
        return tuple(GroupElement(matrix=s * g.matrix * s_inv, multiplier=g.multiplier)
                     for g in self.normal_generators)

    @property
    def defect(self) -> int:
        return CASES[self.case].defect

    @property
    def description(self) -> str:
        return CASES[self.case].structure

    @property
    def multipliers(self) -> str:
        return self._subcase[0]

    @property
    def notes(self) -> tuple[str, ...]:
        return (self._subcase[1],)

    @property
    def _subcase(self) -> tuple[str, str]:
        return CASES[self.case].subcases[self.case_data.get("subcase")]

    def predicted_order(self, q: int) -> int:
        """Group order over a field with q elements."""
        return CASES[self.case].order(q)


def _same_square_class(a: FieldElement, b: FieldElement) -> bool:
    return (a * b).is_square()


def _rescale_to(value: FieldElement, target: FieldElement) -> FieldElement:
    """r with r^2 * value = target (values in one square class)."""
    root = (target * value.inverse()).sqrt()
    require(root is not None, "internal: rescaling across square classes")
    return root


def classify(form: BilinearForm) -> ClassificationReport:
    """Normalize a 4-dimensional form to its defect case and build the report."""
    if form.dim != 4:
        raise FormError("the classification covers dimension 4")
    if form.is_degenerate():
        raise DegenerateForm("classification needs a non-degenerate form")
    qd = quadratic_data(form)
    k_split = form.det().is_square()
    defect = qd.defect

    if defect == 3:
        return _classify_defect3(form, qd, k_split)
    if defect == 2:
        return _classify_defect2(form, qd, k_split)
    if defect == 1:
        return _classify_defect1(form, qd, k_split)
    if defect == 0:
        return _classify_defect0(form, qd, k_split)
    raise CheckFailed(f"internal: impossible defect {defect}")


def _case_report(form, qd, k_split, case, s, scale, normal, isometries=(), similitudes=(),
                 *, case_data) -> ClassificationReport:
    """Check a normal form and its generators, then build the report.

    S^T H S must equal scale * normal.  The isometries and the (matrix,
    multiplier) similitudes are given and checked in the normal-form
    coordinates, an isometry as a similitude of multiplier 1; by that
    congruence this is the check of S g S^-1 against H, without its large
    fractions.  The report keeps them in those coordinates; it computes
    S g S^-1 only when its ``generators`` are read.
    """
    row = CASES[case]
    require(qd.defect == row.defect and k_split in row.k_split,
            f"internal: case {case} does not match (defect={qd.defect}, split={k_split})")
    require(congruence(form.gram, s) == normal * scale,
            "internal: the normalizing basis does not reach the normal form")
    normal_form = BilinearForm(normal)
    one = form.field.one()
    checked = [(g, one) for g in isometries] + list(similitudes)
    for g, mult in checked:
        require(similitude_multiplier(normal_form, g) == mult,
                "internal: a constructed generator has the wrong multiplier")
    return ClassificationReport(
        case=case, k_split=k_split, case_data=case_data, normalizer=s, scale=scale,
        normal_gram=normal, normal_generators=tuple(GroupElement(matrix=g, multiplier=mult)
                                                    for g, mult in checked))


def _classify_defect3(form, qd, k_split) -> ClassificationReport:
    field = form.field
    c1 = qd.values[0]
    # scale each orthogonal vector so that its value becomes c1
    s = Matrix.from_columns(
        field, [v.scale(_rescale_to(c, c1)) for v, c in zip(qd.basis, qd.values)])
    return _case_report(
        form, qd, k_split, "defect3", s, c1, Matrix.identity(field, 4),
        isometries=defect3_generators(field), case_data={})


def _defect2_normal_form(form, qd):
    """Iterate the two-entry rewriting step until diag(m,1,1,1) or diag(m,m,1,1)."""
    field = form.field
    vecs = list(qd.basis)
    vals = list(qd.values)

    def class_count():
        reps: list[FieldElement] = []
        for v in vals:
            if not any(_same_square_class(v, r) for r in reps):
                reps.append(v)
        return len(reps)

    def t_step(i, j, target_idx):
        # rewrite the orthogonal pair (slot i, slot j) so that slot j takes the
        # value of slot target_idx: c_target = s^2 c_i + t^2 c_j
        sol = square_span_solve(vals[target_idx], [vals[i], vals[j]])
        require(sol is not None, "internal: the rewriting step has no solution")
        sv, tv = sol
        fi = vecs[i].scale(tv * vals[j]) + vecs[j].scale(sv * vals[i])
        fj = vecs[i].scale(sv) + vecs[j].scale(tv)
        new_val = (tv * vals[j]) ** 2 * vals[i] + (sv * vals[i]) ** 2 * vals[j]
        vecs[i], vals[i] = fi, new_val
        vecs[j], vals[j] = fj, vals[target_idx]

    def rescale(i, target):
        r = _rescale_to(vals[i], target)
        vecs[i] = vecs[i].scale(r)
        vals[i] = target

    # put an independent pair in slots 0, 1 (first pair in lex order)
    pair = next(((i, j) for i in range(4) for j in range(i + 1, 4)
                 if not _same_square_class(vals[i], vals[j])), None)
    require(pair is not None, "internal: defect 2 without two square classes")
    order = [pair[0], pair[1]] + [k for k in range(4) if k not in pair]
    vecs = [vecs[k] for k in order]
    vals = [vals[k] for k in order]

    before = class_count()
    # slot 2 relative to slot 0, exactly as in the two-entry rewriting argument
    if _same_square_class(vals[2], vals[0]):
        rescale(2, vals[0])
    else:
        t_step(0, 2, 1)  # now slots 1 and 2 both carry c2
    require(class_count() <= before, "internal: the rewriting step added a square class")

    dup_value = vals[2]
    single_idx = next(k for k in range(3) if not _same_square_class(vals[k], dup_value))
    if _same_square_class(vals[3], dup_value):
        rescale(3, dup_value)
        variant = "H1"
    elif _same_square_class(vals[3], vals[single_idx]):
        rescale(3, vals[single_idx])
        variant = "H2"
    else:
        before = class_count()
        t_step(single_idx, 3, [k for k in range(3) if k != single_idx][0])
        require(class_count() < before, "internal: the rewriting step kept every square class")
        variant = "H1"

    if variant == "H1":
        single_idx = next(k for k in range(4)
                          if not _same_square_class(vals[k], dup_value))
        for k in range(4):
            if k != single_idx:
                rescale(k, dup_value)
        order = [single_idx] + [k for k in range(4) if k != single_idx]
        vecs = [vecs[k] for k in order]
        vals = [vals[k] for k in order]
        scale = vals[1]
        m = vals[0] * scale.inverse()
    else:
        pair_a = [k for k in range(4) if _same_square_class(vals[k], dup_value)]
        pair_b = [k for k in range(4) if k not in pair_a]
        for k in pair_a:
            rescale(k, dup_value)
        for k in pair_b:
            rescale(k, vals[pair_b[0]])
        # m goes first: diag(m, m, 1, 1) with m = (dup value)/(other pair value)
        scale = vals[pair_b[0]]
        m = vals[pair_a[0]] * scale.inverse()
        vecs = [vecs[k] for k in pair_a + pair_b]
        vals = [vals[k] for k in pair_a + pair_b]

    require(not m.is_square(), "internal: the defect-2 parameter m is a square")
    s = Matrix.from_columns(form.field, vecs)
    return s, scale, m, variant


def _classify_defect2(form, qd, k_split) -> ClassificationReport:
    field = form.field
    one, zero = field.one(), field.zero()
    s, scale, m, variant = _defect2_normal_form(form, qd)
    if variant == "H1":
        case, normal = "defect2_nonsplit", h1_gram(field, m)
        isometries = [h1_isometry_l(field, one), h1_isometry_u(field, one)]
        similitude = h1_similitude(field, m, zero, one)
    else:
        case, normal = "defect2_split", h2_gram(field, m)
        isometries = [h2_isometry(field, m, one, zero, zero),
                      h2_isometry(field, m, zero, one, zero),
                      h2_isometry(field, m, zero, zero, one)]
        similitude = h2_similitude(field, m, zero, one)
    return _case_report(form, qd, k_split, case, s, scale, normal, isometries, [similitude],
                        case_data={"m": m, "variant": variant})


def _classify_defect1(form, qd, k_split) -> ClassificationReport:
    field = form.field
    u1 = qd.kernel[0]
    # h(u1, e_i) is entry i of G u1.  u2 is the first e_i with h(u1, e_i) != 0,
    # scaled so that h(u1, u2) = 1; h(u2, -) is then a multiple of row i of G,
    # which cuts out the same complement
    g_u1 = form.gram * u1
    anchor = next(i for i, x in enumerate(g_u1) if not x.is_zero())
    u2_vec = Vector.unit(field, 4, anchor).scale(g_u1[anchor].inverse())
    s_val = form.q(u2_vec)
    require(not s_val.is_zero(), "internal: defect 1 forces h(u2,u2) != 0")
    u1s = u1.scale(s_val)

    complement = Matrix._from_payloads(
        field, [g_u1.payloads, form.gram.rows[anchor]]).kernel_basis()
    require(len(complement) == 2, "internal: the hyperbolic plane has no 2-dim complement")
    c = Matrix.from_columns(field, complement)
    sub_gram = form.congruent(c).gram * s_val.inverse()
    sub_basis, (c3, c4) = BilinearForm(sub_gram).orthogonal()
    u3, u4 = (c * v for v in sub_basis)

    s = Matrix.from_columns(field, [u1s, u2_vec, u3, u4])
    return _case_report(
        form, qd, k_split, "defect1", s, s_val, defect1_gram(field, c3, c4),
        isometries=[defect1_isometry(field, field.one())], case_data={"c3": c3, "c4": c4})


def _classify_defect0(form, qd, k_split) -> ClassificationReport:
    field = form.field
    d1 = qd.values[0]
    s = Matrix.from_columns(field, list(qd.basis))
    a = qd.values[1] * d1.inverse()
    c = qd.values[2] * d1.inverse()
    d4 = qd.values[3] * d1.inverse()
    b = d4 * c.inverse()
    normal = defect0_gram(field, a, c, b)

    case_data: dict = {"a": a, "c": c, "b": b}
    if a == b:
        big_a, big_c = defect0_split_family(field, a, c)
        similitudes = [(big_a, a), (big_c, c)]
        case_data["subcase"] = "split"
    elif (a + b).is_square():
        similitudes = [defect0_nonsplit_similitude(field, a, b, field.zero(), field.one())]
        case_data["subcase"] = "nonsplit"
        case_data["rho"] = (a + b).sqrt()
    else:
        similitudes = []
        case_data["subcase"] = "none"
    return _case_report(form, qd, k_split, "defect0", s, d1, normal, similitudes=similitudes,
                        case_data=case_data)
