"""Exterior powers, the Pfaffian pairing and the Hodge operator.

The l-th exterior power of F^n carries the lexicographically ordered basis of
wedges indexed by l-subsets of {1..n}.  In characteristic 2 all permutation
signs disappear, which keeps every coefficient formula here sign-free:

- the functor on matrices is the compound matrix of l x l minors,
- the Gram matrix of the induced form is the compound of the Gram matrix,
- a volume identification b turns the wedge pairing into the bilinear map Pf
  with entries b * [S and T disjoint],
- for n = 2l the composite J = Pf^(-1) o (induced form) squares to the scalar
  delta = det(H) / b^2; Pf is b times the complement permutation S -> S^c,
  so J is read off the induced form's Gram without inverting Pf.

For n = 4 the quadratic form whose zero set is the Klein quadric of
decomposable 2-vectors is also provided, together with the interpretation of
2-vectors as alternating 4x4 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import Char2FormsError
from .fields import FieldElement
from .forms import BilinearForm, DegenerateForm
from .linalg import Matrix, Vector, det_rows, sum_of_products


class ExteriorError(Char2FormsError):
    pass


class ZeroVolume(ExteriorError):
    pass


class WrongDimension(ExteriorError):
    pass


def index_sets(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    """All l-subsets of {1..n} in lexicographic order."""
    return tuple(combinations(range(1, n + 1), ell))


class ExteriorSpace:
    """The space Lambda^l F^n with its lex wedge basis."""

    __slots__ = ("n", "ell", "sets", "_position")

    def __init__(self, n: int, ell: int):
        if not 0 <= ell <= n:
            raise WrongDimension(f"need 0 <= ell <= n, got ell={ell}, n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "sets", index_sets(n, ell))
        object.__setattr__(self, "_position", {s: i for i, s in enumerate(self.sets)})

    def __setattr__(self, name, value):
        raise AttributeError("exterior spaces are immutable")

    @property
    def dim(self) -> int:
        return len(self.sets)

    def position(self, subset) -> int:
        return self._position[tuple(sorted(subset))]

    def complement(self, subset) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if i not in subset)

    def basis_vector(self, field, subset) -> Vector:
        return Vector.unit(field, self.dim, self.position(subset))


def wedge_coefficient(s, t) -> int:
    """Coefficient of v_S ^ v_T on the volume wedge: 1 if disjoint, else 0."""
    return 0 if set(s) & set(t) else 1


def compound_matrix(a: Matrix, ell: int) -> Matrix:
    """The matrix of Lambda^l A on the lex wedge basis: minors of A,
    computed once per instance of A and l and kept on A."""
    if not a.is_square():
        raise WrongDimension("compound matrices need a square input")

    def minors():
        sets = [[i - 1 for i in s] for s in index_sets(a.nrows, ell)]
        return a.minors(sets, sets)
    return a._kept(("compound", ell), minors)


def exterior_form_gram(form: BilinearForm, ell: int) -> Matrix:
    """Gram of the induced form: entry (S,T) = det h(v_si, v_tj)."""
    return compound_matrix(form.gram, ell)


def pfaffian_gram(field, n: int, ell: int, volume_scale) -> Matrix:
    """Gram of the pairing Lambda^(n-l) x Lambda^l -> F induced by the volume.

    Rows are indexed by (n-l)-subsets, columns by l-subsets; for n = 2l this
    is a symmetric bilinear form on Lambda^l with zero diagonal.
    """
    if not 1 <= ell <= n - 1:
        raise WrongDimension("the pairing needs 1 <= ell <= n-1")
    scale = field.coerce(volume_scale)
    if scale.is_zero():
        raise ZeroVolume("the volume identification must be nonzero")
    zero = field.zero()
    rows = index_sets(n, n - ell)
    cols = index_sets(n, ell)
    return Matrix(field, [[scale if wedge_coefficient(s, t) else zero
                           for t in cols] for s in rows])


@dataclass(frozen=True)
class HodgeData:
    """The pairing, induced form, Hodge operator J and scalar delta for n=2l."""

    form: BilinearForm
    space: ExteriorSpace
    volume_scale: FieldElement
    pf_gram: Matrix
    lh_gram: Matrix
    j_matrix: Matrix
    delta: FieldElement

    @property
    def field(self):
        return self.form.field


def hodge(form: BilinearForm, volume_scale=None) -> HodgeData:
    """Assemble the Hodge data of a non-degenerate form on an even-dimensional space.

    The only nonzero entry of Pf in column S is Pf[S^c, S] = b, the volume
    scale, so row S of J = Pf^(-1) Lh is row S^c of Lh times 1/b."""
    field = form.field
    n = form.dim
    if n % 2:
        raise WrongDimension("the Hodge operator lives on middle degree, n must be even")
    ell = n // 2
    scale = field.one() if volume_scale is None else field.coerce(volume_scale)
    if scale.is_zero():
        raise ZeroVolume("the volume identification must be nonzero")
    det = form.det()
    if det.is_zero():
        raise DegenerateForm("the Hodge operator needs a non-degenerate form")
    pf = pfaffian_gram(field, n, ell, scale)
    lh = exterior_form_gram(form, ell)
    space = ExteriorSpace(n, ell)
    j = Matrix._from_payloads(field, [lh.rows[space.position(space.complement(s))]
                                      for s in space.sets]) * scale.inverse()
    delta = det * (scale * scale).inverse()
    return HodgeData(form=form, space=space, volume_scale=scale,
                     pf_gram=pf, lh_gram=lh, j_matrix=j, delta=delta)


def hodge_identities(data: HodgeData) -> list[tuple[str, bool, str]]:
    """Check J^2 = delta id and the four pairing identities on all basis pairs.

    Each pairing identity amounts to an entrywise matrix equation over the
    wedge basis (entry (i,j) is the identity evaluated at the basis pair
    (i,j)), so the pairs are checked by comparing both sides as matrices;
    the entries are searched only when the matrices differ.  Returns (name,
    passed, detail) triples; detail names the first failing pair when a
    check fails.
    """
    field = data.field
    dim = data.space.dim
    results = []
    expected = Matrix.identity(field, dim) * data.delta
    ok = data.j_matrix * data.j_matrix == expected
    results.append(("J^2 = delta*id", ok, "" if ok else "matrix mismatch"))

    jt = data.j_matrix.transpose()
    jt_p = jt * data.pf_gram
    jt_g = jt * data.lh_gram
    checks = [
        ("Pf(Jx,y) = Lh(x,y)", jt_p, data.lh_gram),
        ("Pf(Jx,Jy) = delta*Pf(y,x)", jt_p * data.j_matrix,
         data.pf_gram.transpose() * data.delta),
        ("Lh(Jx,y) = delta*Pf(x,y)", jt_g, data.pf_gram * data.delta),
        ("Lh(Jx,Jy) = delta*Lh(x,y)", jt_g * data.j_matrix, data.lh_gram * data.delta),
    ]
    for name, left, right in checks:
        bad = None if left == right else next(
            (i, j) for i in range(dim) for j in range(dim) if left[i, j] != right[i, j])
        results.append((name, bad is None,
                        "" if bad is None else
                        f"fails at basis pair {data.space.sets[bad[0]]},{data.space.sets[bad[1]]}"))
    return results


# -- n = 4 specifics ---------------------------------------------------------

# a 2-vector of Lambda^2 F^4 is given by its coordinates on the lex wedge
# basis, in the order p12 p13 p14 p23 p24 p34


def pq(x: Vector) -> FieldElement:
    """The quadratic form of the Klein quadric: p12 p34 + p13 p24 + p14 p23."""
    if len(x) != 6:
        raise WrongDimension("the Klein quadric quadratic form lives on Lambda^2 F^4")
    return FieldElement(x.ring, _pq_payload(x.ring, x.payloads))


def _pq_payload(field, p):
    """Pq on the six payloads of a 2-vector, as a payload, with no product
    by a zero or a one."""
    p12, p13, p14, p23, p24, p34 = p
    return sum_of_products(field, ((p12, p34), (p13, p24), (p14, p23)))


def alt_matrix(x: Vector) -> Matrix:
    """A 2-vector as an alternating 4x4 matrix (standard placement)."""
    if len(x) != 6:
        raise WrongDimension("need a vector of Lambda^2 F^4")
    return Matrix._from_payloads(x.ring, _alt_rows(x.ring._from_int(0), x.payloads))


def _alt_rows(zero, p):
    """The rows of the alternating 4x4 matrix of the 2-vector with
    coordinates p (elements or payloads), zero on the diagonal."""
    p12, p13, p14, p23, p24, p34 = p
    return [[zero, p12, p13, p14],
            [p12, zero, p23, p24],
            [p13, p23, zero, p34],
            [p14, p24, p34, zero]]


def klein_scalar(field, vectors) -> tuple[Optional[FieldElement], bool]:
    """The scalar s with Pq(X)^2 = s det(alt X), measured on 2-vectors X.

    `vectors` gives each X as the six payloads of its lex coordinates.
    Returns s, the ratio at the first X with det(alt X) != 0 (None if there
    is none), and whether every X agrees with it: Pq(X)^2 = 0 where the
    determinant vanishes, the same ratio everywhere else.  Everything runs
    on payloads, with det(alt X) by `det_rows`; only s is wrapped.
    """
    mul, inv, is_zero = field._mul, field._inv, field._is_zero
    zero = field._from_int(0)
    s = None
    agree = True
    for p in vectors:
        q = _pq_payload(field, p)
        lhs = mul(q, q)
        rhs = det_rows(field, _alt_rows(zero, p))
        if is_zero(rhs):
            agree = agree and is_zero(lhs)
            continue
        ratio = mul(lhs, inv(rhs))
        if s is None:
            s = ratio
        agree = agree and ratio == s
    return (None if s is None else FieldElement(field, s)), agree


def wedge(field, vectors) -> Vector:
    """The wedge of l vectors of F^n in lex coordinates (via minors)."""
    vectors = list(vectors)
    n = len(vectors[0])
    ell = len(vectors)
    sets = [[i - 1 for i in s] for s in index_sets(n, ell)]
    return Matrix.from_columns(field, vectors).minors(sets, [range(ell)]).column(0)
