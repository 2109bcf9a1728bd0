"""Brute-force reference computations over small finite fields.

These are the independent second route for everything that is checkable at
desk scale: exhaustive isometry-group enumeration (full scan of all matrices
when the general linear group is small enough, column-by-column backtracking
otherwise), the Klein-quadric scalar, the compound matrix recomputed by
multilinear expansion instead of minors, and the module form g evaluated from
both of its defining formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from ._smallfield import IntField, try_int_field
from .errors import Char2FormsError, require
from .exterior import alt_matrix, index_sets, pq
from .fields import FieldElement
from .forms import BilinearForm
from .kalgebra import KModule
from .linalg import Matrix, Vector, bilinear


class OracleError(Char2FormsError):
    pass


class TooLarge(OracleError):
    pass


class NoConsistentScalar(OracleError):
    pass


FULL_SCAN_GL_BOUND = 5 * 10 ** 7


def _gl_order(q: int, n: int) -> int:
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    return order


@dataclass(frozen=True)
class EnumerationResult:
    order: int
    elements: tuple[Matrix, ...]
    method: str


def enumerate_isometries(form: BilinearForm, keep_elements: bool = True) -> EnumerationResult:
    """All invertible A with A^T H A = H, over a small finite field."""
    intf = try_int_field(form.field)
    if intf is None:
        raise TooLarge("exhaustive enumeration needs gf2/gf2k with order <= 256")
    n = form.dim
    q = intf.order
    gram = intf.encode_matrix(form.gram)
    if _gl_order(q, n) <= FULL_SCAN_GL_BOUND and q ** (n * n) <= 2 ** 22:
        found = _full_scan(intf, gram, n)
        method = "full_gl_scan"
    else:
        found = _backtracking(intf, gram, n)
        method = "backtracking"
    elements = tuple(intf.decode_matrix(m) for m in found) if keep_elements else ()
    return EnumerationResult(order=len(found), elements=elements, method=method)


def _congruent(intf: IntField, a, gram, n) -> bool:
    # A^T H A == H entry by entry, with early exit
    cols = tuple(zip(*a))
    for i in range(n):
        hci = tuple(intf.bilinear(cols[i], gram, cols[j]) for j in range(i, n))
        for j in range(i, n):
            if hci[j - i] != gram[i][j]:
                return False
    return True


def _invertible(intf: IntField, a, n) -> bool:
    rows = [list(r) for r in a]
    mul, inv_table = intf.mul, intf.inv
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if rows[r][c]), None)
        if piv is None:
            return False
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = inv_table[rows[rank][c]]
        rows[rank] = [mul[x][inv] for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x ^ mul[f][y] for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank == n


def _full_scan(intf: IntField, gram, n):
    q = intf.order
    found = []
    vectors = list(product(range(q), repeat=n))
    for rows in product(vectors, repeat=n):
        if _congruent(intf, rows, gram, n) and _invertible(intf, rows, n):
            found.append(rows)
    return found


def _backtracking(intf: IntField, gram, n):
    """Choose image columns one by one under the Gram constraints.

    Non-degeneracy of the form makes every congruent matrix invertible, so no
    final rank check is needed.
    """
    mul = intf.mul
    # level j needs cand^T H cand = H[j][j]: group the candidates by that norm once
    by_norm: dict[int, list[tuple[int, ...]]] = {}
    for cand in product(range(intf.order), repeat=n):
        by_norm.setdefault(intf.bilinear(cand, gram, cand), []).append(cand)
    found = []
    chosen: list[tuple[int, ...]] = []
    rows_of = {}  # chosen column -> its H-pairing row, cached per level

    def pairing_row(col):
        # (col^T H)_k as a vector, so constraints become plain dot products
        out = []
        for k in range(n):
            acc = 0
            for i, ci in enumerate(col):
                if ci:
                    acc ^= mul[ci][gram[i][k]]
            out.append(acc)
        return tuple(out)

    def dot(row, vec):
        acc = 0
        for a, b in zip(row, vec):
            if a and b:
                acc ^= mul[a][b]
        return acc

    def extend(j):
        for cand in by_norm.get(gram[j][j], ()):
            ok = True
            for i in range(j):
                if dot(rows_of[i], cand) != gram[i][j]:
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(cand)
            if j + 1 == n:
                found.append(tuple(zip(*chosen)))  # columns back to rows
            else:
                rows_of[j] = pairing_row(cand)
                extend(j + 1)
                del rows_of[j]
            chosen.pop()

    extend(0)
    return found


def brute_pq_scalar(field):
    """The scalar s with Pq(X)^2 = s det(alt(X)) for every 2-vector, measured
    exhaustively over a small finite field."""
    if getattr(field, "order", None) is None or field.order > 16:
        raise TooLarge("the exhaustive Klein-quadric check needs a small finite field")
    elements = list(field.elements())
    s: Optional[object] = None
    for coords in product(elements, repeat=6):
        x = Vector(field, coords)
        lhs = pq(x) ** 2
        rhs = alt_matrix(x).det()
        if rhs.is_zero():
            if not lhs.is_zero():
                raise NoConsistentScalar("Pq^2 nonzero where det vanishes")
            continue
        ratio = lhs * rhs.inverse()
        if s is None:
            s = ratio
        elif s != ratio:
            raise NoConsistentScalar(f"ratio {ratio} conflicts with {s}")
    if s is None:
        raise NoConsistentScalar("no invertible alternating matrix found")
    return s


def direct_g(u: Vector, v: Vector, module: KModule) -> FieldElement:
    """g(u,v) evaluated from both defining formulas; CheckFailed if they differ.

    Left formula: Lh(u, v) + Lh(u, v*j) * j^(-1) with j^(-1) = j/delta.
    Right formula: Lh(u, v) + j * Pf(u, v).
    """
    algebra = module.algebra
    data = module.hodge
    lh_uv = bilinear(data.lh_gram, u, v)
    lh_ujv = bilinear(data.lh_gram, u, data.j_matrix * v)
    j_inv = algebra.j().inverse()
    left = algebra.coerce(lh_uv) + algebra.coerce(lh_ujv) * j_inv
    right = algebra.element(lh_uv, bilinear(data.pf_gram, u, v))
    require(left == right, "the two defining formulas for g disagree")
    return right


def compound_by_expansion(a: Matrix, ell: int) -> Matrix:
    """The compound matrix recomputed by multilinear expansion of wedges.

    Columns are the images of the basis wedges, expanded term by term; no
    minors are evaluated (all permutation rearrangements are sign-free in
    characteristic 2).
    """
    field = a.ring
    n = a.nrows
    sets = index_sets(n, ell)
    pos = {s: i for i, s in enumerate(sets)}
    columns = []
    for s in sets:
        terms = {(): field.one()}
        for idx in s:
            col = [a[i, idx - 1] for i in range(n)]
            new_terms: dict[tuple[int, ...], object] = {}
            for support, coeff in terms.items():
                for i in range(n):
                    if col[i].is_zero() or (i + 1) in support:
                        continue
                    key = tuple(sorted(support + (i + 1,)))
                    value = coeff * col[i]
                    if key in new_terms:
                        new_terms[key] = new_terms[key] + value
                    else:
                        new_terms[key] = value
            terms = new_terms
        column = [field.zero()] * len(sets)
        for key, coeff in terms.items():
            column[pos[key]] = coeff
        columns.append(Vector(field, column))
    return Matrix.from_columns(field, columns)


def closure_order_matches(result: EnumerationResult, closure: list[Matrix]) -> bool:
    """Set equality between an enumeration and a generated closure."""
    if result.order != len(closure):
        return False
    if not result.elements:
        return True
    return set(result.elements) == set(closure)
