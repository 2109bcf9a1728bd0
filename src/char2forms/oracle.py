"""Brute-force reference computations over small finite fields.

These are the independent second route for everything that is checkable at
desk scale: exhaustive isometry-group enumeration, the Klein-quadric scalar,
the compound matrix recomputed by multilinear expansion instead of minors,
and the module form g evaluated from both of its defining formulas.

The enumeration uses only the Gram matrix H.  It finds the group as its
chain of column stabilizers G = G_0 > G_1 > ... > G_n = {I}, where G_j
holds the invertible isometries fixing e_0..e_(j-1).  For each column j,
a filtered column search finds one completion per point of the orbit of e_j
under G_j: image columns are chosen among the candidates of the right norm,
and each chosen column filters the candidates of the later columns, so a
column prefix that breaks A^T H A = H rejects all of its completions at
once.  Invertible isometries form a group for any H, so G_j is the disjoint
union of the cosets t G_(j+1) over that transversal, and |G| is the product
of the transversal sizes.  Explicit code checks, before anything is listed,
that each element of T_j fixes e_0..e_(j-1) and that their columns j are
distinct, which makes the products t x distinct; they are listed, and
checked distinct once more, only when `rows` or `elements` is read.  When
q^(n^2) <= 2^22 (so |GL_n(q)| < q^(n^2) is small too) the result is
labelled `full_gl_scan`, and every completion is rank-checked, so nothing is
assumed about H; otherwise it is labelled `backtracking`, and completions
are rank-checked when H is degenerate (a non-degenerate H makes every
congruent matrix invertible).  The search runs on the packed vectors and
rows of `_smallfield.IntField`: each chosen column's pairing is a table
lookup per candidate, and what it finds stays packed rows, in the one group
type `_smallfield.ChainGroup` that `generate_closure` returns as well.  A
rank check is `IntField.inverse`, the one packed elimination, which the
chain runs too, and the checks read columns through `IntField.transpose`.

`closure_order_matches` proves a `generate_closure` chain equal to the
enumerated group from equal orders and a packed-row check that every
generator is an isometry of H, so neither group is listed; any other
sequence of matrices is compared as a set.  On the identity form
(in-process, Python 3.11, 2 shared cores) the enumeration takes 2.9-6.9 ms
over GF(4) and 0.2-0.37 s over GF(8), and the comparison about 10 us;
listing the 258,048 GF(8) products takes 0.55-0.72 s more when `rows` is
read.

`brute_pq_scalar` evaluates Pq(X)^2 and det(alt X) at all q^6 2-vectors at
once, bit-sliced: each bit of a value over all points is one int, and a
GF(2^k) product is k^2 ANDs and XORs of them.  It takes about 0.25 ms over
GF(4) and 2.7 ms over GF(8) (Python 3.11, 2 shared cores).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Sequence

from ._smallfield import ChainGroup, IntField, chain_products, try_int_field
from .errors import Char2FormsError, require
from .exterior import _alt_rows, _pq_payload, index_sets
from .fields import Field, FieldElement
from .forms import BilinearForm
from .kalgebra import KModule
from .linalg import Matrix, Vector, bilinear


class OracleError(Char2FormsError):
    pass


class TooLarge(OracleError):
    pass


class NoConsistentScalar(OracleError):
    pass


# the exhaustive Klein-quadric check evaluates all q^6 vectors bit-sliced:
# 4^6 take about 0.25 ms, 8^6 about 2.7 ms; 16^6 would take about 0.7 s and
# 130 MB, since each of its planes is a 2 MB int (Python 3.11, 2 shared cores)
KLEIN_EXHAUSTIVE_ORDER = 8


@dataclass(frozen=True)
class EnumerationResult(ChainGroup):
    """The invertible isometries of the packed Gram `gram`, a `ChainGroup`
    whose `order` is its `len`.  `rows` lists the products t x on first
    read, and raises OracleError unless they are distinct; `elements` is
    the group itself, which decodes each element where it is read.
    """
    field: Field
    gram: tuple[int, ...]
    transversals: tuple[tuple[tuple[int, ...], ...], ...]
    method: str

    @property
    def order(self) -> int:
        return len(self)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        rows = tuple(chain_products(try_int_field(self.field), self.transversals))
        if len(set(rows)) != len(rows):
            raise OracleError("the transversal products are not distinct")
        return rows

    @property
    def elements(self) -> "EnumerationResult":
        return self


def enumerate_isometries(form: BilinearForm) -> EnumerationResult:
    """All invertible A with A^T H A = H, over a small finite field."""
    intf = try_int_field(form.field)
    if intf is None:
        raise TooLarge("exhaustive enumeration needs gf2/gf2k with order <= 256")
    n = form.dim
    q = intf.order
    gram = intf.encode_matrix(form.gram)
    full_scan = q ** (n * n) <= 2 ** 22
    # a non-degenerate H makes every congruent A invertible; the full scan
    # checks every completion anyway, so that it assumes nothing about H
    check_rank = full_scan or intf.inverse(gram) is None
    transversals = tuple(map(tuple, _transversals(intf, gram, n, check_rank)))
    _check_chain(intf, transversals)
    return EnumerationResult(field=form.field, gram=gram, transversals=transversals,
                             method="full_gl_scan" if full_scan else "backtracking")


def _check_chain(intf: IntField, transversals) -> None:
    """Raise OracleError unless each element of T_j fixes e_0..e_(j-1) and
    the columns j within T_j are distinct.

    With invertible elements (rank-checked wherever `_transversals` checks
    rank, and forced by a non-degenerate H elsewhere) this makes the products
    t x distinct without listing them: column j of t x is t e_j, the column j
    of t, since x fixes e_j, and t x = t x' gives x = x'.  The columns are
    the rows of the transpose.
    """
    identity = intf.identity(len(transversals))
    for j, found in enumerate(transversals):
        columns = set()
        for rows in found:
            cols = intf.transpose(rows)
            if cols[:j] != identity[:j]:
                raise OracleError(f"a transversal element of column {j} moves an earlier "
                                  f"basis vector")
            columns.add(cols[j])
        if len(columns) != len(found):
            raise OracleError(f"two transversal elements of column {j} share that column")


def _transversals(intf: IntField, gram, n, check_rank: bool):
    """For each column j, one invertible isometry per point of the orbit of
    e_j under G_j (the isometries fixing e_0..e_(j-1)), as packed rows.

    Candidates are the packed vectors 0 .. q^n - 1.  Column j starts from
    the candidates with cand^T H cand = H[j][j], grouped by that norm once.
    A chosen column c filters the candidate lists of all later columns by
    its pairing v -> c^T H v, tabulated once per candidate, so filtering a
    list costs one table lookup per candidate and chunk.  The filters are
    exact: a candidate leaves a list only when every completion through it
    breaks an entry of A^T H A = H.  With columns 0..j-1 fixed to
    e_0..e_(j-1), each candidate c of column j gets the first completion
    the filtered search finds (with `check_rank`, the first with
    independent rows), or none when c is not in the orbit.
    """
    by_norm: dict[int, list[int]] = {}
    for cand in range(intf.order ** n):
        by_norm.setdefault(intf.bilinear(cand, gram, cand), []).append(cand)
    entries = [intf.unpack(row, n) for row in gram]
    gram_tables = intf.row_tables(gram)  # c -> c^T H
    pairings: dict[int, list[list[int]]] = {}
    spread = intf.column_tables(n)
    apply, select, split_rows = intf.apply, intf.select, intf.split_rows

    def narrow(j, cand, levels):
        # the candidate lists of the columns after j (levels) that pair
        # correctly with cand in column j, or None when one of them empties
        pairing = pairings.get(cand)
        if pairing is None:
            pairing = intf.row_tables(intf.unpack(apply(gram_tables, cand), n))
            pairings[cand] = pairing
        later = []
        for i, level in enumerate(levels, start=j + 1):
            kept = select(pairing, level, entries[j][i])
            if not kept:
                return None
            later.append(kept)
        return later

    def completions(j, matrix, levels):
        # the completions of the columns before j, spread into `matrix`,
        # with levels[i] the candidates left for column j + i
        if j == n:
            rows = split_rows(matrix, n)
            if not check_rank or intf.inverse(rows) is not None:
                yield rows
            return
        for cand in levels[0]:
            later = narrow(j, cand, levels[1:])
            if later is not None:
                yield from completions(j + 1, matrix ^ apply(spread[j], cand), later)

    transversals = []
    prefix, levels = 0, [by_norm.get(entries[j][j], []) for j in range(n)]
    for j, unit in enumerate(intf.identity(n)):
        firsts = (next(completions(j, prefix, [[cand]] + levels[1:]), None)
                  for cand in levels[0])
        transversals.append([rows for rows in firsts if rows is not None])
        # e_j pairs correctly with every later e_i, so no list empties
        prefix ^= apply(spread[j], unit)
        levels = narrow(j, unit, levels[1:])
    return transversals


def brute_pq_scalar(field):
    """The scalar s with Pq(X)^2 = s det(alt(X)) for every 2-vector, measured
    exhaustively over GF(2) or GF(2^k) of order at most KLEIN_EXHAUSTIVE_ORDER.

    s is the ratio at the first X, in `itertools.product` order of the
    payloads, where det(alt X) != 0.  NoConsistentScalar is raised unless
    Pq(X)^2 = s det(alt X) at every X (the same ratio wherever the
    determinant is nonzero, Pq(X)^2 = 0 wherever it vanishes), or when the
    determinant vanishes everywhere.
    """
    intf = try_int_field(field)
    if intf is None or intf.order > KLEIN_EXHAUSTIVE_ORDER:
        raise TooLarge(f"the exhaustive Klein-quadric check needs a finite field of "
                       f"order <= {KLEIN_EXHAUSTIVE_ORDER}")
    lhs, det = _klein_planes(intf)
    nonzero = 0
    for plane in det:
        nonzero |= plane
    s = 0
    if nonzero:
        first = (nonzero & -nonzero).bit_length() - 1
        s = intf.mul[_value_at(lhs, first)][intf.inv[_value_at(det, first)]]
    # multiplying by s is GF(2)-linear: plane b of det goes to the planes of s x^b
    scaled = _Sliced(intf).linear(det, [intf.mul[s][1 << b] for b in range(intf.k)])
    if scaled != lhs:
        raise NoConsistentScalar("Pq(X)^2 is not one multiple of det(alt X)")
    if not nonzero:
        raise NoConsistentScalar("no invertible alternating matrix found")
    return FieldElement(field, s)


class _Sliced:
    """GF(2^k) arithmetic on a value at every point at once (bit-slicing).

    A value is its k planes: ints whose bit i is bit b of the payload at
    point i, for b < k; the points are the q^6 2-vectors.  `_add`, `_mul`,
    `_is_zero` and `_from_int` follow the payload protocol of `Field`, so
    `exterior._pq_payload` runs on planes unchanged.
    """

    def __init__(self, intf: IntField):
        k = self.k = intf.k
        self.ones = (1 << intf.order ** 6) - 1  # bit i set at every point i
        # x^t reduced by the modulus, for every degree t a product reaches
        self.powers = [intf.mul[1 << min(t, k - 1)][1 << max(t - k + 1, 0)]
                       for t in range(2 * k - 1)]

    def _add(self, a, b):
        return [x ^ y for x, y in zip(a, b)]

    def _is_zero(self, a):
        return not any(a)

    def _from_int(self, n):
        return [self.ones if n & 1 else 0] + [0] * (self.k - 1)

    def _mul(self, a, b):
        wide = [0] * (2 * self.k - 1)
        for u, x in enumerate(a):
            for v, y in enumerate(b):
                wide[u + v] ^= x & y
        return self.linear(wide, self.powers)

    def linear(self, planes, images):
        """The planes of the sum of images[t] * planes[t] (images are payloads)."""
        out = [0] * self.k
        for plane, image in zip(planes, images):
            for b in range(self.k):
                if image >> b & 1:
                    out[b] ^= plane
        return out


def _klein_planes(intf: IntField):
    """The planes of Pq(X)^2 and of det(alt X) over all q^6 2-vectors X.

    Point i is the i-th 2-vector in `itertools.product` order of the
    payloads 0 .. q-1: its coordinate m is base-q digit 5 - m of i, so bit b
    of that coordinate is bit k(5 - m) + b of i.  The determinant is the
    Leibniz sum over the permutations of the alternating rows that miss the
    zero diagonal (signs vanish in characteristic 2).  It is not computed
    as Pq^2, which would make the comparison a tautology.
    """
    sliced = _Sliced(intf)
    k, size = intf.k, intf.order ** 6
    index = []  # plane j holds the points i with bit j of i set
    for j in range(6 * k):
        width = 1 << j
        plane, period = ((1 << width) - 1) << width, 2 * width
        while period < size:
            plane |= plane << period
            period *= 2
        index.append(plane)
    coords = [index[k * (5 - m):k * (6 - m)] for m in range(6)]
    pq = _pq_payload(sliced, coords)
    rows = _alt_rows(None, coords)
    det = [0] * k
    for perm in permutations(range(4)):
        if any(i == j for i, j in enumerate(perm)):
            continue
        term = rows[0][perm[0]]
        for i in range(1, 4):
            term = sliced._mul(term, rows[i][perm[i]])
        det = sliced._add(det, term)
    return sliced._mul(pq, pq), det


def _value_at(planes, point: int) -> int:
    """The payload at one point of a value given by its planes."""
    return sum((plane >> point & 1) << b for b, plane in enumerate(planes))


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


def closure_order_matches(result: EnumerationResult, closure: Sequence[Matrix]) -> bool:
    """Set equality between an enumeration and a generated closure.

    The closure must lie over the enumerated form's field and have the
    enumerated order.  A chain that `generate_closure` built then equals the
    enumerated group exactly when its (invertible) generators are isometries
    of the form: <gens> lies in O(V,h), and a subgroup of the same finite
    order is the whole group.  That check runs on packed rows, once per
    chain and Gram, and lists no element.  Any other sequence (a list, or an
    `EnumerationResult`, which has no generators) is compared with the
    enumeration as a set of packed rows.
    """
    field = result.field
    if len(closure) != result.order:
        return False
    if isinstance(closure, ChainGroup) and closure.generators:
        return closure.field == field and closure.preserves(result.gram)
    if any(m.ring != field for m in closure):
        return False
    encode = try_int_field(field).encode_matrix
    return set(result.rows) == {encode(m) for m in closure}
