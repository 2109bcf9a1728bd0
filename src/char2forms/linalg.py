"""Dense exact linear algebra over a field (or local ring) of characteristic 2.

Matrices and vectors are immutable and generic over a ring object: it
coerces what a public constructor is given (``coerce()``) and computes on
element payloads (``_add``, ``_mul``, ``_inv``, ``_is_zero``, ``_is_unit``,
``_from_int``, ``_format``).  A matrix stores the tuple `rows` of its
payload rows and a vector the tuple `payloads`: every operation reads
payloads and builds its result from payload rows (`_from_payloads`, with no
coercion), so products, transposes, inverses, minors and comparisons wrap
no element.  An entry becomes a `FieldElement` only where it is read
(``m[i, j]``, `entries`, iteration); `entries` is built on first read and
kept, and ``str`` formats the payloads.  A matrix keeps, on the instance
and nowhere else, the derived quantities it is asked for through `_kept`:
its compound matrices (`exterior.compound_matrix`) and its latest
`congruence` with the H object it was taken by, so a check and the
computation after it share one A^T H A.  No cache is keyed by value: an
equal matrix built apart computes its own.  ``==`` and ``hash`` compare the
ring once and then the payload tuples, which is the relation the elements
define.  The operand rings of a call must be equal, else
`DescriptorMismatch` (one check per call).  Every product is
`product_rows`: each row of A B combines the rows of B, with the
coefficients in that row of A.  It skips the zero entries of both sides,
and a factor one on either side gives the other factor without a product.
M v is the one row v^T M^T, x^T G y is the row x^T G against y, and M s and
v s multiply by the scalar s only the entries other than zero and one.
A^T H A of a symmetric H is `congruence`: H A is one product, and of
A^T (H A) only the entries on and above the diagonal are computed, each
mirrored below it; an H that is not symmetric raises `NotSymmetric`.
Every elimination is one forward pass, `_forward`, with the first unit of
each column as its pivot and no product by a zero or a one (the matrices
are small: J is 70x70 for n = 8).  `det_rows`, behind `det` and each minor
of `minors` that no zero row decides, is cofactors up to 4x4, which drop a
term with a zero factor, multiply by no one and divide by nothing, and the
product of the pivots above; `rank` counts the pivots; `echelon`, behind
`inverse`, `kernel_basis` and `solve`, adds back substitution.  `solve`
takes a vector or a matrix of right-hand sides, and solves all its columns
by one `echelon` of [M | B].

Per call (Python 3.11.7, 2 shared x86-64 cores; random matrices and
vectors with a quarter zero entries and `random_element` entries, seed 5;
best of 10 repeats of 200 calls, 20 over F2(t)(u), median of 6 runs):

==================  =======  =======  ========
                    GF(4)    F2(t)    F2(t)(u)
==================  =======  =======  ========
4x4 product         13 us    26 us    0.42 ms
6x6 product         28 us    51 us    3.7 ms
6x6 pairing         17 us    24 us    0.11 ms
6x6 matrix-vector   12 us    17 us    0.16 ms
6x6 transpose       2.1 us   1.9 us   1.9 us
==================  =======  =======  ========

Over F2(t)(u) the time goes to the gcds of the fractions, and the echelon
is no exception: the inverse of a dense 4x4 matrix of such entries takes
30 ms to 1.2 s.

The square-span functions at the end answer F^2-linear questions about
elements of F as F-linear ones about their `square_coordinates`.  This
module sits on `fields`, and imports `FieldElement` once, at the top.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import Char2FormsError, DescriptorMismatch, FieldError
from .fields import Field, FieldElement


class LinalgError(Char2FormsError):
    pass


class DimensionMismatch(LinalgError):
    pass


class SingularMatrix(LinalgError):
    pass


class NotSymmetric(LinalgError):
    """A congruence A^T H A was asked of an H that is not symmetric."""


class NonUnitColumn(LinalgError):
    """A column holds nonzero non-units but no unit to pivot on (over a local
    ring such as k(1)), so the echelon does not decide the linear system."""


_setattr = object.__setattr__  # the one way past the immutability guards


class Vector:
    """A column of ring elements, stored as the tuple `payloads` of their
    payloads; `entries` wraps them on first read and keeps them."""

    __slots__ = ("ring", "payloads", "_entries")

    def __init__(self, ring, entries: Iterable):
        self._fill(ring, tuple([_payload(ring, e) for e in entries]))

    @classmethod
    def _from_payloads(cls, ring, payloads) -> "Vector":
        """The vector with these payloads of `ring`, taken as they are."""
        v = object.__new__(cls)
        v._fill(ring, tuple(payloads))
        return v

    def _fill(self, ring, payloads: tuple) -> None:
        _setattr(self, "ring", ring)
        _setattr(self, "payloads", payloads)
        _setattr(self, "_entries", None)

    def __setattr__(self, name, value):
        raise AttributeError("vectors are immutable")

    @classmethod
    def unit(cls, ring, n: int, i: int) -> "Vector":
        zero, one = ring._from_int(0), ring._from_int(1)
        return cls._from_payloads(ring, [one if j == i else zero for j in range(n)])

    @classmethod
    def zero(cls, ring, n: int) -> "Vector":
        return cls._from_payloads(ring, [ring._from_int(0)] * n)

    @property
    def entries(self) -> tuple:
        entries = self._entries
        if entries is None:
            ring = self.ring
            entries = tuple([FieldElement(ring, p) for p in self.payloads])
            _setattr(self, "_entries", entries)
        return entries

    def __len__(self):
        return len(self.payloads)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        if len(other) != len(self):
            raise DimensionMismatch("vector lengths differ")
        ring = self.ring
        _same_ring(ring, other.ring)
        add = ring._add
        return Vector._from_payloads(ring, [add(a, b)
                                            for a, b in zip(self.payloads, other.payloads)])

    __sub__ = __add__

    def scale(self, s) -> "Vector":
        ring = self.ring
        p, one, mul, is_zero = ring.coerce(s).payload, ring._from_int(1), ring._mul, ring._is_zero
        return self if p == one else Vector._from_payloads(ring, [
            a if is_zero(a) else p if a == one else mul(a, p) for a in self.payloads])

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        is_zero = self.ring._is_zero
        return all(is_zero(p) for p in self.payloads)

    def __eq__(self, other):
        return (isinstance(other, Vector) and self.ring == other.ring
                and self.payloads == other.payloads)

    def __hash__(self):
        return hash(self.payloads)

    def __str__(self):
        return " ".join(map(self.ring._format, self.payloads))

    def __repr__(self):
        return f"Vector({self})"


class Matrix:
    """A matrix over a ring, stored as the tuple `rows` of its payload rows;
    `entries`, the rows of elements, is wrapped on first read and kept, and
    so is each quantity derived through `_kept` (its compounds, its latest
    congruence)."""

    __slots__ = ("ring", "nrows", "ncols", "rows", "_entries", "_derived")

    def __init__(self, ring, rows: Iterable[Iterable]):
        rows = tuple([tuple([_payload(ring, e) for e in row]) for row in rows])
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged rows")
        self._fill(ring, rows)

    @classmethod
    def _from_payloads(cls, ring, rows) -> "Matrix":
        """The matrix with these payload rows of `ring`, taken as they are."""
        m = object.__new__(cls)
        m._fill(ring, tuple([tuple(row) for row in rows]))
        return m

    def _fill(self, ring, rows: tuple) -> None:
        _setattr(self, "ring", ring)
        _setattr(self, "nrows", len(rows))
        _setattr(self, "ncols", len(rows[0]))
        _setattr(self, "rows", rows)
        _setattr(self, "_entries", None)
        _setattr(self, "_derived", None)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def identity(cls, ring, n: int) -> "Matrix":
        zero, one = ring._from_int(0), ring._from_int(1)
        return cls._from_payloads(ring, [[one if i == j else zero for j in range(n)]
                                         for i in range(n)])

    @classmethod
    def zeros(cls, ring, nrows: int, ncols: int) -> "Matrix":
        return cls._from_payloads(ring, [[ring._from_int(0)] * ncols] * nrows)

    @classmethod
    def diagonal(cls, ring, diag: Sequence) -> "Matrix":
        diag = [_payload(ring, d) for d in diag]
        zero, n = ring._from_int(0), len(diag)
        return cls._from_payloads(ring, [[diag[i] if i == j else zero for j in range(n)]
                                         for i in range(n)])

    @classmethod
    def from_columns(cls, ring, columns: Sequence[Vector]) -> "Matrix":
        for col in columns:
            _same_ring(ring, col.ring)
        return cls._from_payloads(ring, zip(*[col.payloads for col in columns]))

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        ring = grid[0][0].ring
        rows = []
        for band in grid:
            height = band[0].nrows
            if any(b.nrows != height for b in band):
                raise DimensionMismatch("block heights differ within a band")
            for b in band:
                _same_ring(ring, b.ring)
            rows.extend(sum(parts, ()) for parts in zip(*[b.rows for b in band]))
        return cls._from_payloads(ring, rows)

    # -- access --------------------------------------------------------------
    @property
    def entries(self) -> tuple:
        entries = self._entries
        if entries is None:
            ring = self.ring
            entries = tuple([tuple([FieldElement(ring, p) for p in row]) for row in self.rows])
            _setattr(self, "_entries", entries)
        return entries

    def __getitem__(self, key):
        i, j = key
        return FieldElement(self.ring, self.rows[i][j])

    def _kept(self, key, make, source=None):
        """The value `make()` derived from this matrix and the object `source`
        under `key`, computed on the first call and kept on this instance
        only: the memo goes when the matrix does, an equal matrix computes
        its own, and a call with another `source` object computes and
        replaces the kept value."""
        derived = self._derived
        if derived is None:
            derived = {}
            _setattr(self, "_derived", derived)
        kept = derived.get(key)
        if kept is None or kept[0] is not source:
            kept = derived[key] = (source, make())
        return kept[1]

    def column(self, j: int) -> Vector:
        return Vector._from_payloads(self.ring, [row[j] for row in self.rows])

    def columns(self) -> list[Vector]:
        ring = self.ring
        return [Vector._from_payloads(ring, col) for col in zip(*self.rows)]

    # -- algebra --------------------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix shapes differ")
        ring = self.ring
        _same_ring(ring, other.ring)
        add = ring._add
        return Matrix._from_payloads(ring, [[add(a, b) for a, b in zip(r1, r2)]
                                            for r1, r2 in zip(self.rows, other.rows)])

    __sub__ = __add__

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionMismatch(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
            _same_ring(ring, other.ring)
            return Matrix._from_payloads(ring, product_rows(ring, self.rows, other.rows))
        if isinstance(other, Vector):
            if self.ncols != len(other):
                raise DimensionMismatch("matrix/vector shapes differ")
            _same_ring(ring, other.ring)
            # one row: v combines the columns of the matrix
            row = product_rows(ring, [other.payloads], list(zip(*self.rows)))[0]
            return Vector._from_payloads(ring, row)
        s, one, mul, is_zero = ring.coerce(other).payload, ring._from_int(1), ring._mul, ring._is_zero
        return self if s == one else Matrix._from_payloads(ring, [
            [p if is_zero(p) else s if p == one else mul(p, s) for p in row]
            for row in self.rows])

    __rmul__ = __mul__

    def transpose(self) -> "Matrix":
        return Matrix._from_payloads(self.ring, zip(*self.rows))

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        rows = self.rows
        return self.is_square() and all(
            rows[i][j] == rows[j][i] for i in range(self.nrows) for j in range(i))

    def is_zero(self) -> bool:
        is_zero = self.ring._is_zero
        return all(is_zero(p) for row in self.rows for p in row)

    def is_diagonal(self) -> bool:
        is_zero = self.ring._is_zero
        return self.is_square() and all(
            is_zero(p) for i, row in enumerate(self.rows) for j, p in enumerate(row) if i != j)

    def det(self):
        """The determinant, computed on payloads with the ring's primitives.

        Up to 4x4 by cofactors; above, the product of the pivots of the one
        forward elimination, times, where a column of non-units gets no pivot
        (k(1)), the cofactor expansion of the block left without pivots.
        """
        if not self.is_square():
            raise LinalgError("determinant needs a square matrix")
        return FieldElement(self.ring, det_rows(self.ring, _payload_rows(self)))

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise SingularMatrix("inverse needs a square matrix")
        ring, n = self.ring, self.nrows
        zero, one = ring._from_int(0), ring._from_int(1)
        rows = [list(row) + [one if j == i else zero for j in range(n)]
                for i, row in enumerate(self.rows)]
        if len(echelon(ring, rows, n)) < n:
            raise SingularMatrix("matrix is not invertible")
        return Matrix._from_payloads(ring, [row[n:] for row in rows])

    def rank(self) -> int:
        return len(_forward(self.ring, _payload_rows(self), self.ncols))

    def kernel_basis(self) -> list[Vector]:
        """Basis of the right null space (free variables set in index order).

        Raises `NonUnitColumn` where the echelon leaves a nonzero non-unit in
        a column without a pivot.
        """
        ring = self.ring
        return [Vector._from_payloads(ring, vec) for vec in kernel_rows(ring, _payload_rows(self))]

    def solve(self, rhs: "Vector | Matrix") -> "Optional[Vector | Matrix]":
        """One solution of self * x = rhs, or None (free variables zero).

        `rhs` is a Vector, or a Matrix whose columns are right-hand sides:
        then all of them are solved by one `echelon` of [self | rhs], and the
        result is the Matrix of their solutions, or None if any column has
        none.  Raises `NonUnitColumn` where the echelon leaves a nonzero
        non-unit in a column without a pivot.
        """
        many = isinstance(rhs, Matrix)
        if (rhs.nrows if many else len(rhs)) != self.nrows:
            raise DimensionMismatch("right-hand side has wrong length")
        ring, n = self.ring, self.ncols
        _same_ring(ring, rhs.ring)
        rows = [list(row) + list(b) for row, b in
                zip(self.rows, rhs.rows if many else zip(rhs.payloads))]
        pivots = echelon(ring, rows, n)
        _require_decided(ring, rows, len(pivots), n)
        is_zero = ring._is_zero
        if any(not is_zero(b) for row in rows[len(pivots):] for b in row[n:]):
            return None
        x = [[ring._from_int(0)] * (len(rows[0]) - n)] * n
        for r, c in enumerate(pivots):
            x[c] = rows[r][n:]
        return (Matrix._from_payloads(ring, x) if many
                else Vector._from_payloads(ring, [row[0] for row in x]))

    def minors(self, row_sets: Sequence[Sequence[int]],
               col_sets: Sequence[Sequence[int]]) -> "Matrix":
        """The matrix whose entry (i, j) is the minor on the rows `row_sets[i]`
        and the columns `col_sets[j]` (0-based index sets, all of one size),
        each by `det_rows` on payload rows.

        A minor with a row that is zero on its columns is zero without a
        `det_rows` call, so a diagonal matrix costs only its diagonal minors."""
        ring, rows = self.ring, self.rows
        zero, is_zero = ring._from_int(0), ring._is_zero
        support = [frozenset(j for j, x in enumerate(row) if not is_zero(x)) for row in rows]

        def minor(row_set, cols):
            if any(support[i].isdisjoint(cols) for i in row_set):
                return zero
            return det_rows(ring, [[rows[i][j] for j in cols] for i in row_set])

        return Matrix._from_payloads(ring, [[minor(row_set, cols) for cols in col_sets]
                                            for row_set in row_sets])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        fmt = self.ring._format
        return "\n".join(" ".join(map(fmt, row)) for row in self.rows)

    def __repr__(self):
        return f"Matrix(\n{self}\n)"


def bilinear(gram: Matrix, x: Vector, y: Vector):
    """The pairing x^T G y, on payloads: the row x^T G first, then against y."""
    if len(x) != gram.nrows or len(y) != gram.ncols:
        raise DimensionMismatch(
            f"cannot pair vectors of lengths {len(x)} and {len(y)} "
            f"through a {gram.nrows}x{gram.ncols} matrix")
    ring = gram.ring
    _same_ring(ring, x.ring)
    _same_ring(ring, y.ring)
    xg = product_rows(ring, [x.payloads], gram.rows)
    return FieldElement(ring, product_rows(ring, xg, [[p] for p in y.payloads])[0][0])


def congruence(h: Matrix, a: Matrix) -> Matrix:
    """A^T H A for a symmetric H, by `congruence_rows`; raises `NotSymmetric`
    when H is not symmetric.

    A keeps its latest congruence with the H object it was taken by: a call
    with that very H reads it, any other H computes and replaces it."""
    if a.nrows != h.ncols:
        raise DimensionMismatch(
            f"cannot take the congruence of a {h.nrows}x{h.ncols} form "
            f"by a {a.nrows}x{a.ncols} matrix")
    ring = h.ring
    _same_ring(ring, a.ring)
    return a._kept("congruence",
                   lambda: Matrix._from_payloads(ring, congruence_rows(ring, h.rows, a.rows)), h)


def _payload(ring, e):
    """The payload of `e` in `ring`: an element of `ring` as it is, anything
    else (an int, an element of the base field of a K-algebra) coerced."""
    return e.payload if getattr(e, "field", None) is ring else ring.coerce(e).payload


def _same_ring(ring, other) -> None:
    """The check a product of elements makes, once for the whole call."""
    if other is not ring and other != ring:
        raise DescriptorMismatch(f"mixed rings: {ring.describe()} vs {other.describe()}")


def _payload_rows(m: Matrix) -> list[list]:
    """A list copy of the payload rows, for the in-place elimination."""
    return [list(row) for row in m.rows]


def product_rows(ring, a, b) -> list[list]:
    """The payload rows of the product A B of the payload rows `a` and `b`:
    row i is the combination of the rows b[k] with the coefficients a[i][k].

    A zero a[i][k] or a zero entry of b[k] makes no product, and a factor
    one on either side gives the other factor without a product."""
    add, mul, is_zero = ring._add, ring._mul, ring._is_zero
    zero, one = ring._from_int(0), ring._from_int(1)
    width = len(b[0])
    # each row of b as the (column, payload, payload is one) triples of its
    # nonzero entries
    sparse = [[(j, y, y == one) for j, y in enumerate(row) if not is_zero(y)] for row in b]
    out = []
    for coeffs in a:
        total = [None] * width
        for x, row in zip(coeffs, sparse):
            if row and not is_zero(x):
                unit = x == one
                for j, y, y_unit in row:
                    if y_unit:
                        y = x
                    elif not unit:
                        y = mul(x, y)
                    t = total[j]
                    total[j] = y if t is None else add(t, y)
        out.append([zero if t is None else t for t in total])
    return out


def congruence_rows(ring, h, a) -> list[list]:
    """The payload rows of A^T H A for the payload rows `h` of a symmetric H
    and `a` of A.  H A is one `product_rows`.  Row i of A^T (H A) combines
    the rows of H A with the coefficients in column i of A, as in
    `product_rows`, but only in the columns k >= i; each entry (i, k) is
    then mirrored to (k, i), which holds because H is symmetric.  An H that
    is not square and symmetric raises `NotSymmetric`."""
    if list(map(tuple, h)) != list(zip(*h)):
        raise NotSymmetric("A^T H A is taken only of a symmetric H")
    add, mul, is_zero = ring._add, ring._mul, ring._is_zero
    zero, one = ring._from_int(0), ring._from_int(1)
    width = len(a[0])
    sparse = [[(k, y, y == one) for k, y in enumerate(row) if not is_zero(y)]
              for row in product_rows(ring, h, a)]
    out = [[None] * width for _ in range(width)]
    for i, col in enumerate(zip(*a)):
        total = out[i]
        for x, row in zip(col, sparse):
            if row and not is_zero(x):
                unit = x == one
                for k, y, y_unit in row:
                    if k < i:
                        continue
                    if y_unit:
                        y = x
                    elif not unit:
                        y = mul(x, y)
                    t = total[k]
                    total[k] = y if t is None else add(t, y)
        for k in range(i, width):
            if total[k] is None:
                total[k] = zero
            out[k][i] = total[k]
    return out


def det_rows(ring, rows):
    """Determinant payload of the square payload rows (changed in place):
    cofactors up to 4x4, which divide by nothing and so hold over k(1) as
    well; above, the product of the `_forward` pivots, times the cofactor
    det of the block of non-units that k(1) can leave without pivots (over
    a field, a block left without pivots is zero)."""
    if len(rows) <= 4:
        return _cofactor_det(ring, rows)
    one = det = ring._from_int(1)
    pivots = _forward(ring, rows, len(rows))
    if len(pivots) < len(rows):
        done = {c for c, _ in pivots}
        rest = [[x for j, x in enumerate(row) if j not in done] for row in rows[len(pivots):]]
        if all(ring._is_zero(x) for row in rest for x in row):
            return ring._from_int(0)
        det = _cofactor_det(ring, rest)
    for p in [p for _, p in pivots if p != one]:
        det = p if det == one else ring._mul(det, p)
    return det


def _cofactor_det(ring, e):
    """Determinant payload of the square payload rows `e` by cofactor
    expansion along the first row (no signs in characteristic 2), unrolled
    up to 3x3: each a `sum_of_products`, where a zero entry or a zero minor
    drops its term and a factor one gives the other factor without a
    product.  The minor of a zero entry is not computed."""
    n = len(e)
    if n == 1:
        return e[0][0]
    if n == 2:
        return sum_of_products(ring, ((e[0][0], e[1][1]), (e[0][1], e[1][0])))
    is_zero = ring._is_zero
    if n == 3:
        (a, b, c), (d, f, g), (h, i, k) = e
        return sum_of_products(ring, (
            (x, sum_of_products(ring, ((p, q), (r, s))))
            for x, p, q, r, s in ((a, f, k, g, i), (b, d, k, g, h), (c, d, i, f, h))
            if not is_zero(x)))
    return sum_of_products(ring, (
        (x, _cofactor_det(ring, [row[:j] + row[j + 1:] for row in e[1:]]))
        for j, x in enumerate(e[0]) if not is_zero(x)))


def sum_of_products(ring, pairs):
    """The payload of the sum of x*y over the payload pairs (x, y): a pair
    with a zero makes no product and no sum, and a factor one gives the
    other factor without a product."""
    add, mul, is_zero = ring._add, ring._mul, ring._is_zero
    one, total = ring._from_int(1), None
    for x, y in pairs:
        if not (is_zero(x) or is_zero(y)):
            y = y if x == one else x if y == one else mul(x, y)
            total = y if total is None else add(total, y)
    return ring._from_int(0) if total is None else total


def kernel_rows(ring, rows) -> list[list]:
    """The payloads of the `Matrix.kernel_basis` vectors of the payload rows
    (changed in place): one per free column, in index order."""
    ncols = len(rows[0])
    pivots = echelon(ring, rows)
    _require_decided(ring, rows, len(pivots), ncols)
    zero, one = ring._from_int(0), ring._from_int(1)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = rows[r][f]
        basis.append(vec)
    return basis


def _require_decided(ring, rows, rank: int, ncols: int) -> None:
    """Raise `NonUnitColumn` unless the rows below the pivot rows are zero in
    the first `ncols` columns.  Over a field they always are; over a local
    ring a column of non-units gets no pivot, and what is left of it below
    the pivot rows is still a constraint."""
    is_zero = ring._is_zero
    if any(not is_zero(x) for row in rows[rank:] for x in row[:ncols]):
        raise NonUnitColumn("a column holds nonzero non-units but no unit pivot")


def _forward(ring, rows, ncols: int) -> list[tuple]:
    """Forward elimination of the payload rows, in place: in each of the
    first `ncols` columns the first unit below the pivot rows so far is the
    pivot; its row moves up, is scaled to a leading one unless the pivot is
    one, and clears the column below.  Returns the (column, pivot) pairs."""
    mul, is_zero, is_unit = ring._mul, ring._is_zero, ring._is_unit
    one, n, pivots = ring._from_int(1), len(rows), []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, n) if is_unit(rows[i][c])), None)
        if pivot is None:
            continue
        top = rows[pivot]
        rows[r], rows[pivot] = top, rows[r]  # char 2: the swap flips no sign of det
        p = top[c]
        if p != one:
            inv = ring._inv(p)
            top[:] = [one if j == c else inv if b == one else b if is_zero(b) else mul(b, inv)
                      for j, b in enumerate(top)]
        _clear(ring, rows[r + 1:], top, c)
        pivots.append((c, p))
    return pivots


def _clear(ring, rows, top, c: int) -> None:
    """Add row[c] times the pivot row `top` (one in column c) to each row, on
    the nonzero entries of `top` in every column but c (over k(1), `top` can
    be nonzero in a column of non-units left of c), with no product by one."""
    add, mul, is_zero = ring._add, ring._mul, ring._is_zero
    zero, one = ring._from_int(0), ring._from_int(1)
    tail = [(j, b) for j, b in enumerate(top) if j != c and not is_zero(b)]
    for row in rows:
        f = row[c]
        if not is_zero(f):
            for j, b in tail:
                row[j] = add(row[j], b if f == one else f if b == one else mul(f, b))
            row[c] = zero


def echelon(ring, rows, ncols: Optional[int] = None) -> list[int]:
    """Reduced row echelon form of the payload rows, in place: `_forward` on
    the first `ncols` columns (all by default), then back substitution from
    the last pivot up by the same `_clear`; returns the pivot columns."""
    pivots = [c for c, _ in _forward(ring, rows, len(rows[0]) if ncols is None else ncols)]
    for r in range(len(pivots) - 1, 0, -1):
        _clear(ring, rows[:r], rows[r], pivots[r])
    return pivots


# ---------------------------------------------------------------------------
# Linear algebra over the subfield of squares.
#
# square_coordinates is additive and satisfies coords(s^2 * a) = s * coords(a),
# so F^2-linear questions about elements translate into plain F-linear
# questions about their coordinate vectors.

def _coordinate_columns(elements) -> tuple[Field, list[tuple[FieldElement, ...]]]:
    if not elements:
        raise FieldError("need at least one element")
    field = elements[0].field
    if any(el.field != field for el in elements):
        raise DescriptorMismatch("span inputs come from different fields")
    return field, [field.square_coordinates(el) for el in elements]


def square_span_dimension(elements) -> int:
    """Dimension over F^2 of the F^2-span of the given elements of F."""
    field, cols = _coordinate_columns(list(elements))
    return Matrix(field, cols).rank()


def square_span_solve(target: FieldElement, basis) -> Optional[list[FieldElement]]:
    """Coefficients x_i with target = sum x_i^2 * basis_i, or None."""
    field, cols = _coordinate_columns([target] + list(basis))
    solution = Matrix(field, cols[1:]).transpose().solve(Vector(field, cols[0]))
    return None if solution is None else list(solution)


def square_span_kernel(elements) -> list[list[FieldElement]]:
    """All F-linear dependencies x with sum x_i^2 * elements_i = 0 (a basis)."""
    field, cols = _coordinate_columns(list(elements))
    return [list(v) for v in Matrix(field, cols).transpose().kernel_basis()]
