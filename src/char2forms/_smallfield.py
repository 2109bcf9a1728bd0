"""Packed-row arithmetic for small finite fields of characteristic 2.

Group enumeration multiplies thousands of matrices and pairs thousands of
vectors; doing that on wrapped field elements is needlessly slow.  Over
GF(2) and GF(2^k) with q = 2^k <= 256 a vector of F_q^n is packed into one
int, coordinate j in bits [k*j, k*j + k), and a matrix into the tuple of its
n packed rows.  Every map the enumeration needs (v -> v*B for a right
factor B, the pairing v -> c^T H v of a chosen column c, the scaling of a
row, the spreading of a column into a matrix) is GF(2)-linear on those k*n
bits, so `IntField.row_tables` tabulates it in chunks of at most 8 bits, at
one xor per table entry; applying it costs one lookup per chunk.  Results
stay packed rows (`EncodedMatrices`) and are decoded into matrices, built
from one interned element per payload, only where they are read.

On the identity form over GF(4) (3,840 isometries) the closure of the
`classify` generators takes 3-7.5 ms and the oracle, which lists the
products of its column-stabilizer transversals, 6-14 ms; over GF(8)
(258,048 isometries) 0.5-1.2 s and 0.65-1.2 s (Python 3.11, 2 shared x86-64
cores).  On tuples of payloads with a table lookup per scalar product, the
closure took 33-53 ms and 2.6-4.4 s.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .fields import GF2, GF2k, FieldElement
from .linalg import Matrix

CHUNK, CHUNK_MASK = 8, 0xFF


class IntField:
    """Packed-row view of GF(2) or GF(2^k) with q <= 256.

    Tables made by `row_tables` are plain lists of chunk tables; they hold
    no reference to the view and live as long as their caller keeps them.
    """

    def __init__(self, field):
        if not isinstance(field, (GF2, GF2k)) or field.order is None or field.order > 256:
            raise ValueError("int encoding needs gf2/gf2k with order <= 256")
        self.field = field
        self.order = field.order
        self.k = self.order.bit_length() - 1
        self.mul, self.inv = field.tables()
        self.elements = tuple(FieldElement(field, bits) for bits in range(self.order))

    # -- the packed format -------------------------------------------------
    def pack(self, payloads) -> int:
        k = self.k
        return sum(p << (k * j) for j, p in enumerate(payloads))

    def unpack(self, v: int, n: int) -> tuple[int, ...]:
        k, mask = self.k, self.order - 1
        return tuple([(v >> (k * j)) & mask for j in range(n)])

    def encode_matrix(self, m: Matrix) -> tuple[int, ...]:
        return tuple([self.pack([e.payload for e in row]) for row in m.entries])

    def decode_matrix(self, rows) -> Matrix:
        """The square matrix with these packed rows."""
        elements, n = self.elements, len(rows)
        return Matrix(self.field, [[elements[e] for e in self.unpack(row, n)] for row in rows])

    def identity(self, n) -> tuple[int, ...]:
        return tuple(1 << (self.k * i) for i in range(n))

    # -- GF(2)-linear maps as chunk tables, and what is built on them --------
    def row_tables(self, rows) -> list[list[int]]:
        """The tables of v -> v*B, where B has these packed rows.

        Bit b of coordinate i of v is the scalar 2^b at i, so its image is
        2^b times row i of B.  Each chunk of at most 8 input bits gets one
        table, built by doubling: one xor per entry.
        """
        images = [self.scale(row, 1 << b) for row in rows for b in range(self.k)]
        tables = []
        for start in range(0, len(images), CHUNK):
            table = [0]
            for image in images[start:start + CHUNK]:
                table += [t ^ image for t in table]
            tables.append(table)
        return tables

    def scale(self, v: int, s: int) -> int:
        """s times the packed vector v, coordinate by coordinate."""
        if s == 1:
            return v
        times, k, mask = self.mul[s], self.k, self.order - 1
        out = shift = 0
        while v:
            out |= times[v & mask] << shift
            v >>= k
            shift += k
        return out

    @staticmethod
    def apply(tables, v: int) -> int:
        """The image of v under the map with these chunk tables."""
        out = 0
        for table in tables:
            out ^= table[v & CHUNK_MASK]
            v >>= CHUNK
        return out

    def select(self, tables, values, target: int) -> list[int]:
        """The values whose image under the tabulated map is `target`."""
        if len(tables) == 1:
            table, = tables
            return [v for v in values if table[v] == target]
        apply = self.apply
        return [v for v in values if apply(tables, v) == target]

    def column_tables(self, n) -> list[list[list[int]]]:
        """For each column j, the tables of c -> the n x n matrix whose column
        j is the packed vector c, held as one int row after row (row i in
        bits [k*n*i, k*n*(i+1))); `split_rows` cuts it into packed rows."""
        k = self.k
        return [self.row_tables([1 << k * (n * i + j) for i in range(n)]) for j in range(n)]

    def split_rows(self, m: int, n: int) -> tuple[int, ...]:
        width = self.k * n
        mask = (1 << width) - 1
        return tuple([m >> shift & mask for shift in range(0, width * n, width)])

    def independent(self, rows) -> bool:
        """Whether the packed rows are linearly independent.

        Each row is reduced by the rows kept before it, keyed by their lowest
        nonzero coordinate; a row that reduces to zero is dependent.
        """
        k, mask, mul, inv, scale = self.k, self.order - 1, self.mul, self.inv, self.scale
        pivots: dict[int, tuple[int, int]] = {}
        for v in rows:
            while v:
                shift = ((v & -v).bit_length() - 1) // k * k
                pivot = pivots.get(shift)
                if pivot is None:
                    pivots[shift] = (v, inv[v >> shift & mask])
                    break
                row, row_inv = pivot
                v ^= scale(row, mul[v >> shift & mask][row_inv])
            else:
                return False
        return True

    # -- the two kernels bench/tracing.py counts, by these names -----------
    def mat_mul(self, a, right) -> tuple[int, ...]:
        """A*B on packed rows, B given by its `row_tables`: one lookup per
        chunk of each row of A."""
        if len(right) == 1:
            table, = right
            return tuple([table[row] for row in a])
        apply = self.apply
        return tuple([apply(right, row) for row in a])

    def bilinear(self, x: int, gram, y: int) -> int:
        """x^T G y on packed vectors, G as packed rows."""
        mul, n = self.mul, len(gram)
        ys = self.unpack(y, n)
        acc = 0
        for xi, row in zip(self.unpack(x, n), gram):
            if xi:
                inner = 0
                for gij, yj in zip(self.unpack(row, n), ys):
                    inner ^= mul[gij][yj]
                acc ^= mul[xi][inner]
        return acc


class EncodedMatrices(Sequence):
    """A read-only sequence of square matrices kept as packed rows over `field`.

    Reading an element (by index, slice or iteration) decodes it; `len`
    and the `rows` themselves need no decoding.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        decode = try_int_field(self.field).decode_matrix
        if isinstance(index, slice):
            return [decode(m) for m in self.rows[index]]
        return decode(self.rows[index])

    def __iter__(self):
        return map(try_int_field(self.field).decode_matrix, self.rows)


# one view per field: its tables and interned elements are built once, and
# the closure and the oracle decode to the same element objects
@functools.lru_cache(maxsize=None)
def try_int_field(field):
    try:
        return IntField(field)
    except ValueError:
        return None
