"""Int-encoded arithmetic for small finite fields of characteristic 2.

Group enumeration multiplies thousands of matrices and pairs thousands of
vectors; doing that on wrapped field elements is needlessly slow.  Elements
of GF(2) and GF(2^k) are already ints underneath, so this module works on
tuples of payloads with the field's own product and inverse tables
(`GF2k.tables`; addition is xor).  Results stay payload rows
(`EncodedMatrices`) and are decoded into matrices, built from one interned
element per payload, only where they are read.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .fields import GF2, GF2k, FieldElement
from .linalg import Matrix


class IntField:
    """Product-table view of GF(2) or GF(2^k)."""

    def __init__(self, field):
        if not isinstance(field, (GF2, GF2k)) or field.order is None or field.order > 256:
            raise ValueError("int encoding needs gf2/gf2k with order <= 256")
        self.field = field
        self.order = field.order
        self.mul, self.inv = field.tables()
        self.elements = tuple(FieldElement(field, bits) for bits in range(self.order))

    def encode_matrix(self, m: Matrix) -> tuple[tuple[int, ...], ...]:
        return tuple([tuple([e.payload for e in row]) for row in m.entries])

    def decode_matrix(self, rows) -> Matrix:
        elements = self.elements
        return Matrix(self.field, [[elements[e] for e in row] for row in rows])

    def mat_mul(self, a, b):
        mul = self.mul
        bt = tuple(zip(*b))
        out = []
        for row in a:
            out_row = []
            for col in bt:
                acc = 0
                for x, y in zip(row, col):
                    acc ^= mul[x][y]
                out_row.append(acc)
            out.append(tuple(out_row))
        return tuple(out)

    def bilinear(self, x, gram_rows, y) -> int:
        """x^T G y on int vectors, G as tuple rows."""
        mul = self.mul
        acc = 0
        for xi, grow in zip(x, gram_rows):
            if xi:
                inner = 0
                for gij, yj in zip(grow, y):
                    inner ^= mul[gij][yj]
                acc ^= mul[xi][inner]
        return acc

    def identity(self, n):
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class EncodedMatrices(Sequence):
    """A read-only sequence of matrices kept as payload rows over `field`.

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
