"""Int-encoded arithmetic for small finite fields of characteristic 2.

Group enumeration multiplies tens of thousands of matrices; doing that on
wrapped field elements is needlessly slow.  Elements of GF(2) and GF(2^k)
are already ints underneath, so this module precomputes a dense q x q
multiplication table (addition is xor) and an inverse table, and works on
tuples of ints.
"""

from __future__ import annotations

from .fields import GF2, GF2k, FieldElement
from .linalg import Matrix


class IntField:
    """Multiplication table view of GF(2) or GF(2^k)."""

    def __init__(self, field):
        if not isinstance(field, (GF2, GF2k)) or field.order is None or field.order > 256:
            raise ValueError("int encoding needs gf2/gf2k with order <= 256")
        self.field = field
        self.order = field.order
        self.mul = [[field._mul(a, b) for b in range(self.order)]
                    for a in range(self.order)]
        self.inv = [0] + [field._inv(a) for a in range(1, self.order)]

    def encode(self, el: FieldElement) -> int:
        return el.payload

    def decode(self, bits: int) -> FieldElement:
        return FieldElement(self.field, bits)

    def encode_matrix(self, m: Matrix) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(e.payload for e in row) for row in m.entries)

    def decode_matrix(self, rows) -> Matrix:
        return Matrix(self.field, [[self.decode(e) for e in row] for row in rows])

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


def try_int_field(field):
    try:
        return IntField(field)
    except ValueError:
        return None
