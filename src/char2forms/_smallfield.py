"""Matrix rows for finite groups: packed over small fields, payload rows
over every other finite ring.

Over GF(2) and GF(2^k) with q = 2^k <= 256 a vector of F_q^n is packed into
one int, coordinate j in bits [k*j, k*j + k), and a matrix into the tuple
of its n packed rows.  Every map the enumeration needs (v -> v*B, the
pairing v -> c^T H v of a chosen column c, the scaling of a row, the
spreading of a column into a matrix) is GF(2)-linear on those k*n bits, so
`IntField.row_tables` tabulates it in chunks of at most 8 bits, at one xor
per table entry; applying it costs one lookup per chunk.  `IntField.inverse`
is the one packed elimination: the chain inverts with it, and the oracle's
rank checks ask it for None.  Other rings get
`PayloadRows`, the same operations on the payload rows of `Matrix`, and
`row_view` picks a field's view.

A finite group is one `ChainGroup`: the transversals of its chain of column
stabilizers, found by the oracle's column search or built from generators
by `stabilizer_chain` (Sims' algorithm, the one closure loop).  Its order
is the product of the transversal sizes, and its elements are listed
(`chain_products`) only when read.  On the identity form over GF(4) (3,840
isometries) the chain of the `classify` generators, bounded by the oracle's
order, takes 0.8-1.6 ms and the oracle's search 2.9-6.9 ms; over GF(8)
(258,048) 3.5-6.5 ms and 0.2-0.37 s.  On payload rows, the chain of hat L_g
and hat U_1 over GF(2^9) (1,022 elements) takes 0.12 s to build and 0.14 s
to build and list (Python 3.11, 2 shared x86-64 cores).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

from .fields import GF2, GF2k
from .linalg import Matrix, SingularMatrix, product_rows

CHUNK, CHUNK_MASK = 8, 0xFF


class PayloadRows:
    """The view of any ring: a matrix is its payload rows (`Matrix.rows`),
    the "row tables" of B are B's rows, products are `linalg.product_rows`,
    and `inverse` is None for a singular matrix.  `IntField` packs rows."""

    def __init__(self, ring):
        self.field = ring

    def encode_matrix(self, m: Matrix) -> tuple:
        return m.rows

    def decode_matrix(self, rows) -> Matrix:
        return Matrix._from_payloads(self.field, rows)

    def identity(self, n) -> tuple:
        return Matrix.identity(self.field, n).rows

    def transpose(self, rows) -> tuple:
        return tuple(zip(*rows))

    def row_tables(self, rows):
        return rows

    def apply(self, rows, v) -> tuple:
        return tuple(product_rows(self.field, [v], rows)[0])

    def mat_mul(self, a, rows) -> tuple:
        return tuple(map(tuple, product_rows(self.field, a, rows)))

    def inverse(self, rows):
        try:
            return Matrix._from_payloads(self.field, rows).inverse().rows
        except SingularMatrix:
            return None

    def preserve(self, matrices, gram) -> bool:
        """Whether A^T H A = H for every square matrix A (rows of this
        view), with H the Gram `gram`.  H A is one product, and (H A)^T A,
        the transpose of A^T H A, is compared with H^T."""
        gram_t = self.transpose(gram)
        for a in matrices:
            if len(a) != len(gram):
                return False
            right = self.row_tables(a)
            if self.mat_mul(self.transpose(self.mat_mul(gram, right)), right) != gram_t:
                return False
        return True


class IntField(PayloadRows):
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

    # -- the packed format -------------------------------------------------
    def pack(self, payloads) -> int:
        k = self.k
        return sum(p << (k * j) for j, p in enumerate(payloads))

    def unpack(self, v: int, n: int) -> tuple[int, ...]:
        k, mask = self.k, self.order - 1
        return tuple([(v >> (k * j)) & mask for j in range(n)])

    def encode_matrix(self, m: Matrix) -> tuple[int, ...]:
        return tuple([self.pack(row) for row in m.rows])

    def decode_matrix(self, rows) -> Matrix:
        """The square matrix with these packed rows."""
        n = len(rows)
        return Matrix._from_payloads(self.field, [self.unpack(row, n) for row in rows])

    def identity(self, n) -> tuple[int, ...]:
        return tuple(1 << (self.k * i) for i in range(n))

    def transpose(self, rows) -> tuple[int, ...]:
        """The transpose of the square matrix with these packed rows: its
        row j is column j, read off the rows by shifts."""
        k, mask = self.k, self.order - 1
        out = [0] * len(rows)
        shift = 0
        for row in rows:
            j = 0
            while row:
                out[j] |= (row & mask) << shift
                row >>= k
                j += 1
            shift += k
        return tuple(out)

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

    def inverse(self, rows):
        """The inverse of the square matrix with these packed rows, or None
        when it is singular: Gauss-Jordan on the rows of [A | I], each one
        packed int of 2n coordinates."""
        n, k, mask, inv, scale = len(rows), self.k, self.order - 1, self.inv, self.scale
        width = k * n
        work = [row | 1 << (width + k * i) for i, row in enumerate(rows)]
        for c in range(n):
            shift = k * c
            pivot = next((i for i in range(c, n) if work[i] >> shift & mask), None)
            if pivot is None:
                return None
            row = scale(work[pivot], inv[work[pivot] >> shift & mask])
            work[pivot], work[c] = work[c], row
            for i in range(n):
                x = work[i] >> shift & mask
                if x and i != c:
                    work[i] ^= scale(row, x)
        return tuple([row >> width for row in work])

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
        """x^T G y on packed vectors, G as packed rows: the packed row x^T G
        is the sum of x_i times row i of G (`scale`, no product for x_i one),
        and is paired with y by one product per coordinate."""
        k, mask, mul, scale = self.k, self.order - 1, self.mul, self.scale
        row = 0
        for g in gram:
            if x & mask:
                row ^= scale(g, x & mask)
            x >>= k
        acc = 0
        while row and y:
            acc ^= mul[row & mask][y & mask]
            row >>= k
            y >>= k
        return acc


def chain_products(view, transversals) -> list[tuple]:
    """The elements of a group given by a chain of column stabilizers
    G = G_0 > G_1 > ... > G_n = {I}, G_j fixing e_0..e_(j-1) as columns,
    where transversals[j] holds one element of G_j per point of the orbit of
    e_j under G_j (its column j).  G_j is the disjoint union of the cosets
    t G_(j+1), so the elements are the products t x, t in T_j and x in
    G_(j+1), formed from the bottom of the chain up with one `row_tables`
    per x.
    """
    elements = [view.identity(len(transversals))]
    for found in reversed(transversals):
        products = []
        for x in elements:
            right = view.row_tables(x)
            products += [view.mat_mul(t, right) for t in found]
        elements = products
    return elements


class ChainGroup(Sequence):
    """A finite matrix group over `field`: the `transversals` of its chain of
    column stabilizers (as `chain_products` reads them), in the rows of
    `row_view(field)`.  `len` is the product of their sizes, `rows` lists
    the elements on first read, and reading an element decodes it.  A group
    built by `stabilizer_chain` keeps its `generators`, and `preserves(gram)`
    tells, once per Gram, whether each is an isometry of `gram`."""

    generators = ()

    def __init__(self, field, transversals, generators, preserved):
        self.field, self.transversals, self.generators = field, transversals, generators
        self._preserved = preserved

    def __len__(self):
        return math.prod(len(found) for found in self.transversals)

    @functools.cached_property
    def rows(self) -> tuple:
        return tuple(chain_products(row_view(self.field), self.transversals))

    def __getitem__(self, index):
        rows, decode = self.rows[index], row_view(self.field).decode_matrix
        return list(map(decode, rows)) if isinstance(index, slice) else decode(rows)

    def __iter__(self):
        return map(row_view(self.field).decode_matrix, self.rows)

    def preserves(self, gram) -> bool:
        if gram not in self._preserved:
            self._preserved[gram] = row_view(self.field).preserve(self.generators, gram)
        return self._preserved[gram]


class _Level:
    """One level of a stabilizer chain acting on rows: the orbit of the base
    point e_j under the strong generators that fix e_0..e_(j-1), kept as a
    Schreier vector (each point with the point and generator it was reached
    from), and the Schreier generators already sifted.  As a sequence it is
    the level's transversal, in the shape `chain_products` reads."""

    def __init__(self, view, strong, base, identity):
        self.view, self.strong, self.base = view, strong, base
        self.vector = {base: None}
        self.points = [base]
        self.gens: list[int] = []
        self.sifted: set[tuple[int, int]] = set()
        self.elements = {base: identity}
        self.inverses: dict[int, list] = {}

    def extend(self, i):
        """Strong generator i joins the level and the orbit is closed again:
        the new generator on the old points, every generator on the new ones."""
        self.gens.append(i)
        vector, points, strong, apply = self.vector, self.points, self.strong, self.view.apply
        start, pos = len(points), 0
        while pos < len(points):
            point = points[pos]
            for g in ((i,) if pos < start else self.gens):
                image = apply(strong[g][1], point)
                if image not in vector:
                    vector[image] = (point, g)
                    points.append(image)
            pos += 1

    def element(self, point):
        """u_point, with e_j u_point = point, formed from the Schreier vector."""
        path = []
        while point not in self.elements:
            parent, g = self.vector[point]
            path.append((point, g))
            point = parent
        u = self.elements[point]
        for point, g in reversed(path):
            u = self.elements[point] = self.view.mat_mul(u, self.strong[g][1])
        return u

    def inverse_tables(self, point):
        """The row tables of u_point^-1."""
        if point not in self.inverses:
            self.inverses[point] = self.view.row_tables(self.view.inverse(self.element(point)))
        return self.inverses[point]

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.transversal)

    @functools.cached_property
    def transversal(self) -> list:
        # u_v^T, whose column j is v, for each orbit point v
        transpose = self.view.transpose
        return [transpose(self.element(point)) for point in self.points]


def stabilizer_chain(view, generators, cap: int, bound):
    """The levels of the chain of column stabilizers of <generators> (rows
    of `view`), with base e_0..e_(n-1), by Sims' algorithm (C. C. Sims,
    1970; A. Seress, *Permutation Group Algorithms*, CUP 2003, ch. 4); the
    base serves any faithful action on a finite set, so any finite ring.

    A acts on the column v as the row v^T A^T, so the chain is built for the
    transposes X = A^T acting on rows: e_j X is row j of X, and the image of
    any row is one product by X (one lookup per table chunk when packed).
    An element g is sifted level by level, g <- g u_v^-1 with v = e_j g; it
    stops at the first level whose orbit lacks e_j g, and is then a new
    strong generator there and at every level above.  The input generators
    are sifted first.  The levels are then completed from the bottom up:
    every Schreier generator u_v s u_(vs)^-1 of a level, but those on the
    Schreier vector's own edges, must sift to the identity through the
    levels below it, and a level that gains a strong generator is completed
    again.

    The order is the product of the orbit sizes.  Each orbit lies in the
    orbit of its base point under the true stabilizer, so the product never
    exceeds |G|; once it reaches `bound`, an upper bound on |G|, every orbit
    is whole and the search stops.  Returns None once the product exceeds
    `cap`.
    """
    n = len(generators[0])
    identity = view.identity(n)
    strong: list = []  # (X, row tables of X)
    levels = [_Level(view, strong, base, identity) for base in identity]

    def sift(g, j):
        # (g reduced through the levels from j on, the level it stopped at),
        # or None when it reduces to the identity, which fixes every e_m
        for m in range(j, n):
            level = levels[m]
            if g[m] != level.base:
                if g[m] not in level.vector:
                    return g, m
                g = view.mat_mul(g, level.inverse_tables(g[m]))
        return None

    def add(g, j):
        # the order of the chain with g as a strong generator at levels 0..j
        strong.append((g, view.row_tables(g)))
        for level in levels[:j + 1]:
            level.extend(len(strong) - 1)
        return math.prod(map(len, levels))

    def residue(j):
        # the first Schreier generator of level j that does not sift to the identity
        level = levels[j]
        for point in level.points:
            for g in level.gens:
                if (point, g) in level.sifted:
                    continue
                level.sifted.add((point, g))
                right = strong[g][1]
                image = view.apply(right, point)
                if level.vector[image] != (point, g):
                    schreier = view.mat_mul(view.mat_mul(level.element(point), right),
                                            level.inverse_tables(image))
                    found = sift(schreier, j + 1)
                    if found is not None:
                        return found
        return None

    def residues():
        # the new strong generators: the input generators that do not sift
        # to the identity, then the Schreier generators, bottom level first
        for a in generators:
            found = sift(view.transpose(a), 0)
            if found is not None:
                yield found
        j = n - 1
        while j >= 0:
            found = residue(j)
            if found is None:
                j -= 1
            else:
                yield found
                j = found[1]

    order = 1
    for found in residues():
        order = add(*found)
        if order > cap or order == bound:
            break
    return None if order > cap else tuple(levels)


# one packed view per field: its tables are built once, for the closure and
# the oracle alike
@functools.lru_cache(maxsize=None)
def try_int_field(field):
    try:
        return IntField(field)
    except ValueError:
        return None


def row_view(field):
    """The packed view of `field` where it has one, else its payload rows."""
    return try_int_field(field) or PayloadRows(field)
