"""Symmetric bilinear forms over characteristic-2 fields.

A form is carried by its Gram matrix.  The central construction is the
orthogonalization of non-alternating symmetric forms: in characteristic 2 a
symmetric form admits an orthogonal basis exactly when some vector v has
h(v,v) != 0, and the construction is an induction with a repair step that
absorbs a hyperbolic plane whenever the remaining complement is alternating
on itself.

`orthogonalize` keeps the space still to be split as payload columns S with
its congruent Gram M = S^T H S, so that every h-value and pairing it needs
is an entry of M, and each step only updates S and M: it never pairs vectors
through H again until its final check.  The update S C is a product of
payload rows by `linalg.product_rows`, the one product behind `Matrix`
products and `bilinear` as well, and C^T M C is `linalg.congruence_rows`,
the one kernel behind every A^T H A of a symmetric H; a kernel vector c has
a one at its free column and zeros at the other free columns, which both
add or skip without multiplying.  Per call, on a form whose det(H)
is known (Python 3.11, 2 shared cores, best of 9 runs of 5 calls on the
`tests/golden` forms): defect-3 F2(t) form 0.5-0.6 ms, defect-0 F2(t)(u)
form 8-11 ms, repair-step F2(t)(u) form 0.9-1.4 ms.  Other families are paired
as one Gram product X^T G Y and combined as one product S c, not pair by
pair and term by term.

On an orthogonal basis with diagonal values c_i the quadratic form
q(x) = h(x,x) = sum x_i^2 c_i is semilinear over the subfield of squares, so
its kernel and the dimension of its range reduce to the square-span machinery
in :mod:`char2forms.linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Char2FormsError, require
from .fields import FieldElement
from .linalg import (Matrix, Vector, bilinear, congruence, congruence_rows, echelon,
                     kernel_rows, product_rows, square_span_kernel)


class FormError(Char2FormsError):
    pass


class AlternatingForm(FormError):
    """No orthogonal basis exists for an alternating form."""


class ZeroForm(FormError):
    pass


class DegenerateForm(FormError):
    pass


class BilinearForm:
    """A symmetric bilinear form given by its Gram matrix."""

    __slots__ = ("gram", "_det", "_orthogonal")

    def __init__(self, gram: Matrix):
        if not gram.is_square():
            raise FormError("Gram matrix must be square")
        if not gram.is_symmetric():
            raise FormError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_det", None)
        object.__setattr__(self, "_orthogonal", None)

    def __setattr__(self, name, value):
        raise AttributeError("forms are immutable")

    @property
    def field(self):
        return self.gram.ring

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def q(self, x: Vector) -> FieldElement:
        """The quadratic form q(x) = h(x, x)."""
        return bilinear(self.gram, x, x)

    def is_alternating(self) -> bool:
        # q(sum x_i v_i) = sum x_i^2 q(v_i) in char 2, so the diagonal decides
        is_zero = self.field._is_zero
        return all(is_zero(row[i]) for i, row in enumerate(self.gram.rows))

    def is_zero(self) -> bool:
        return self.gram.is_zero()

    def radical(self) -> list[Vector]:
        return self.gram.kernel_basis()

    def det(self) -> FieldElement:
        """det(H), computed on first use and kept."""
        if self._det is None:
            object.__setattr__(self, "_det", self.gram.det())
        return self._det

    def orthogonal(self) -> tuple[tuple[Vector, ...], tuple[FieldElement, ...]]:
        """`orthogonalize(self)` as tuples, computed on first use and kept."""
        if self._orthogonal is None:
            object.__setattr__(self, "_orthogonal", tuple(map(tuple, orthogonalize(self))))
        return self._orthogonal

    def is_degenerate(self) -> bool:
        return self.det().is_zero()

    def congruent(self, basis: Matrix) -> "BilinearForm":
        """The form in the coordinates of the given basis (columns)."""
        return BilinearForm(congruence(self.gram, basis))

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"BilinearForm(\n{self.gram}\n)"


@dataclass(frozen=True)
class QuadraticData:
    """Diagonal values, kernel of q, defect and range dimension of a form."""

    values: tuple[FieldElement, ...]
    basis: tuple[Vector, ...]
    kernel: tuple[Vector, ...]
    defect: int
    range_dimension: int


def orthogonalize(form: BilinearForm) -> tuple[list[Vector], list[FieldElement]]:
    """An orthogonal basis and its diagonal h-values.

    Nonzero diagonal entries come first, radical vectors (value 0) last.
    Degenerate input is allowed (the radical is split off first); alternating
    input raises AlternatingForm.  Pivots are chosen first-come in index
    order, so the output is deterministic.  The radical is computed only
    when det(H) = 0; `form.orthogonal()` keeps the result.

    The space still to be split is kept as payload columns S together with
    its congruent Gram M = S^T H S (payload rows): the h-value of a column
    is a diagonal entry of M, its pairings with the space are a row of M,
    and restricting to the kernel C of such rows sets S <- S C and
    M <- C^T M C.  H itself is read again only by the final check.
    """
    field = form.field
    n = form.dim
    if form.is_zero():
        raise ZeroForm("the zero form has no orthogonal basis")
    if form.is_alternating():
        raise AlternatingForm("alternating forms admit no orthogonal basis")

    radical = form.radical() if form.is_degenerate() else []
    # the complement of the radical is spanned by unit vectors, so its
    # congruent Gram is a principal submatrix of H
    chosen = _complement_indices(field, radical, n)
    zero, one = field._from_int(0), field._from_int(1)
    space = [[one if i == c else zero for i in range(n)] for c in chosen]
    h = form.gram.rows
    m = [[h[a][b] for b in chosen] for a in chosen]

    orthos: list[Vector] = []
    is_zero = field._is_zero
    while space:
        idx = next((i for i, row in enumerate(m) if not is_zero(row[i])), None)
        if idx is not None:
            orthos.append(Vector._from_payloads(field, space[idx]))
            value = m[idx][idx]
            space, m = _restrict(field, space, m, [list(m[idx])])
            continue
        # h restricted to span(space) is alternating and non-degenerate:
        # repair with a hyperbolic pair as in the inductive construction.
        # Every vector of span(w_k, x, y) has q-value a square multiple of
        # a = q(w_k); the triple below is pairwise orthogonal with value a
        # (the x-coefficient of the third vector must be 1, not a, for the
        # cross terms to cancel when a != 1).
        i, j = _hyperbolic_pair(field, m)
        x = Vector._from_payloads(field, space[i])
        w_k = orthos[-1]
        a = FieldElement(field, value)  # q(w_k), and the value of each new vector
        ya = Vector._from_payloads(field, space[j]).scale(
            FieldElement(field, field._inv(m[i][j]))).scale(a)
        triple = [w_k + x, w_k + ya, w_k + x + ya]
        require(form.congruent(Matrix.from_columns(field, triple)).gram
                == Matrix.identity(field, 3) * a,
                "internal: the hyperbolic repair step is not orthogonal")
        orthos[-1:] = triple
        # the constraints h(x, -) and h(y, -) are rows i and j of M, up to
        # a scalar that leaves their kernel alone
        space, m = _restrict(field, space, m, [list(m[i]), list(m[j])])

    basis = orthos + radical
    gram = form.congruent(Matrix.from_columns(field, basis)).gram
    require(gram.is_diagonal(), "internal: the orthogonal basis does not diagonalize")
    return basis, [gram[i, i] for i in range(n)]


def _complement_indices(field, radical: list[Vector], n: int) -> list[int]:
    """The indices of the unit vectors completing the radical to a basis of F^n.

    In index order, e_i is kept unless some vector of the radical's span has
    its last nonzero entry at i: a pivot of the column-reversed radical rows."""
    if not radical:
        return list(range(n))
    rows = [list(reversed(v.payloads)) for v in radical]
    dropped = {n - 1 - p for p in echelon(field, rows)}
    return [i for i in range(n) if i not in dropped]


def _restrict(field, space, m, constraints):
    """S C and C^T M C, on payloads, for the space S (its columns `space`)
    with congruent Gram M (its rows `m`) and the matrix C whose columns are
    the `kernel_rows` of the constraint rows: the subspace of span(S) they
    cut out and its congruent Gram: the columns of S C are the rows of
    C^T S^T, one `product_rows`, and C^T M C is `congruence_rows`."""
    kernel = kernel_rows(field, constraints)
    if not kernel:
        return [], []
    return product_rows(field, kernel, space), congruence_rows(field, m, list(zip(*kernel)))


def _hyperbolic_pair(field, m) -> tuple[int, int]:
    """The first (i, j), i < j, with a nonzero entry in the Gram rows `m`."""
    is_zero = field._is_zero
    for i, row in enumerate(m):
        for j in range(i + 1, len(m)):
            if not is_zero(row[j]):
                return i, j
    raise FormError("internal: no hyperbolic pair in a non-degenerate space")


def orthonormalize(form: BilinearForm) -> list[Vector]:
    """An orthonormal basis; only possible when every diagonal value is a square."""
    basis, diag = form.orthogonal()
    out = []
    for v, c in zip(basis, diag):
        root = c.sqrt()
        if c.is_zero() or root is None:
            raise FormError(f"diagonal value {c} is not a nonzero square")
        out.append(v.scale(root.inverse()))
    return out


def quadratic_data(form: BilinearForm) -> QuadraticData:
    """Defect, range dimension and kernel of q for a non-degenerate form,
    from its det(H) and orthogonal basis (each computed once per form).

    One `square_span_kernel` of the diagonal values gives both: the range
    dimension is len(diag) minus the kernel's dimension, by rank-nullity on
    the one matrix of their square coordinates."""
    if form.is_degenerate():
        raise DegenerateForm("the quadratic analysis needs a non-degenerate form")
    if form.is_alternating():
        raise AlternatingForm("q vanishes identically on an alternating form")
    basis, diag = form.orthogonal()
    dependencies = square_span_kernel(diag)
    range_dimension = len(diag) - len(dependencies)
    s = Matrix.from_columns(form.field, basis)
    kernel = [s * Vector(form.field, coeffs) for coeffs in dependencies]
    for v in kernel:
        require(form.q(v).is_zero(), "internal: a kernel vector of q has q(v) != 0")
    return QuadraticData(values=tuple(diag), basis=tuple(basis),
                         kernel=tuple(kernel), defect=form.dim - range_dimension,
                         range_dimension=range_dimension)


def discriminant_class(form: BilinearForm) -> tuple[FieldElement, bool]:
    """det(gram) and whether it is a square (the square class of disc h)."""
    d = form.det()
    if d.is_zero():
        raise DegenerateForm("degenerate forms have no discriminant class")
    return d, d.is_square()
