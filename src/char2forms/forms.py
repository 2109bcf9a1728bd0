"""Symmetric bilinear forms over characteristic-2 fields.

A form is carried by its Gram matrix.  The central construction is the
orthogonalization of non-alternating symmetric forms: in characteristic 2 a
symmetric form admits an orthogonal basis exactly when some vector v has
h(v,v) != 0, and the construction is an induction with a repair step that
absorbs a hyperbolic plane whenever the remaining complement is alternating
on itself.

The pairings of two vector families X and Y (as columns) are computed as
one Gram product X^T G Y, and a combination of a family S with coefficients
c as one product S c, not pair by pair and term by term.

On an orthogonal basis with diagonal values c_i the quadratic form
q(x) = h(x,x) = sum x_i^2 c_i is semilinear over the subfield of squares, so
its kernel and the dimension of its range reduce to the square-span machinery
in :mod:`char2forms.fields`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Char2FormsError, require
from .fields import (FieldElement, square_span_dimension, square_span_kernel)
from .linalg import Matrix, Vector, bilinear


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

    __slots__ = ("gram",)

    def __init__(self, gram: Matrix):
        if not gram.is_square():
            raise FormError("Gram matrix must be square")
        if not gram.is_symmetric():
            raise FormError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

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
        return all(self.gram[i, i].is_zero() for i in range(self.dim))

    def is_zero(self) -> bool:
        return self.gram.is_zero()

    def radical(self) -> list[Vector]:
        return self.gram.kernel_basis()

    def is_degenerate(self) -> bool:
        return self.gram.det().is_zero()

    def congruent(self, basis: Matrix) -> "BilinearForm":
        """The form in the coordinates of the given basis (columns)."""
        return BilinearForm(basis.transpose() * self.gram * basis)

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
    order, so the output is deterministic.
    """
    field = form.field
    n = form.dim
    if form.is_zero():
        raise ZeroForm("the zero form has no orthogonal basis")
    if form.is_alternating():
        raise AlternatingForm("alternating forms admit no orthogonal basis")

    radical = form.radical()
    complement = _extend_to_complement(field, radical, n)

    orthos: list[Vector] = []
    space = complement
    while space:
        idx = next((i for i, v in enumerate(space) if not form.q(v).is_zero()), None)
        if idx is not None:
            w = space[idx]
            orthos.append(w)
            space = _orthogonal_within(form, space, [w])
            continue
        # h restricted to span(space) is alternating and non-degenerate:
        # repair with a hyperbolic pair as in the inductive construction.
        # Every vector of span(w_k, x, y) has q-value a square multiple of
        # a = q(w_k); the triple below is pairwise orthogonal with value a
        # (the x-coefficient of the third vector must be 1, not a, for the
        # cross terms to cancel when a != 1).
        x, y = _hyperbolic_pair(form, space)
        w_k = orthos[-1]
        a = form.q(w_k)
        triple = [w_k + x, w_k + y.scale(a), w_k + x + y.scale(a)]
        require(form.congruent(Matrix.from_columns(field, triple)).gram
                == Matrix.identity(field, 3) * a,
                "internal: the hyperbolic repair step is not orthogonal")
        orthos[-1:] = triple
        space = _orthogonal_within(form, space, [x, y])

    basis = orthos + radical
    gram = form.congruent(Matrix.from_columns(field, basis)).gram
    require(gram.is_diagonal(), "internal: the orthogonal basis does not diagonalize")
    return basis, [gram[i, i] for i in range(n)]


def _extend_to_complement(field, radical: list[Vector], n: int) -> list[Vector]:
    """Standard basis vectors completing the radical to a basis of F^n."""
    if not radical:
        return [Vector.unit(field, n, i) for i in range(n)]
    rows = [list(v.entries) for v in radical]
    chosen: list[Vector] = []
    for i in range(n):
        candidate = Vector.unit(field, n, i)
        trial = rows + [list(v.entries) for v in chosen] + [list(candidate.entries)]
        if Matrix(field, trial).rank() == len(rows) + len(chosen) + 1:
            chosen.append(candidate)
        if len(chosen) + len(rows) == n:
            break
    return chosen


def _orthogonal_within(form: BilinearForm, space: list[Vector],
                       constraints: list[Vector]) -> list[Vector]:
    """Basis of {v in span(space) : h(v, w) = 0 for all constraint w}."""
    s = Matrix.from_columns(form.field, space)
    pairings = Matrix(form.field, [w.entries for w in constraints]) * form.gram * s
    return [s * c for c in pairings.kernel_basis()]


def _hyperbolic_pair(form: BilinearForm, space: list[Vector]) -> tuple[Vector, Vector]:
    pairs = form.congruent(Matrix.from_columns(form.field, space)).gram
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            value = pairs[i, j]
            if not value.is_zero():
                return space[i], space[j].scale(value.inverse())
    raise FormError("internal: no hyperbolic pair in a non-degenerate space")


def orthonormalize(form: BilinearForm) -> list[Vector]:
    """An orthonormal basis; only possible when every diagonal value is a square."""
    basis, diag = orthogonalize(form)
    out = []
    for v, c in zip(basis, diag):
        root = c.sqrt()
        if c.is_zero() or root is None:
            raise FormError(f"diagonal value {c} is not a nonzero square")
        out.append(v.scale(root.inverse()))
    return out


def quadratic_data(form: BilinearForm) -> QuadraticData:
    """Defect, range dimension and kernel of q for a non-degenerate form."""
    if form.is_degenerate():
        raise DegenerateForm("the quadratic analysis needs a non-degenerate form")
    if form.is_alternating():
        raise AlternatingForm("q vanishes identically on an alternating form")
    basis, diag = orthogonalize(form)
    range_dimension = square_span_dimension(diag)
    s = Matrix.from_columns(form.field, basis)
    kernel = [s * Vector(form.field, coeffs) for coeffs in square_span_kernel(diag)]
    for v in kernel:
        require(form.q(v).is_zero(), "internal: a kernel vector of q has q(v) != 0")
    return QuadraticData(values=tuple(diag), basis=tuple(basis),
                         kernel=tuple(kernel), defect=form.dim - range_dimension,
                         range_dimension=range_dimension)


def discriminant_class(form: BilinearForm) -> tuple[FieldElement, bool]:
    """det(gram) and whether it is a square (the square class of disc h)."""
    d = form.gram.det()
    if d.is_zero():
        raise DegenerateForm("degenerate forms have no discriminant class")
    return d, d.is_square()
