"""The quadratic algebra K = F + jF with j^2 = delta, and its module.

K is a ring in the field protocol: its elements are `FieldElement`s whose
payloads are pairs (x0, x1) of payloads of F, standing for x0 + j*x1, and
`KAlgebra` computes on those pairs with F's payload primitives.  The 2x2
matrix picture [[x0, delta*x1], [x1, x0]] is kept only as a test-time
embedding (`KAlgebra.matrix_model`).  When delta is a non-square K is an
inseparable quadratic field extension; when delta is a square K is split:
after rescaling the volume so that delta = 1, z = 1 + j is nilpotent and
K = F[z]/(z^2).

The middle exterior power W = Lambda^l V becomes a free right K-module via
w * j := J(w).  On an orthogonal basis the wedges whose index set contains 1
form a K-basis B1: J sends each e_S to a nonzero multiple of e_(S^c), whose
index set lacks 1, so the K-coordinates of w are read off its entries at S
and S^c.  The K-valued form

    g(u, v) = Lh(u, v) + j * Pf(u, v)

is diagonal on B1.  (The sign (-1)^l that the general formula carries in odd
characteristic is 1 here and is dropped.)  In the split case Wz is a totally
g-isotropic K-submodule with W/Wz isomorphic to Wz via w + Wz -> wz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import Char2FormsError, require
from .exterior import HodgeData, hodge
from .fields import Field, FieldElement
from .linalg import Matrix, Vector, bilinear, square_span_solve


class KAlgebraError(Char2FormsError):
    pass


class NonInvertible(KAlgebraError):
    pass


class NotSplit(KAlgebraError):
    pass


class NotMiddleDegree(KAlgebraError):
    pass


class KAlgebra(Field):
    """The ring F + jF with j^2 = delta over a characteristic-2 field.

    Not a field when delta is a square: `_is_unit` tests the norm, and the
    inverse of a nonzero non-unit raises `NonInvertible`.
    """

    def __init__(self, field, delta):
        delta = field.coerce(delta)
        if delta.is_zero():
            raise KAlgebraError("delta must be nonzero")
        self.field = field
        self.delta = delta
        self.order = None if field.order is None else field.order ** 2
        zero = field._from_int(0)
        self._constants = ((zero, zero), (field._from_int(1), zero))

    # -- payload primitives on pairs (x0, x1) ------------------------------
    def _add(self, a, b):
        add = self.field._add
        return (add(a[0], b[0]), add(a[1], b[1]))

    def _mul(self, a, b):
        field = self.field
        add, mul = field._add, field._mul
        (a0, a1), (b0, b1) = a, b
        # a factor in F (no j-part) needs two products instead of five
        if field._is_zero(a1):
            return (mul(a0, b0), mul(a0, b1))
        if field._is_zero(b1):
            return (mul(a0, b0), mul(a1, b0))
        return (add(mul(a0, b0), mul(mul(self.delta.payload, a1), b1)),
                add(mul(a0, b1), mul(a1, b0)))

    def _norm(self, a):
        """x0^2 + delta x1^2, which is also the square of x0 + j x1."""
        add, mul = self.field._add, self.field._mul
        return add(mul(a[0], a[0]), mul(mul(self.delta.payload, a[1]), a[1]))

    def _inv(self, a):
        n = self._norm(a)
        if self.field._is_zero(n):
            raise NonInvertible(f"{self._format(a)} is not invertible in {self.describe()}")
        inv, mul = self.field._inv(n), self.field._mul
        return (mul(a[0], inv), mul(a[1], inv))

    def _sqrt(self, a):
        # squares in K are u^2 + delta v^2: no j-part, and x0 in F^2 + delta F^2
        field = self.field
        if not field._is_zero(a[1]):
            return None
        sol = square_span_solve(FieldElement(field, a[0]), [field.one(), self.delta])
        return None if sol is None else (sol[0].payload, sol[1].payload)

    def _is_zero(self, a):
        return self.field._is_zero(a[0]) and self.field._is_zero(a[1])

    def _is_unit(self, a):
        return not self.field._is_zero(self._norm(a))

    def _format(self, a):
        field = self.field
        x0 = field._format(a[0])
        if field._is_zero(a[1]):
            return x0
        x1 = field._format(a[1])
        j_part = "j" if a[1] == field._from_int(1) else "j*" + _wrap_k(x1)
        return j_part if field._is_zero(a[0]) else f"{x0}+{j_part}"

    def _from_int(self, n):
        return self._constants[n & 1]

    def _degrees(self, a):
        # j^2 = delta, so j weighs half of delta's degrees, rounded up
        field = self.field
        n0, d0 = field._degrees(a[0])
        if field._is_zero(a[1]):
            return (n0, d0)
        n1, d1 = field._degrees(a[1])
        nj, dj = field._degrees(self.delta.payload)
        return (max(n0, n1 + (nj + 1) // 2), max(d0, d1 + (dj + 1) // 2))

    # -- elements ------------------------------------------------------------
    def element(self, x0, x1) -> FieldElement:
        """x0 + j*x1 for elements (or ints) x0, x1 of F."""
        return FieldElement(self, (self.field.coerce(x0).payload,
                                   self.field.coerce(x1).payload))

    def j(self) -> FieldElement:
        return self.element(0, 1)

    def z(self) -> FieldElement:
        """The element 1 + j (nilpotent exactly when delta = 1)."""
        return self.element(1, 1)

    def parts(self, a) -> tuple[FieldElement, FieldElement]:
        """(x0, x1) with a = x0 + j*x1."""
        x0, x1 = self.coerce(a).payload
        return FieldElement(self.field, x0), FieldElement(self.field, x1)

    def norm(self, a) -> FieldElement:
        """x0^2 + delta x1^2; the determinant of the matrix model (= a squared)."""
        return FieldElement(self.field, self._norm(self.coerce(a).payload))

    def matrix_model(self, a) -> Matrix:
        """The 2x2 matrix [[x0, delta x1], [x1, x0]] over F."""
        x0, x1 = self.parts(a)
        return Matrix(self.field, [[x0, self.delta * x1], [x1, x0]])

    def coerce(self, x) -> FieldElement:
        """Elements of K as they are; elements of F and ints embedded as x0."""
        if isinstance(x, FieldElement) and x.field is not self and x.field == self.field:
            return self.element(x, 0)
        return super().coerce(x)

    def is_split(self) -> bool:
        return self.delta.is_square()

    def is_field(self) -> bool:
        return not self.is_split()

    def describe(self) -> str:
        return f"k({self.delta}) over {self.field.describe()}"

    def variable_elements(self):
        variables = {name: self.coerce(el)
                     for name, el in self.field.variable_elements().items()}
        variables["j"] = self.j()
        return variables

    def elements(self):
        for x0 in self.field.elements():
            for x1 in self.field.elements():
                yield self.element(x0, x1)

    def __eq__(self, other):
        return (isinstance(other, KAlgebra) and self.field == other.field
                and self.delta == other.delta)

    def __hash__(self):
        return hash(("kalgebra", self.field, self.delta))


def _wrap_k(s: str) -> str:
    return s if ("+" not in s and "/" not in s) else "(" + s + ")"


@dataclass(frozen=True)
class KModule:
    """W = Lambda^l V as a free right K-module on the basis B1."""

    hodge: HodgeData
    algebra: KAlgebra
    basis_sets: tuple[tuple[int, ...], ...]
    g_gram: Matrix
    split: bool
    volume_rescale: Optional[FieldElement] = None

    @property
    def field(self):
        return self.algebra.field

    def z(self) -> FieldElement:
        return self.algebra.z()

    def basis_vector(self, subset) -> Vector:
        return self.hodge.space.basis_vector(self.field, subset)

    def right_action(self, w: Vector, k: FieldElement) -> Vector:
        """w * (x0 + j x1) = w x0 + J(w) x1."""
        x0, x1 = self.algebra.parts(k)
        return w.scale(x0) + (self.hodge.j_matrix * w).scale(x1)

    @cached_property
    def _complements(self) -> tuple:
        # (position of S, position of S^c, payload of 1/J[S^c, S]) for each S
        # in B1; cached, since eta reads coordinates repeatedly
        space, j = self.hodge.space, self.hodge.j_matrix
        pairs = [(space.position(s), space.position(space.complement(s)))
                 for s in self.basis_sets]
        return tuple((p, q, j[q, p].inverse().payload) for p, q in pairs)

    def k_coordinates(self, w: Vector) -> list[FieldElement]:
        """Coordinates of w over the K-basis B1: J e_S = J[S^c, S] e_(S^c)
        (`build_module` checks it), so x0 = w_S and x1 = w_(S^c) / J[S^c, S].
        The pairs are built on payloads, with no product by a zero or a one."""
        field, algebra, x = self.field, self.algebra, w.payloads
        mul, is_zero, one = field._mul, field._is_zero, field._from_int(1)
        return [FieldElement(algebra, (x[p], x[q] if inv == one or is_zero(x[q])
                                       else mul(x[q], inv)))
                for p, q, inv in self._complements]

    def from_k_coordinates(self, coords) -> Vector:
        w = Vector.zero(self.field, self.hodge.space.dim)
        for s, k in zip(self.basis_sets, coords):
            w = w + self.right_action(self.basis_vector(s), self.algebra.coerce(k))
        return w

    def g_value(self, u: Vector, v: Vector) -> FieldElement:
        """g(u, v) = Lh(u, v) + j Pf(u, v)."""
        lh = bilinear(self.hodge.lh_gram, u, v)
        pf = bilinear(self.hodge.pf_gram, u, v)
        return self.algebra.element(lh, pf)


def build_module(data: HodgeData) -> KModule:
    """Turn Lambda^l V into a free K-module over an orthogonal basis of V.

    Requires a diagonal Gram matrix (the free-basis statement is tied to an
    orthogonal basis); checks that J carries every B1 wedge e_S to a nonzero
    multiple of e_(S^c), reading column S of J.
    """
    if data.space.n != 2 * data.space.ell:
        raise NotMiddleDegree("the K-module lives on the middle exterior power")
    if not data.form.gram.is_diagonal():
        raise KAlgebraError("build the module over an orthogonal basis "
                            "(diagonal Gram matrix); orthogonalize first")
    algebra = KAlgebra(data.field, data.delta)
    space, j, is_zero = data.space, data.j_matrix.rows, data.field._is_zero
    basis_sets = tuple(s for s in space.sets if 1 in s)
    for s in basis_sets:
        p, c = space.position(s), space.complement(s)
        q = space.position(c)
        if is_zero(j[q][p]) or any(not is_zero(j[i][p]) for i in range(space.dim) if i != q):
            raise KAlgebraError(f"J does not map wedge {s} to a nonzero multiple of wedge {c}")

    # g on two wedge basis vectors pairs the payloads of Lh and Pf
    b1 = [space.position(s) for s in basis_sets]
    lh, pf = data.lh_gram.rows, data.pf_gram.rows
    gram = Matrix._from_payloads(algebra, [[(lh[i][k], pf[i][k]) for k in b1] for i in b1])
    return KModule(hodge=data, algebra=algebra, basis_sets=basis_sets,
                   g_gram=gram, split=algebra.is_split())


def normalize_split(module: KModule) -> KModule:
    """Rescale the volume by sqrt(delta) so that delta = 1 and z is nilpotent."""
    root = module.hodge.delta.sqrt()
    if root is None:
        raise NotSplit(f"delta = {module.hodge.delta} is not a square")
    if module.hodge.delta.is_one():
        return module
    new_scale = module.hodge.volume_scale * root
    rebuilt = build_module(hodge(module.hodge.form, new_scale))
    require(rebuilt.hodge.delta.is_one(), "internal: rescaling the volume left delta != 1")
    return KModule(hodge=rebuilt.hodge, algebra=rebuilt.algebra,
                   basis_sets=rebuilt.basis_sets, g_gram=rebuilt.g_gram,
                   split=True, volume_rescale=root)


def wz_submodule(module: KModule) -> tuple[list[Vector], Matrix]:
    """The basis {w z : w in B1} of Wz and the matrix of W/Wz -> Wz, w -> wz.

    Verifies that g vanishes identically on Wz x Wz, that Wz meets the span
    of B1 trivially (so B1 coordinatizes the quotient), and that j fixes Wz
    pointwise; requires the normalized split case (delta = 1).
    """
    if not module.split:
        raise NotSplit("Wz needs a split algebra")
    if not module.hodge.delta.is_one():
        raise NotSplit("normalize the split module first (delta must be 1)")
    field, j = module.field, module.hodge.j_matrix
    # w z = w + J(w) for z = 1 + j, so the B1 wedges times z are the columns
    # of B1 + J B1: one product
    b1 = Matrix.from_columns(field, [module.basis_vector(s) for s in module.basis_sets])
    wz_mat = b1 + j * b1
    m = wz_mat.ncols
    require(Matrix.block([[wz_mat, b1]]).rank() == 2 * m,
            "Wz does not complement the span of B1")
    require(j * wz_mat == wz_mat, "j must fix Wz pointwise")
    wz_rows = wz_mat.transpose()
    require((wz_rows * module.hodge.lh_gram * wz_mat).is_zero()
            and (wz_rows * module.hodge.pf_gram * wz_mat).is_zero(), "g must vanish on Wz")
    # rho_z sends the class of the i-th B1 wedge to the i-th basis vector of Wz;
    # solve honestly, all columns by one elimination, to confirm it is the
    # identity matrix (each image lies in the span by construction, so solve
    # never returns None)
    rho = wz_mat.solve(wz_mat)
    require(rho == Matrix.identity(field, m), "rho_z is not the identity on the B1 classes")
    return wz_mat.columns(), rho
