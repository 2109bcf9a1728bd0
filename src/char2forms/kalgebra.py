"""The quadratic algebra K = F + jF with j^2 = delta, and its module.

K is represented by coordinate pairs (x0, x1) standing for x0 + j*x1; the
2x2 matrix picture [[x0, delta*x1], [x1, x0]] is kept only as a test-time
embedding.  When delta is a non-square K is an inseparable quadratic field
extension; when delta is a square K is split: after rescaling the volume so
that delta = 1, z = 1 + j is nilpotent and K = F[z]/(z^2).

The middle exterior power W = Lambda^l V becomes a free right K-module via
w * j := J(w).  On an orthogonal basis the wedges whose index set contains 1
form a K-basis B1, and the K-valued form

    g(u, v) = Lh(u, v) + j * Pf(u, v)

is diagonal on B1.  (The sign (-1)^l that the general formula carries in odd
characteristic is 1 here and is dropped.)  In the split case Wz is a totally
g-isotropic K-submodule with W/Wz isomorphic to Wz via w + Wz -> wz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import Char2FormsError, require
from .exterior import HodgeData, hodge
from .fields import FieldElement, _power, parse_expression, square_span_solve
from .linalg import Matrix, SingularMatrix, Vector, bilinear


class KAlgebraError(Char2FormsError):
    pass


class NonInvertible(KAlgebraError):
    pass


class NotSplit(KAlgebraError):
    pass


class NotMiddleDegree(KAlgebraError):
    pass


class KAlgebra:
    """The ring F + jF with j^2 = delta over a characteristic-2 field."""

    def __init__(self, field, delta):
        delta = field.coerce(delta)
        if delta.is_zero():
            raise KAlgebraError("delta must be nonzero")
        self.field = field
        self.delta = delta

    def element(self, x0, x1) -> "KElement":
        return KElement(self, self.field.coerce(x0), self.field.coerce(x1))

    def zero(self) -> "KElement":
        return self.element(0, 0)

    def one(self) -> "KElement":
        return self.element(1, 0)

    def j(self) -> "KElement":
        return self.element(0, 1)

    def z(self) -> "KElement":
        """The element 1 + j (nilpotent exactly when delta = 1)."""
        return self.element(1, 1)

    def from_int(self, n: int) -> "KElement":
        return self.element(n, 0)

    def coerce(self, x) -> "KElement":
        if isinstance(x, KElement):
            if x.algebra != self:
                raise KAlgebraError("element of a different K-algebra")
            return x
        if isinstance(x, FieldElement):
            return self.element(x, 0)
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot interpret {x!r} as an element of {self.describe()}")

    def is_unit(self, x: "KElement") -> bool:
        return not x.norm().is_zero()

    def is_split(self) -> bool:
        return self.delta.is_square()

    def is_field(self) -> bool:
        return not self.is_split()

    def describe(self) -> str:
        return f"k({self.delta}) over {self.field.describe()}"

    def parse(self, text: str) -> "KElement":
        variables = {name: self.coerce(el)
                     for name, el in self.field.variable_elements().items()}
        variables["j"] = self.j()
        return parse_expression(text, variables, self)

    def elements(self):
        for x0 in self.field.elements():
            for x1 in self.field.elements():
                yield self.element(x0, x1)

    def __eq__(self, other):
        return (isinstance(other, KAlgebra) and self.field == other.field
                and self.delta == other.delta)

    # explicit: dropping it along with Field.__ne__ measured slower on eta runs
    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(("kalgebra", self.field, self.delta))


class KElement:
    __slots__ = ("algebra", "x0", "x1")

    def __init__(self, algebra: KAlgebra, x0: FieldElement, x1: FieldElement):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)

    def __setattr__(self, name, value):
        raise AttributeError("K elements are immutable")

    def _coerce(self, other) -> "KElement":
        try:
            return self.algebra.coerce(other)
        except TypeError:
            return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return KElement(self.algebra, self.x0 + other.x0, self.x1 + other.x1)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.algebra.delta
        return KElement(self.algebra,
                        self.x0 * other.x0 + d * self.x1 * other.x1,
                        self.x0 * other.x1 + self.x1 * other.x0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __neg__(self):
        return self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return _power(self, n, self.algebra.one())

    def norm(self) -> FieldElement:
        """x0^2 + delta x1^2; the determinant of the matrix model (= this element squared)."""
        return self.x0 * self.x0 + self.algebra.delta * self.x1 * self.x1

    def inverse(self) -> "KElement":
        n = self.norm()
        if n.is_zero():
            raise NonInvertible(f"{self} is not invertible in {self.algebra.describe()}")
        inv = n.inverse()
        return KElement(self.algebra, self.x0 * inv, self.x1 * inv)

    def is_zero(self) -> bool:
        return self.x0.is_zero() and self.x1.is_zero()

    def is_one(self) -> bool:
        return self.x0.is_one() and self.x1.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def matrix_model(self) -> Matrix:
        """The 2x2 matrix [[x0, delta x1], [x1, x0]] over F."""
        return Matrix(self.algebra.field,
                      [[self.x0, self.algebra.delta * self.x1], [self.x1, self.x0]])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.x0 == other.x0 and self.x1 == other.x1

    def __hash__(self):
        return hash((self.algebra, self.x0, self.x1))

    def __str__(self):
        if self.x1.is_zero():
            return str(self.x0)
        j_part = "j" if self.x1.is_one() else "j*" + _wrap_k(str(self.x1))
        if self.x0.is_zero():
            return j_part
        return f"{self.x0}+{j_part}"

    __repr__ = __str__


def _wrap_k(s: str) -> str:
    return s if ("+" not in s and "/" not in s) else "(" + s + ")"


def k_is_square(a: KElement) -> bool:
    """Squares in K are u^2 + delta v^2: no j-part, and x0 in F^2 + delta F^2."""
    if not a.x1.is_zero():
        return False
    field = a.algebra.field
    return square_span_solve(a.x0, [field.one(), a.algebra.delta]) is not None


def k_sqrt(a: KElement) -> Optional[KElement]:
    if not a.x1.is_zero():
        return None
    field = a.algebra.field
    sol = square_span_solve(a.x0, [field.one(), a.algebra.delta])
    if sol is None:
        return None
    return a.algebra.element(sol[0], sol[1])


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

    def z(self) -> KElement:
        return self.algebra.z()

    def basis_vector(self, subset) -> Vector:
        return self.hodge.space.basis_vector(self.field, subset)

    def right_action(self, w: Vector, k: KElement) -> Vector:
        """w * (x0 + j x1) = w x0 + J(w) x1."""
        return w.scale(k.x0) + (self.hodge.j_matrix * w).scale(k.x1)

    def _phi_inverse(self) -> Matrix:
        # inverse of the F-matrix whose columns pair each B1 wedge with its
        # J-image; cached, since eta solves against it repeatedly
        cached = getattr(self, "_phi_inverse_cache", None)
        if cached is None:
            cols = []
            for s in self.basis_sets:
                e = self.basis_vector(s)
                cols.append(e)
                cols.append(self.hodge.j_matrix * e)
            try:
                cached = Matrix.from_columns(self.field, cols).inverse()
            except SingularMatrix:
                raise KAlgebraError("internal: B1 failed to span the module") from None
            object.__setattr__(self, "_phi_inverse_cache", cached)
        return cached

    def k_coordinates(self, w: Vector) -> list[KElement]:
        """Coordinates of w over the K-basis B1 (solve in the F-picture)."""
        sol = self._phi_inverse() * w
        return [self.algebra.element(sol[2 * i], sol[2 * i + 1])
                for i in range(len(self.basis_sets))]

    def from_k_coordinates(self, coords) -> Vector:
        w = Vector.zero(self.field, self.hodge.space.dim)
        for s, k in zip(self.basis_sets, coords):
            w = w + self.right_action(self.basis_vector(s), self.algebra.coerce(k))
        return w

    def g_value(self, u: Vector, v: Vector) -> KElement:
        """g(u, v) = Lh(u, v) + j Pf(u, v)."""
        lh = bilinear(self.hodge.lh_gram, u, v)
        pf = bilinear(self.hodge.pf_gram, u, v)
        return self.algebra.element(lh, pf)


def build_module(data: HodgeData) -> KModule:
    """Turn Lambda^l V into a free K-module over an orthogonal basis of V.

    Requires a diagonal Gram matrix (the free-basis statement is tied to an
    orthogonal basis); checks that J carries every B1 wedge into the span of
    the complementary wedges.
    """
    if data.space.n != 2 * data.space.ell:
        raise NotMiddleDegree("the K-module lives on the middle exterior power")
    if not data.form.gram.is_diagonal():
        raise KAlgebraError("build the module over an orthogonal basis "
                            "(diagonal Gram matrix); orthogonalize first")
    field = data.field
    algebra = KAlgebra(field, data.delta)
    basis_sets = tuple(s for s in data.space.sets if 1 in s)
    other = {s for s in data.space.sets if 1 not in s}
    for s in basis_sets:
        image = data.j_matrix * data.space.basis_vector(field, s)
        support = {data.space.sets[i] for i, e in enumerate(image) if not e.is_zero()}
        if not support <= other:
            raise KAlgebraError(f"J does not map wedge {s} into the complementary span")

    def g_entry(s, t):
        u = data.space.basis_vector(field, s)
        v = data.space.basis_vector(field, t)
        return algebra.element(bilinear(data.lh_gram, u, v), bilinear(data.pf_gram, u, v))

    gram = Matrix(algebra, [[g_entry(s, t) for t in basis_sets] for s in basis_sets])
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
    field = module.field
    z = module.z()
    basis = [module.right_action(module.basis_vector(s), z) for s in module.basis_sets]
    m = len(basis)
    combined = Matrix.from_columns(
        field, basis + [module.basis_vector(s) for s in module.basis_sets])
    require(combined.rank() == 2 * m, "Wz does not complement the span of B1")
    for u in basis:
        require(module.hodge.j_matrix * u == u, "j must fix Wz pointwise")
        for v in basis:
            require(module.g_value(u, v).is_zero(), "g must vanish on Wz")
    # rho_z sends the class of the i-th B1 wedge to the i-th basis vector of Wz;
    # solve honestly to confirm it is the identity matrix.
    # each image lies in the span by construction, so solve never returns None
    wz_mat = Matrix.from_columns(field, basis)
    rho = Matrix.from_columns(field, [wz_mat.solve(w) for w in basis])
    require(rho == Matrix.identity(field, m), "rho_z is not the identity on the B1 classes")
    return basis, rho
