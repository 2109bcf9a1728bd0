"""Exact arithmetic for towers of characteristic-2 fields.

Three kinds of fields are supported:

- ``GF2``: the prime field with two elements,
- ``GF2k``: Galois fields GF(2^k) given by an irreducible polynomial over GF(2),
- ``RationalFunctionField``: the rational-function extension F -> F(t), which
  can be iterated to produce non-perfect fields such as F2(t) and F2(t)(u).

Elements are immutable value objects carrying a reference to their field.
Rational functions are kept in canonical form (monic denominator, gcd one),
so equality is plain representational equality.  F2(t) stores numerator and
denominator as int bit masks (bit i is the coefficient of t^i), the packed
GF(2)[x] representation of Brent, Gaudry, Thome and Zimmermann ("Faster
multiplication in GF(2)[x]", ANTS 2008), and computes with the ``_gf2x_*``
helpers below.  Their products, gcds and exact quotients have one base case,
as in that paper: when both operands are below 2^5 (degree at most 4), the
result is entry a << 5 | b of a 1,024-entry table built at import; larger
operands take the shift-and-xor loops.  Over two rounds of the benchmark's
`eta` workload 99% of the calls of each kernel read the table, and 84-93%
over `ratfunc`.

Every other rational-function field (F2(t)(u), GF(2^k)(t)) keeps `Poly`
numerators and denominators over its base field.  A `Poly` stores the
payloads of its coefficients, not elements, and computes with the base
field's payload primitives, so a nested tower such as F2(t)(u) runs on
packed coefficients without wrapping them, and its F2(t) coefficients meet
the same tables.

Sums, products and inverses of rational functions follow Henrici's rules
(P. Henrici, "A subroutine for computations with rational numbers", J. ACM
3(1), 1956; Knuth, TAOCP vol. 2, 4.5.1): they take gcds only of the factors
that can cancel, never of the full cross products, and skip them where the
result is reduced by construction.

Every field also exposes the coordinates of an element over its subfield of
squares (`square_coordinates`); the linear algebra on those coordinates,
which the defect computations downstream are built on, is in `linalg`.
This is the bottom layer of the package: it imports only `errors`.
"""

from __future__ import annotations

import functools
import re
from typing import Iterator, Optional

from .errors import DescriptorMismatch, FieldError


class DivisionByZero(FieldError, ZeroDivisionError):
    pass


class ParseError(FieldError):
    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# GF(2)[x] helpers on plain int bit masks (bit i = coefficient of x^i)

def _small_tables():
    """The base case of `_gf2x_mul`, `_gf2x_gcd` and `_gf2x_divexact`:
    entry a << 5 | b, for a, b < 2^5, is a*b, gcd(a, b) and a/b.

    Products come by doubling, a*b = (a*(b >> 1)) x + a*(b & 1), one xor per
    entry.  Gcds come by gcd(a, b) = gcd(b, a mod b), filled in order of b so
    that the entry read is already there; a mod b is one xor away from the
    remainder of a smaller a.  The quotient table holds q at a = q*b only and
    -1 everywhere else, b = 0 included.  Built in about 0.5 ms at import;
    the three tuples and their ints take about 28 KB.
    """
    n, bits = 32, 5
    mul = [0] * (n * n)
    rem = [a for a in range(n) for _ in range(n)]  # a mod b = a while deg a < deg b
    gcd = rem[:]  # gcd(a, 0) = a
    quo = [-1] * (n * n)
    for a in range(n):
        row = a << bits
        for b in range(1, n):
            mul[row | b] = mul[row | b >> 1] << 1 ^ (a if b & 1 else 0)
            shift = a.bit_length() - b.bit_length()
            if shift >= 0:
                rem[row | b] = rem[(a ^ b << shift) << bits | b]
    for b in range(1, n):
        for a in range(n):
            gcd[a << bits | b] = gcd[b << bits | rem[a << bits | b]]
            p = mul[a << bits | b]
            if p < n:
                quo[p << bits | b] = a
    return tuple(mul), tuple(gcd), tuple(quo)


_SMALL_MUL, _SMALL_GCD, _SMALL_QUO = _small_tables()


def _gf2x_degree(a: int) -> int:
    return a.bit_length() - 1


def _gf2x_mul(a: int, b: int) -> int:
    if (a | b) < 32:
        return _SMALL_MUL[a << 5 | b]
    # one shifted copy of the longer operand per set bit of the shorter
    if a.bit_length() < b.bit_length():
        a, b = b, a
    r = 0
    while b:
        low = b & -b
        r ^= a << (low.bit_length() - 1)
        b ^= low
    return r


def _gf2x_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    da = a.bit_length()
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length()
    return a


def _gf2x_mulmod(a: int, b: int, m: int) -> int:
    return _gf2x_mod(_gf2x_mul(a, b), m)


@functools.lru_cache(maxsize=None)
def _gf2x_tables(k: int, modulus: int):
    """Product and inverse tables on the payloads of GF(2)[x]/(modulus).

    Built from the powers of a primitive element, so the 2^(2k) products cost
    table lookups instead of reductions: about 6 ms for k = 8, against 0.13 s
    for one `_gf2x_mulmod` per entry.  Entry 0 of the inverse table is 0.
    """
    q = 1 << k
    for g in range(1, q):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = _gf2x_mulmod(x, g, modulus)
        if len(powers) == q - 1:
            break
    log = [0] * q
    for i, x in enumerate(powers):
        log[x] = i
    logs = log[1:]
    doubled = powers + powers
    product = ((0,) * q,) + tuple((0,) + tuple(doubled[i + j] for j in logs) for i in logs)
    inverse = (0,) + tuple(powers[-i] for i in logs)
    return product, inverse


def _gf2x_gcd(a: int, b: int) -> int:
    if (a | b) < 32:
        return _SMALL_GCD[a << 5 | b]
    while b:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


def _gf2x_divexact(a: int, b: int) -> int:
    """a / b, for a divisible by b; otherwise the loop raises ValueError
    (a negative shift), since the table holds only divisible pairs."""
    if (a | b) < 32:
        q = _SMALL_QUO[a << 5 | b]
        if q >= 0:
            return q
    q = 0
    db = b.bit_length()
    while a:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q


def _gf2x_split(a: int) -> tuple[int, int]:
    """(e, o) with a(x) = e(x)^2 + x*o(x)^2: the even and the odd bits of a."""
    e = o = 0
    i = 0
    while a:
        e |= (a & 1) << i
        o |= ((a >> 1) & 1) << i
        a >>= 2
        i += 1
    return e, o


def _gf2x_format(a: int, var: str) -> str:
    if a == 0:
        return "0"
    terms = []
    for d in range(_gf2x_degree(a), -1, -1):
        if (a >> d) & 1:
            terms.append("1" if d == 0 else var if d == 1 else f"{var}^{d}")
    return "+".join(terms)


def _gf2x_invmod(a: int, m: int) -> int:
    # extended Euclid on bit polynomials
    t0, t1 = 0, 1
    r0, r1 = m, a
    while r1:
        shift = _gf2x_degree(r0) - _gf2x_degree(r1)
        if shift < 0:
            r0, r1 = r1, r0
            t0, t1 = t1, t0
            continue
        r0 ^= r1 << shift
        t0 ^= t1 << shift
    if r0 != 1:
        raise DivisionByZero("element is not invertible")
    return t0


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def gf2_poly_is_irreducible(mask: int) -> bool:
    """Irreducibility of a polynomial over GF(2), given as a bit mask."""
    k = _gf2x_degree(mask)
    if k <= 0:
        return False
    if mask & 1 == 0:  # divisible by x
        return k == 1
    # x^(2^k) == x mod mask, and gcd(x^(2^(k/p)) + x, mask) == 1 for primes p|k
    x = _gf2x_mod(0b10, mask)
    frob = [x]
    cur = x
    for _ in range(k):
        cur = _gf2x_mulmod(cur, cur, mask)
        frob.append(cur)
    if frob[k] != x:
        return False
    for p in _prime_factors(k):
        if _gf2x_gcd(frob[k // p] ^ x, mask) != 1:
            return False
    return True


# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"^(?:[01]|[a-z](?:\^[0-9]+)?)$")


def _wrap(s: str) -> str:
    return s if _ATOM_RE.match(s) else "(" + s + ")"


class FieldElement:
    """An element of a tower field or of a K-algebra; immutable, canonical."""

    __slots__ = ("field", "payload")

    def __init__(self, field: "Field", payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("field elements are immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise DescriptorMismatch(
                    f"mixed fields: {self.field.describe()} vs {other.field.describe()}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.payload, other.payload))

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return self

    def __pow__(self, n: int):
        """Square-and-multiply; a negative n inverts the base first.

        The first factor is taken as it is and the base is not squared past
        the top bit, so x**n makes as few products as the bits of n need.
        """
        if not isinstance(n, int):
            return NotImplemented
        field = self.field
        if n == 0:
            return field.one()
        base = (self if n > 0 else self.inverse()).payload
        n = abs(n)
        result = None
        while True:
            if n & 1:
                result = base if result is None else field._mul(result, base)
            n >>= 1
            if not n:
                return FieldElement(field, result)
            base = field._mul(base, base)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {self.field.describe()}")
        return FieldElement(self.field, self.field._inv(self.payload))

    def frobenius(self) -> "FieldElement":
        """The Frobenius endomorphism s -> s^2."""
        return self * self

    def sqrt(self) -> Optional["FieldElement"]:
        """A square root, or None when the element is not a square."""
        root = self.field._sqrt(self.payload)
        return None if root is None else FieldElement(self.field, root)

    def is_square(self) -> bool:
        return self.field._sqrt(self.payload) is not None

    def is_zero(self) -> bool:
        return self.field._is_zero(self.payload)

    def is_one(self) -> bool:
        return self == self.field.one()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self):
        return hash((self.field, self.payload))

    def __str__(self):
        return self.field._format(self.payload)

    __repr__ = __str__


class Field:
    """Base class: a field descriptor plus payload-level arithmetic."""

    variables: tuple[str, ...] = ()
    order: Optional[int] = None  # None means infinite

    # -- payload primitives supplied by subclasses -------------------------
    def _add(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _sqrt(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _is_unit(self, a) -> bool:
        # in a field every nonzero element is a unit; rings override this
        return not self._is_zero(a)

    def _format(self, a) -> str:
        raise NotImplementedError

    def _from_int(self, n: int):
        """The payload of the image of the integer n (its parity)."""
        raise NotImplementedError

    def _degrees(self, a) -> tuple[int, int]:
        """(numerator, denominator) degree of the payload a: the largest
        degree, in any variable of the tower, of a numerator (resp. a
        denominator) at any level; (0, 0) for a constant."""
        return (0, 0)

    # -- common element-level interface ------------------------------------
    def zero(self) -> FieldElement:
        return self.from_int(0)

    def one(self) -> FieldElement:
        return self.from_int(1)

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, self._from_int(n))

    def coerce(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.field is not self and x.field != self:
                raise DescriptorMismatch(
                    f"element of {x.field.describe()} used in {self.describe()}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot interpret {x!r} as an element of {self.describe()}")

    def is_unit(self, x: FieldElement) -> bool:
        return self._is_unit(x.payload)

    def describe(self) -> str:
        raise NotImplementedError

    def embed(self, a: FieldElement) -> FieldElement:
        """Lift an element of a field lower in this tower into this field."""
        if a.field == self:
            return a
        raise DescriptorMismatch(
            f"{a.field.describe()} does not embed into {self.describe()}")

    def variable_elements(self) -> dict[str, FieldElement]:
        return {}

    def elements(self) -> Iterator[FieldElement]:
        raise FieldError(f"{self.describe()} is not finite")

    def random_element(self, rng, size: int = 2) -> FieldElement:
        raise NotImplementedError

    def parse(self, text: str) -> FieldElement:
        return parse_expression(text, self.variable_elements(), self)

    # -- decomposition over the subfield of squares ------------------------
    def square_monomials(self) -> tuple[tuple[str, ...], ...]:
        """Basis monomials of F over F^2, as tuples of variable names."""
        raise NotImplementedError

    def monomial_value(self, monomial: tuple[str, ...]) -> FieldElement:
        value = self.one()
        for name in monomial:
            value = value * self.variable_elements()[name]
        return value

    def square_coordinates(self, a: FieldElement) -> tuple[FieldElement, ...]:
        """Elements e_m with a = sum over monomials m of m * e_m^2."""
        raise NotImplementedError

    # explicit: the inherited __ne__ measured slower on descriptor comparisons
    def __ne__(self, other):
        return not self.__eq__(other)


class GF2(Field):
    """The prime field GF(2); payloads are the ints 0 and 1."""

    order = 2

    def _add(self, a, b):
        return a ^ b

    def _mul(self, a, b):
        return a & b

    def _inv(self, a):
        return a

    def _sqrt(self, a):
        return a

    def _is_zero(self, a):
        return a == 0

    def _is_unit(self, a):
        return a != 0

    def _format(self, a):
        return str(a)

    def _from_int(self, n):
        return n & 1

    def describe(self):
        return "gf2"

    def elements(self):
        yield self.from_int(0)
        yield self.from_int(1)

    def random_element(self, rng, size=2):
        return self.from_int(rng.randrange(2))

    def tables(self):
        """(product table, inverse table) on payloads; see `GF2k.tables`."""
        return ((0, 0), (0, 1)), (0, 1)

    def square_monomials(self):
        return ((),)

    def square_coordinates(self, a):
        return (self.coerce(a),)

    def __eq__(self, other):
        return isinstance(other, GF2)

    def __hash__(self):
        return hash("gf2")


class GF2k(Field):
    """GF(2^k) as GF(2)[x]/(modulus); payloads are ints below 2^k.

    The residue class of x is exposed as the generator, written ``g``.  Up to
    order 256, products and inverses are lookups in tables shared by every
    instance with the same modulus.
    """

    variables = ("g",)

    def __init__(self, k: int, modulus: int):
        if not 1 <= k <= 16:
            raise FieldError("gf2k supports 1 <= k <= 16")
        if _gf2x_degree(modulus) != k:
            raise FieldError(f"modulus {modulus:#b} does not have degree {k}")
        if not gf2_poly_is_irreducible(modulus):
            raise FieldError(f"modulus {modulus:#b} is not irreducible over GF(2)")
        self.k = k
        self.modulus = modulus
        self.order = 1 << k
        self._product, self._inverse = _gf2x_tables(k, modulus) if k <= 8 else (None, None)
        self._hash = hash(("gf2k", k, modulus))

    def _add(self, a, b):
        return a ^ b

    def _mul(self, a, b):
        product = self._product
        if product is None:
            return _gf2x_mulmod(a, b, self.modulus)
        return product[a][b]

    def _inv(self, a):
        if a and self._inverse is not None:
            return self._inverse[a]
        return _gf2x_invmod(a, self.modulus)

    def _sqrt(self, a):
        # Frobenius is bijective; its inverse is k-1 further squarings.
        for _ in range(self.k - 1):
            a = self._mul(a, a)
        return a

    def _is_zero(self, a):
        return a == 0

    def _is_unit(self, a):
        return a != 0

    def _format(self, a):
        return _gf2x_format(a, "g")

    def _from_int(self, n):
        return n & 1

    def from_bits(self, bits: int) -> FieldElement:
        if not 0 <= bits < self.order:
            raise FieldError(f"bit pattern {bits} out of range for {self.describe()}")
        return FieldElement(self, bits)

    def tables(self):
        """(product table, inverse table) on payloads, for order <= 256."""
        if self._product is None:
            raise FieldError(f"{self.describe()} has no product table above order 256")
        return self._product, self._inverse

    @property
    def generator(self) -> FieldElement:
        return FieldElement(self, 0b10 if self.k > 1 else self.modulus ^ 0b10)

    def describe(self):
        return f"gf2k:{self.k}:{self.modulus}"

    def embed(self, a):
        if a.field == self:
            return a
        if isinstance(a.field, GF2):
            return FieldElement(self, a.payload)
        raise DescriptorMismatch(
            f"{a.field.describe()} does not embed into {self.describe()}")

    def variable_elements(self):
        return {"g": self.generator}

    def elements(self):
        for bits in range(self.order):
            yield FieldElement(self, bits)

    def random_element(self, rng, size=2):
        return FieldElement(self, rng.randrange(self.order))

    def square_monomials(self):
        return ((),)

    def square_coordinates(self, a):
        return (self.coerce(a).sqrt(),)

    def __eq__(self, other):
        return isinstance(other, GF2k) and self.k == other.k and self.modulus == other.modulus

    def __hash__(self):
        return self._hash


class Poly:
    """Dense polynomial over a base field: the payloads of its coefficients,
    low to high degree, with no trailing zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        coeffs = list(coeffs)
        while coeffs and field._is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field._from_int(1),))

    @classmethod
    def x(cls, field):
        return cls(field, (field._from_int(0), field._from_int(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> FieldElement:
        if self.is_zero():
            raise FieldError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.coeffs[-1])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field._add
        return Poly(self.field, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    __sub__ = __add__

    def __mul__(self, other):
        """The product on the nonzero terms of both factors: a factor with one
        term scales the other (a factor one gives the other as it is), and
        each output coefficient starts from its first product, so no product
        or sum has a zero operand."""
        field = self.field
        short, long_ = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        if not short.coeffs:
            return short
        mul, is_zero = field._mul, field._is_zero
        if len(short.coeffs) == 1:  # a constant, nonzero as a leading coefficient
            c = short.coeffs[0]
            if c == field._from_int(1):
                return long_
            return Poly(field, [y if is_zero(y) else mul(c, y) for y in long_.coeffs])
        terms = [(i, a) for i, a in enumerate(short.coeffs) if not is_zero(a)]
        others = [(j, b) for j, b in enumerate(long_.coeffs) if not is_zero(b)]
        if len(others) == 1:
            terms, others = others, terms
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        if len(terms) == 1:
            (i, a), = terms
            for j, b in others:
                out[i + j] = mul(a, b)
        else:
            add = field._add
            for i, a in terms:
                for j, b in others:
                    p, t = mul(a, b), out[i + j]
                    out[i + j] = p if t is None else add(t, p)
        zero = field._from_int(0)
        return Poly(field, [zero if t is None else t for t in out])

    def scale(self, s) -> "Poly":
        """The product with the coefficient payload s."""
        mul = self.field._mul
        return Poly(self.field, [mul(c, s) for c in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        n = len(other.coeffs)
        dq = len(self.coeffs) - n
        if dq < 0:
            return Poly(field, ()), self
        add, mul = field._add, field._mul
        lead_inv = field._inv(other.coeffs[-1])
        rem = list(self.coeffs)
        quot = [field._from_int(0)] * (dq + 1)
        for i in range(dq, -1, -1):
            c = mul(rem[n + i - 1], lead_inv)
            if not field._is_zero(c):
                quot[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = add(rem[i + j], mul(c, b))
            rem.pop()
        return Poly(field, quot), Poly(field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field._inv(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def sqrt(self) -> Optional["Poly"]:
        # p = q^2 in char 2 means odd coefficients vanish and even ones are squares
        roots = []
        for i, c in enumerate(self.coeffs):
            if i % 2:
                if not self.field._is_zero(c):
                    return None
            else:
                r = self.field._sqrt(c)
                if r is None:
                    return None
                roots.append(r)
        return Poly(self.field, roots)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.coeffs == other.coeffs
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def format(self, var: str) -> str:
        if self.is_zero():
            return "0"
        field = self.field
        fmt, is_zero, one = field._format, field._is_zero, field._from_int(1)
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if is_zero(c):
                continue
            if d == 0:
                terms.append(fmt(c))
            else:
                power = var if d == 1 else f"{var}^{d}"
                terms.append(power if c == one else _wrap(fmt(c)) + power)
        return "+".join(terms)

    def __repr__(self):
        return self.format("x")


def _poly_bits(p: Poly) -> int:
    """The bit mask of a polynomial over GF(2)."""
    return sum(c << i for i, c in enumerate(p.coeffs))


def _f2t_reduce(num: int, den: int) -> tuple[int, int]:
    """The canonical F2(t) payload of num/den (bit masks, den nonzero)."""
    if num == 0:
        return (0, 1)
    if den != 1:
        g = _gf2x_gcd(den, num)
        if g != 1:
            return (_gf2x_divexact(num, g), _gf2x_divexact(den, g))
    return (num, den)


class RationalFunctionField(Field):
    """The field F(t) of rational functions over a base field.

    Payloads are canonical pairs (numerator, denominator): the denominator is
    monic, gcd(num, den) = 1, and zero is (0, 1).  Over GF(2), i.e. for F2(t),
    the pair is two int bit masks (bit i is the coefficient of t^i) and the
    arithmetic runs on the masks.  Over any other base, as in F2(t)(u) or
    GF(2^k)(t), the pair is two `Poly`s over the base field, whose
    coefficients are base-field payloads.  There a denominator of degree 0
    is 1, because it is monic.

    Both representations follow Henrici's rules for a/b op c/d, which keep
    results canonical without a gcd of the cross products:

    - sum: b = d reduces a + c by its gcd with d; b = 1, d = 1 or
      gcd(b, d) = 1 needs no gcd, (a d + c b)/(b d); otherwise, with
      g = gcd(b, d), a (d/g) + c (b/g) is reduced by its gcd with g only;
    - product: gcd(a, d) and gcd(c, b) are cancelled before multiplying,
      each skipped when its denominator is 1, so two polynomials make one
      product;
    - inverse: b/a is reduced already and is only rescaled to a monic
      denominator.

    The payloads of 0 and 1 are built once, in the constructor, and
    `_from_int` returns those two constants: the linear-algebra kernels ask
    for them on every call.  Variable names are single letters, distinct
    throughout the tower ('g' is reserved for gf2k towers).
    """

    def __init__(self, base: Field, var: str):
        if not (len(var) == 1 and var.isalpha() and var.islower()):
            raise FieldError(f"variable name must be a single lowercase letter: {var!r}")
        if var in base.variables or var == "g":
            raise FieldError(f"variable {var!r} already used in this tower")
        self.base = base
        self.var = var
        self.variables = base.variables + (var,)
        self.packed = isinstance(base, GF2)
        self._constants = (self._constant(base._from_int(0)), self._constant(base._from_int(1)))

    def _canonical(self, num: Poly, den: Poly):
        if den.is_zero():
            raise DivisionByZero(f"zero denominator in {self.describe()}")
        base = self.base
        if num.is_zero():
            return (Poly.zero(base), Poly.one(base))
        one = base._from_int(1)
        if den.degree == 0:
            inv = base._inv(den.coeffs[0])
            if inv == one:
                return (num, den)
            return (num.scale(inv), Poly.one(base))
        if num.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        lead_inv = base._inv(den.coeffs[-1])
        if lead_inv == one:
            return (num, den)
        return (num.scale(lead_inv), den.scale(lead_inv))

    def from_fraction(self, num: Poly, den: Poly) -> FieldElement:
        if self.packed:
            if den.is_zero():
                raise DivisionByZero(f"zero denominator in {self.describe()}")
            return FieldElement(self, _f2t_reduce(_poly_bits(num), _poly_bits(den)))
        return FieldElement(self, self._canonical(num, den))

    def _add(self, a, b):
        an, ad = a
        bn, bd = b
        if self.packed:
            if ad == bd:
                return _f2t_reduce(an ^ bn, ad)
            if ad == 1:
                return (_gf2x_mul(an, bd) ^ bn, bd)
            if bd == 1:
                return (an ^ _gf2x_mul(bn, ad), ad)
            g = _gf2x_gcd(ad, bd)
            if g == 1:
                return (_gf2x_mul(an, bd) ^ _gf2x_mul(bn, ad), _gf2x_mul(ad, bd))
            ad, bd = _gf2x_divexact(ad, g), _gf2x_divexact(bd, g)
            num, g = _f2t_reduce(_gf2x_mul(an, bd) ^ _gf2x_mul(bn, ad), g)
            return (num, _gf2x_mul(_gf2x_mul(ad, bd), g)) if num else (0, 1)
        # a canonical denominator is monic, so one of degree 0 is 1
        if len(ad.coeffs) == 1:
            return (an + bn, ad) if len(bd.coeffs) == 1 else (an * bd + bn, bd)
        if len(bd.coeffs) == 1:
            return (an + bn * ad, ad)
        if ad == bd:
            return self._canonical(an + bn, ad)
        g = ad.gcd(bd)
        if g.degree == 0:
            return (an * bd + bn * ad, ad * bd)
        ad, bd = ad // g, bd // g
        num, g = self._canonical(an * bd + bn * ad, g)
        return (num, ad * bd * g) if num.coeffs else (num, g)

    def _mul(self, a, b):
        an, ad = a
        bn, bd = b
        if self.packed:
            if ad == 1 and bd == 1:
                return (_gf2x_mul(an, bn), 1)
            an, bd = _f2t_reduce(an, bd)
            bn, ad = _f2t_reduce(bn, ad)
            return (_gf2x_mul(an, bn), _gf2x_mul(ad, bd))
        if not an.coeffs or not bn.coeffs:
            return self._constants[0]
        if len(ad.coeffs) == 1 and len(bd.coeffs) == 1:
            return (an * bn, ad)
        an, bd = self._canonical(an, bd)
        bn, ad = self._canonical(bn, ad)
        return (an * bn, ad * bd)

    def _inv(self, a):
        num, den = a
        if self.packed:
            return (den, num)
        if not num.coeffs:
            raise DivisionByZero(f"inverse of zero in {self.describe()}")
        # den/num is reduced already and only needs a monic denominator
        lead_inv = self.base._inv(num.coeffs[-1])
        if lead_inv == self.base._from_int(1):
            return (den, num)
        return (den.scale(lead_inv), num.scale(lead_inv))

    def _sqrt(self, a):
        if self.packed:
            # a reduced fraction is a square exactly when both its terms are
            num, num_odd = _gf2x_split(a[0])
            den, den_odd = _gf2x_split(a[1])
            return None if num_odd or den_odd else (num, den)
        # num/den = (num*den)/den^2, so it suffices to take the root of num*den
        root = (a[0] * a[1]).sqrt()
        if root is None:
            return None
        return self._canonical(root, a[1])

    def _is_zero(self, a):
        return a[0] == 0 if self.packed else a[0].is_zero()

    def _format(self, a):
        num, den = a
        if self.packed:
            num_s, den_s = _gf2x_format(num, self.var), _gf2x_format(den, self.var)
        else:
            num_s, den_s = num.format(self.var), den.format(self.var)
        return num_s if den_s == "1" else _wrap(num_s) + "/" + _wrap(den_s)

    def _from_int(self, n):
        return self._constants[n & 1]

    def _degrees(self, a):
        num, den = a
        if self.packed:
            return (max(num.bit_length() - 1, 0), den.bit_length() - 1)
        inner = [self.base._degrees(c) for c in num.coeffs + den.coeffs]
        return (max([num.degree] + [n for n, _ in inner]),
                max([den.degree] + [d for _, d in inner]))

    def _constant(self, c):
        """The payload of the constant with base-field payload c."""
        if self.packed:
            return (c, 1)
        return (Poly(self.base, (c,)), Poly.one(self.base))

    def describe(self):
        return f"ratfunc({self.base.describe()},{self.var})"

    def embed(self, a):
        if a.field == self:
            return a
        return FieldElement(self, self._constant(
            (self.base.embed(a) if a.field != self.base else a).payload))

    @property
    def generator(self) -> FieldElement:
        if self.packed:
            return FieldElement(self, (0b10, 1))
        return FieldElement(self, (Poly.x(self.base), Poly.one(self.base)))

    def variable_elements(self):
        mapping = {name: self.embed(el)
                   for name, el in self.base.variable_elements().items()}
        mapping[self.var] = self.generator
        return mapping

    def random_element(self, rng, size=2):
        if self.packed:
            return self._random_packed(rng, size)

        def random_poly(max_deg, nonzero=False):
            while True:
                p = Poly(self.base, [self.base.random_element(rng).payload
                                     for _ in range(rng.randrange(max_deg + 1) + 1)])
                if not (nonzero and p.is_zero()):
                    return p
        num = random_poly(size)
        den = random_poly(size, nonzero=True) if rng.randrange(2) else Poly.one(self.base)
        return self.from_fraction(num, den)

    def _random_packed(self, rng, size):
        """`random_element` over F2(t), building the bit masks directly: the
        same `rng` calls in the same order as the `Poly` path, one
        randrange(2) per coefficient, so the same element."""
        randrange = rng.randrange

        def random_bits(nonzero=False):
            while True:
                bits = 0
                for i in range(randrange(size + 1) + 1):
                    bits |= randrange(2) << i
                if bits or not nonzero:
                    return bits
        num = random_bits()
        den = random_bits(nonzero=True) if randrange(2) else 1
        return FieldElement(self, _f2t_reduce(num, den))

    def square_monomials(self):
        base_monos = self.base.square_monomials()
        return base_monos + tuple(m + (self.var,) for m in base_monos)

    def square_coordinates(self, a):
        a = self.coerce(a)
        num, den = a.payload
        if self.packed:
            # num/den = (num*den)/den^2 = (e/den)^2 + t*(o/den)^2
            return tuple(FieldElement(self, _f2t_reduce(p, den))
                         for p in _gf2x_split(_gf2x_mul(num, den)))
        base = self.base
        prod = num * den
        width = len(base.square_monomials())
        # coefficient lists for the polynomials P[m][eps], a = sum m*t^eps*(P/den)^2;
        # a zero coefficient of num*den leaves its zeros in place
        half = (len(prod.coeffs) + 1) // 2
        zero = base._from_int(0)
        parts = [[[zero] * half, [zero] * half] for _ in range(width)]
        for i, c in enumerate(prod.coeffs):
            if base._is_zero(c):
                continue
            k, eps = divmod(i, 2)
            for m_idx, e in enumerate(base.square_coordinates(FieldElement(base, c))):
                parts[m_idx][eps][k] = e.payload
        canonical = self._canonical
        return tuple(FieldElement(self, canonical(Poly(base, parts[m_idx][eps]), den))
                     for eps in (0, 1) for m_idx in range(width))

    def __eq__(self, other):
        return (isinstance(other, RationalFunctionField)
                and self.var == other.var and self.base == other.base)

    def __hash__(self):
        return hash(("ratfunc", hash(self.base), self.var))


# ---------------------------------------------------------------------------
# Element expressions.  One grammar serves parsing user input for every field
# in a tower (and, with an extra variable, for the quadratic algebras built on
# top): sums of monomials in the declared variables, `^` powers, juxtaposition
# or `*` for products, `/` for fractions, parentheses.

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[a-zA-Z])|(?P<op>[-+*/^()]))")

# the parser recurses once per level of parentheses, so an expression may
# nest them at most this deep; a deeper '(' is a ParseError, and so is a
# field descriptor with more ratfunc( levels
MAX_NESTING = 100

# the GF(2)[t] products are quadratic in the degree, so the parser refuses,
# before computing it, any sum, product, quotient or power whose numerator
# or denominator could pass this degree (see `parse_expression`).  With one
# entry t^16384 in a 4x4 F2(t) form, analyze, classify and verify each
# finish in under 0.7 s; t^65536 takes 3.2 s in classify, and t^100000
# 9.5 s in verify (Python 3.11, 2 shared cores)
MAX_DEGREE = 16384


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("int") is not None:
            try:
                value = int(m.group("int"))
            except ValueError:  # past the interpreter's limit on digits
                raise ParseError("integer literal too long", m.start()) from None
            tokens.append(("int", value, m.start()))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def parse_expression(text: str, variables: dict, ring):
    """Evaluate an element expression in `ring` with the given variable map.

    Before each sum, product, quotient or power, the degrees of the result
    are bounded from the operands' `Field._degrees`: a product adds them, a
    quotient adds them crossed, a sum of n1/d1 and n2/d2 gives
    (max(n1 + d2, n2 + d1), d1 + d2), and a power multiplies them.  An
    operation whose bound passes `MAX_DEGREE` is refused."""
    tokens = _tokenize(text)
    idx = depth = 0
    degrees = ring._degrees

    def bounded(num_degree, den_degree, pos):
        if max(num_degree, den_degree) > MAX_DEGREE:
            raise ParseError(f"the result could exceed degree {MAX_DEGREE}", pos)

    def peek():
        return tokens[idx]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_sum():
        value = parse_product()
        while peek()[0] == "op" and peek()[1] in "+-":
            pos = advance()[2]
            rhs = parse_product()
            (nx, dx), (ny, dy) = degrees(value.payload), degrees(rhs.payload)
            bounded(max(nx + dy, ny + dx), dx + dy, pos)
            value = value + rhs
        return value

    def parse_product():
        value = parse_factor()
        while True:
            kind, val, pos = peek()
            if kind == "op" and val in "*/":
                advance()
            elif not (kind in ("int", "name") or (kind == "op" and val == "(")):
                return value
            rhs = parse_factor()
            (nx, dx), (ny, dy) = degrees(value.payload), degrees(rhs.payload)
            if val == "/":
                bounded(nx + dy, dx + ny, pos)
                try:
                    value = value / rhs
                except (DivisionByZero, ZeroDivisionError):
                    raise ParseError("division by zero", pos)
            else:
                bounded(nx + ny, dx + dy, pos)
                value = value * rhs

    def parse_factor():
        value = parse_atom()
        if peek()[0] == "op" and peek()[1] == "^":
            advance()
            kind, val, pos = advance()
            if kind != "int":
                raise ParseError("exponent must be an integer", pos)
            bounded(*(val * d for d in degrees(value.payload)), pos)
            value = value ** val
        return value

    def parse_atom():
        nonlocal depth
        kind, val, pos = advance()
        while kind == "op" and val in "+-":  # unary signs; negation is identity
            kind, val, pos = advance()
        if kind == "int":
            return ring.from_int(val)
        if kind == "name":
            if val not in variables:
                raise ParseError(f"unknown variable {val!r}", pos)
            return variables[val]
        if kind == "op" and val == "(":
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            depth += 1
            value = parse_sum()
            depth -= 1
            kind, val, pos = advance()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError("expected an element expression", pos)

    value = parse_sum()
    kind, _, pos = peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return value


# ---------------------------------------------------------------------------
# Field descriptor text format: gf2 | gf2k:<k>:<modulus> | ratfunc(<field>,<var>)

def parse_field(text: str) -> Field:
    # peel the ratfunc( levels in a loop, innermost variable last
    text = text.strip()
    variables = []
    while text.startswith("ratfunc(") and text.endswith(")"):
        if len(variables) == MAX_NESTING:
            raise ParseError(f"ratfunc descriptors nest deeper than {MAX_NESTING}")
        inner = text[len("ratfunc("):-1]
        cut = inner.rfind(",")
        if cut < 0:
            raise ParseError(f"bad ratfunc descriptor: {text!r}")
        variables.append(inner[cut + 1:].strip())
        text = inner[:cut].strip()
    if text == "gf2":
        field: Field = GF2()
    elif text.startswith("gf2k:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"bad gf2k descriptor: {text!r}")
        try:
            k = int(parts[1])
            modulus = int(parts[2], 0)
        except ValueError:
            raise ParseError(f"bad gf2k descriptor: {text!r}") from None
        field = GF2k(k, modulus)
    else:
        raise ParseError(f"unknown field descriptor: {text!r}")
    for var in reversed(variables):
        field = RationalFunctionField(field, var)
    return field
