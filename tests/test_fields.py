import random
from collections import Counter

import pytest

from char2forms.fields import (DescriptorMismatch, DivisionByZero, FieldElement,
                               FieldError, GF2k, ParseError, Poly, RationalFunctionField,
                               MAX_DEGREE, MAX_NESTING, gf2_poly_is_irreducible, parse_field)
from char2forms import fields
from char2forms.fields import (_gf2x_divexact, _gf2x_gcd, _gf2x_invmod, _gf2x_mul,
                               _gf2x_mulmod)
from char2forms.kalgebra import KAlgebra
from char2forms.linalg import square_span_dimension, square_span_kernel, square_span_solve


def test_characteristic_two(gf2, gf4, f2t):
    for field in (gf2, gf4, f2t):
        assert (field.one() + field.one()).is_zero()


def test_inverse_axiom(f2t):
    t = f2t.generator
    assert (t * t.inverse()).is_one()
    assert (t / t).is_one()


def _mask_poly(field, mask):
    """A bit mask (bit i is the coefficient of t^i) as a Poly over `field`."""
    return Poly(field, [(mask >> i) & 1 for i in range(mask.bit_length())])


def test_fraction_reduces_on_construction(f2t):
    # gcd oracle over GF(2): t+1 = gcd(t+1, t^2+t), so the value is 1/t
    e = f2t.parse("(t+1)/(t^2+t)")
    assert str(e) == "1/t"
    # F2(t) payloads are bit masks, bit i the coefficient of t^i
    assert e.payload == (0b1, 0b10)
    assert e == f2t.from_fraction(Poly.one(f2t.base), Poly.x(f2t.base))
    # cross-multiplication check against the unreduced pair
    assert e * f2t.parse("t^2+t") == f2t.parse("t+1")


def test_canonical_payloads(f2t, f2tu, rng):
    # F2(t): reduced bit-mask pairs, checked with the generic Poly gcd
    for _ in range(60):
        num, den = f2t.random_element(rng).payload
        if num == 0:
            assert den == 1
            continue
        assert den != 0
        assert _mask_poly(f2t.base, num).gcd(_mask_poly(f2t.base, den)).degree == 0
    # F2(t)(u): Poly pairs with a monic denominator
    for _ in range(60):
        num, den = f2tu.random_element(rng).payload
        if num.is_zero():
            assert den == Poly.one(f2tu.base)
            continue
        assert den.lead().is_one()
        assert num.gcd(den).degree == 0


def test_packed_f2t_matches_generic_path(f2t, gf4, rng):
    # F2(t) runs on bit masks, GF(4)(t) on Polys; the embedding through 0/1
    # coefficients must commute with every operation.  It maps payloads as they
    # are, so a packed result that is not canonical fails the comparison too.
    f4t = RationalFunctionField(gf4, "t")

    def embed(a):
        num, den = a.payload
        return FieldElement(f4t, (_mask_poly(gf4, num), _mask_poly(gf4, den)))

    samples = [f2t.zero(), f2t.one(), f2t.generator]
    samples += [f2t.random_element(rng, size=3) for _ in range(80)]
    for a, b in zip(samples, samples[1:] + samples[:1]):
        assert embed(a + b) == embed(a) + embed(b)
        assert embed(a * b) == embed(a) * embed(b)
        assert str(embed(a)) == str(a)
        assert tuple(map(embed, f2t.square_coordinates(a))) == \
            f4t.square_coordinates(embed(a))
        for c in (a, a * a):
            root = c.sqrt()
            assert (None if root is None else embed(root)) == embed(c).sqrt()
        if not a.is_zero():
            assert embed(a.inverse()) == embed(a).inverse()


def _as_polys(field, payload):
    """An F(t) payload as a pair of Polys over F (F2(t) keeps bit masks)."""
    if field.packed:
        return tuple(_mask_poly(field.base, mask) for mask in payload)
    return payload


def _reduced(num, den):
    """num/den fully reduced: divided by gcd(num, den), denominator monic."""
    if num.is_zero():
        return (num, Poly.one(den.field))
    g = num.gcd(den)
    num, den = num // g, den // g
    scale = den.lead().inverse().payload
    return (num.scale(scale), den.scale(scale))


def _fraction_pairs(field, rng):
    """Seeded operand pairs of F(t), built so that every rule of the sum and
    the product applies: a zero operand, equal denominators, one polynomial
    side, coprime denominators, denominators with a shared factor."""
    base = field.base

    def poly(size=2):
        while True:
            p = Poly(base, [base.random_element(rng).payload for _ in range(size + 1)])
            if p.degree > 0:
                return p

    def fraction(den):
        # a numerator prime to den, so that den stays the denominator
        num = poly()
        while num.gcd(den).degree > 0:
            num = poly()
        return field.from_fraction(num, den).payload

    def plus(x, y):
        (xn, xd), (yn, yd) = _as_polys(field, x), _as_polys(field, y)
        return field.from_fraction(xn * yd + yn * xd, xd * yd).payload

    one, pairs = Poly.one(base), []
    for _ in range(16):
        d, e, f = poly(), poly(1), poly(1)
        x, y, z = fraction(d), fraction(d * e), fraction(e * f + one)
        pairs += [(field.zero().payload, x), (x, field.zero().payload),
                  (fraction(d), fraction(d)),
                  (fraction(one), fraction(d)), (fraction(one), fraction(one)),
                  (fraction(d), fraction(d + one)),
                  (fraction(d * e), fraction(d * (e + one))),
                  # sums that cancel e: (x + y) + y and (x + y + z) + y
                  (plus(x, y), y), (plus(plus(x, y), z), y)]
    return pairs


def _sum_rule(field, a, b):
    (an, ad), (bn, bd) = _as_polys(field, a), _as_polys(field, b)
    if an.is_zero() or bn.is_zero():
        return "zero"
    if ad.degree == 0 or bd.degree == 0:
        return "polynomial"
    g = ad.gcd(bd)
    if g.degree == 0:
        return "coprime"
    rule = "equal" if ad == bd else "shared"
    # the sum cancels a factor of g beyond the lcm of the denominators
    den = _reduced(an * bd + bn * ad, ad * bd)[1]
    return rule + " cancelling" if den.degree < ad.degree + bd.degree - g.degree else rule


@pytest.mark.parametrize("name", ["f2t", "f2tu"])
def test_henrici_rules_give_the_fully_reduced_payload(name, f2t, f2tu):
    # _add, _mul and _inv reduce only the factors that can cancel; each must
    # give the payload that reducing the whole cross products gives
    field = f2t if name == "f2t" else f2tu
    rules = Counter()
    for a, b in _fraction_pairs(field, random.Random(27)):
        rules[_sum_rule(field, a, b)] += 1
        (an, ad), (bn, bd) = _as_polys(field, a), _as_polys(field, b)
        assert _as_polys(field, field._add(a, b)) == _reduced(an * bd + bn * ad, ad * bd)
        assert _as_polys(field, field._add(b, a)) == _reduced(an * bd + bn * ad, ad * bd)
        assert _as_polys(field, field._mul(a, b)) == _reduced(an * bn, ad * bd)
        assert _as_polys(field, field._mul(b, a)) == _reduced(an * bn, ad * bd)
        for p, (num, den) in ((a, (an, ad)), (b, (bn, bd))):
            if not num.is_zero():
                assert _as_polys(field, field._inv(p)) == _reduced(den, num)
        # a sum that cancels to zero is the canonical zero
        assert field._add(a, a) == field.zero().payload
    assert set(rules) == {"zero", "polynomial", "coprime", "equal", "shared",
                          "equal cancelling", "shared cancelling"}, rules


def _schoolbook(p, q):
    """p q on elements: every pair of coefficients, each sum from zero."""
    field = p.field
    out = [field.zero()] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + FieldElement(field, a) * FieldElement(field, b)
    return Poly(field, [c.payload for c in out])


@pytest.mark.parametrize("name", ["f2t", "gf4t", "f2tu"])
def test_poly_product_matches_schoolbook(name, f2t, gf4, f2tu):
    # Poly.__mul__ multiplies only the nonzero terms, scales the other factor
    # when one has a single term and starts each coefficient from its first
    # product; the payloads must be the schoolbook ones
    field = {"f2t": f2t, "gf4t": RationalFunctionField(gf4, "t"), "f2tu": f2tu}[name]
    rng = random.Random(28)
    zero = field.zero().payload

    def coeff():
        # a third zeros, so that inner coefficients vanish
        return zero if rng.randrange(3) == 0 else field.random_element(rng, size=1).payload

    polys = [Poly(field, ()), Poly.one(field), Poly.x(field)]
    for _ in range(12):
        polys.append(Poly(field, [coeff() for _ in range(rng.randrange(1, 6))]))
        k = rng.randrange(4)  # one term, c x^k
        polys.append(Poly(field, [zero] * k + [field.random_element(rng, size=1).payload]))
    polys += [p + Poly.one(field) for p in polys[-4:]]
    terms = [sum(not field._is_zero(c) for c in p.coeffs) for p in polys]
    assert 1 in terms and max(terms) > 2
    assert any(field._is_zero(c) for p in polys for c in p.coeffs)
    assert any(not field._is_zero(c) and c[1] != field._from_int(1)[1]
               for p in polys for c in p.coeffs)  # fractional coefficients
    for p in polys:
        for q in polys:
            assert (p * q).coeffs == _schoolbook(p, q).coeffs


def test_frobenius_values(gf4, f2t):
    g = gf4.generator
    assert g.frobenius() == g + 1  # g^2 = g + 1 for the modulus x^2+x+1
    assert str(f2t.parse("t+1").frobenius()) == "t^2+1"
    assert f2t.zero().frobenius().is_zero()


def test_frobenius_additive(gf4, f2t, f2tu, rng):
    for field in (gf4, f2t, f2tu):
        for _ in range(30):
            a = field.random_element(rng)
            b = field.random_element(rng)
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()


def test_perfect_field_squares(gf4):
    for el in gf4.elements():
        root = el.sqrt()
        assert root is not None and root * root == el
    seen = {el.frobenius() for el in gf4.elements()}
    assert len(seen) == gf4.order  # Frobenius is a bijection


def test_ratfunc_squares(f2t, rng):
    t = f2t.generator
    assert t.sqrt() is None
    root = f2t.parse("t^4+t^2").sqrt()
    assert root == f2t.parse("t^2+t")
    assert root * root == f2t.parse("t^4+t^2")
    for _ in range(40):
        a = f2t.random_element(rng)
        sq = a * a
        back = sq.sqrt()
        assert back is not None and back * back == sq
    # t is not in the image of Frobenius
    assert all(not (f2t.random_element(rng).frobenius() == t) for _ in range(40))


def test_square_span_dimension_examples(gf2, f2t, f2tu):
    assert square_span_dimension([gf2.one()] * 4) == 1
    t = f2t.generator
    assert square_span_dimension([t, f2t.one(), f2t.one(), f2t.one()]) == 2
    els = [f2tu.one(), f2tu.parse("t"), f2tu.parse("u"), f2tu.parse("tu")]
    assert square_span_dimension(els) == 4


def test_monomials_independent_bruteforce(f2tu, rng):
    # no nonzero square combination of 1, t, u, tu vanishes
    els = [f2tu.one(), f2tu.parse("t"), f2tu.parse("u"), f2tu.parse("tu")]
    for _ in range(40):
        coeffs = [f2tu.random_element(rng, size=1) for _ in range(4)]
        if all(c.is_zero() for c in coeffs):
            continue
        total = f2tu.zero()
        for c, e in zip(coeffs, els):
            total = total + c * c * e
        assert not total.is_zero()


def test_square_span_solve_and_kernel(f2t, f2tu, rng):
    t = f2t.generator
    sol = square_span_solve(f2t.parse("t^2+1"), [f2t.one(), t])
    assert sol is not None
    assert sol[0] * sol[0] + sol[1] * sol[1] * t == f2t.parse("t^2+1")
    assert square_span_solve(f2tu.parse("u"), [f2tu.one(), f2tu.parse("t")]) is None
    for field in (f2t, f2tu):
        elements = [field.random_element(rng) for _ in range(4)]
        if all(e.is_zero() for e in elements):
            continue
        for coeffs in square_span_kernel(elements):
            total = field.zero()
            for c, e in zip(coeffs, elements):
                total = total + c * c * e
            assert total.is_zero()


def test_square_coordinates_reconstruct(gf2, gf4, f2t, f2tu, rng):
    for field in (gf2, gf4, f2t, f2tu):
        monos = field.square_monomials()
        for _ in range(25):
            a = field.random_element(rng)
            coords = field.square_coordinates(a)
            total = field.zero()
            for m, e in zip(monos, coords):
                total = total + field.monomial_value(m) * e * e
            assert total == a


def test_parse_print_round_trip(gf2, gf4, f2t, f2tu, rng):
    for field in (gf2, gf4, f2t, f2tu):
        for _ in range(60):
            a = field.random_element(rng)
            assert field.parse(str(a)) == a


def test_parse_errors(f2t):
    with pytest.raises(ParseError):
        f2t.parse("t^")
    with pytest.raises(ParseError):
        f2t.parse("x+1")  # undeclared variable
    with pytest.raises(ParseError):
        f2t.parse("1/0")
    with pytest.raises(ParseError):
        f2t.parse("(t+1")


def test_parse_nesting_bound(f2t):
    t = f2t.generator
    # the parser recurses once per level of parentheses: MAX_NESTING levels
    # parse, one more is refused at its '(' before the stack runs out
    assert f2t.parse("(" * MAX_NESTING + "t+1" + ")" * MAX_NESTING) == t + 1
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(ParseError) as info:
            f2t.parse("(" * depth + "t" + ")" * depth)
        assert info.value.position == MAX_NESTING
    # unary signs are read in a loop, at any count, and nest nothing
    assert f2t.parse("-+" * 2500 + "t") == t
    assert f2t.parse("-(" * MAX_NESTING + "t" + ")" * MAX_NESTING) == t
    # field descriptors are peeled in a loop and refused past the same depth
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(ParseError, match="nest deeper"):
            parse_field("ratfunc(" * depth + "gf2" + ",t)" * depth)


def test_parse_degree_bound(f2t, f2tu):
    # a sum, product, quotient or power whose numerator or denominator could
    # pass MAX_DEGREE is refused before it is computed
    t, u = f2tu.variable_elements()["t"], f2tu.generator
    at_bound = {f"t^{MAX_DEGREE}": f2t.generator ** MAX_DEGREE,
                f"1/(t+1)^{MAX_DEGREE}": (f2t.generator + 1) ** -MAX_DEGREE,
                f"t^{MAX_DEGREE // 2}*t^{MAX_DEGREE // 2}": f2t.generator ** MAX_DEGREE,
                f"t^{MAX_DEGREE}+t^{MAX_DEGREE}": f2t.zero()}
    for text, value in at_bound.items():
        assert f2t.parse(text) == value
    assert f2tu.parse(f"u^{MAX_DEGREE}/t^{MAX_DEGREE}") == u ** MAX_DEGREE / t ** MAX_DEGREE
    # each refused at its operator, or at the exponent of a power
    half = MAX_DEGREE // 2
    above = {f"t^{MAX_DEGREE + 1}": 2, "t^1000000": 2, f"(t+1)^{MAX_DEGREE}*t": 11,
             f"t^{half}t^{half + 1}": 2 + len(str(half)), f"1/(t+1)^{MAX_DEGREE}/t": 13,
             f"1/t^{half}+1/(t+1)^{half + 1}": 4 + len(str(half))}
    for text, position in above.items():
        with pytest.raises(ParseError, match=f"could exceed degree {MAX_DEGREE}") as info:
            f2t.parse(text)
        assert info.value.position == position, text
    for text in (f"u^{MAX_DEGREE + 1}", f"(t^{MAX_DEGREE}+1)*u", f"t^{MAX_DEGREE}*(u+t)"):
        with pytest.raises(ParseError, match="could exceed degree"):
            f2tu.parse(text)
    # j^2 = t in K = F2(t)[j], so j^(2m) is t^m; j weighs half of the
    # degree of t, rounded up
    k = KAlgebra(f2t, f2t.generator)
    assert k.parse(f"j^{MAX_DEGREE}") == k.coerce(f2t.generator ** (MAX_DEGREE // 2))
    with pytest.raises(ParseError, match="could exceed degree"):
        k.parse(f"j^{MAX_DEGREE + 1}")
    # an exponent past the interpreter's limit on digits is a ParseError too
    with pytest.raises(ParseError) as info:
        f2t.parse("t^" + "9" * 5000)
    assert info.value.position == 2


def test_descriptor_mismatch(gf2, f2t):
    with pytest.raises(DescriptorMismatch):
        gf2.one() + f2t.one()
    with pytest.raises(DescriptorMismatch):
        square_span_dimension([gf2.one(), f2t.one()])


@pytest.mark.parametrize("name", ["gf4", "f2t", "k"])
def test_pow_matches_repeated_multiplication(name, gf4, f2t, monkeypatch):
    if name == "gf4":
        ring, x = gf4, gf4.generator
    elif name == "f2t":
        ring, x = f2t, f2t.parse("(t+1)/t^2")
    else:
        # k(t) over F2(t): t is not a square, so x = (t+1) + j is a unit
        ring = KAlgebra(f2t, f2t.generator)
        x = ring.element(f2t.parse("t+1"), 1)
    for n in range(-5, 21):
        factor = x if n >= 0 else x.inverse()
        expected = ring.one()
        for _ in range(abs(n)):
            expected = expected * factor
        assert x ** n == expected, n
    square = x * x
    products = []
    mul = ring._mul
    monkeypatch.setattr(ring, "_mul", lambda a, b: products.append(1) or mul(a, b))
    assert x ** 2 == square
    assert len(products) == 1


def test_division_by_zero(f2t):
    with pytest.raises(DivisionByZero):
        f2t.zero().inverse()


def test_gf2k_construction_validates():
    assert gf2_poly_is_irreducible(0b111)
    assert not gf2_poly_is_irreducible(0b101)  # x^2+1 = (x+1)^2
    with pytest.raises(FieldError):
        GF2k(2, 0b101)
    with pytest.raises(FieldError):
        GF2k(3, 0b111)  # degree mismatch
    # an irreducible octic tower member works
    big = GF2k(8, 0b100011011)
    x = big.generator
    assert (x ** (big.order - 1)).is_one() or not x.is_zero()


def _irreducible_by_trial_division(mask):
    # no factor of degree 1..deg/2, tried by long division on bit masks
    degree = mask.bit_length() - 1
    if degree < 1:
        return False
    for factor in range(2, 1 << (degree // 2 + 1)):
        rem = mask
        while rem.bit_length() >= factor.bit_length():
            rem ^= factor << (rem.bit_length() - factor.bit_length())
        if rem == 0:
            return False
    return True


def test_irreducibility_matches_trial_division():
    # every mask of degree <= 8, including x + 1 (0b11)
    for mask in range(1, 1 << 9):
        assert gf2_poly_is_irreducible(mask) == _irreducible_by_trial_division(mask), bin(mask)


@pytest.mark.parametrize("k, modulus", [(1, 0b10), (1, 0b11), (2, 0b111), (3, 0b1011),
                                        (4, 0b11001), (8, 0b100011011)])
def test_gf2k_tables_match_reduction(k, modulus):
    # up to order 256 products and inverses are table lookups; x is not
    # primitive modulo 0b100011011, so the table build must search for one
    field = GF2k(k, modulus)
    product, inverse = field.tables()
    for a in range(field.order):
        assert list(product[a]) == [_gf2x_mulmod(a, b, modulus) for b in range(field.order)]
        if a:
            assert inverse[a] == _gf2x_invmod(a, modulus)
            assert field._inv(a) == inverse[a]
    with pytest.raises(DivisionByZero):
        field.zero().inverse()


def test_gf2k_above_order_256_reduces():
    field = GF2k(9, 0b1000010001)
    with pytest.raises(FieldError):
        field.tables()
    a, b = field.parse("g^5+g"), field.parse("g^8+1")
    assert (a * b).payload == _gf2x_mulmod(a.payload, b.payload, field.modulus)
    assert (a * a.inverse()).is_one()


# -- the GF(2)[x] kernels against plain shift-and-xor ----------------------

def _ref_mul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a, b = a << 1, b >> 1
    return r


def _ref_divmod(a, b):
    q = 0
    while a.bit_length() >= b.bit_length():
        shift = a.bit_length() - b.bit_length()
        q, a = q | 1 << shift, a ^ b << shift
    return q, a


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return a


def test_gf2x_kernels_match_reference_below_2_7():
    # every pair below 2^7 covers both sides of the 2^5 table edge
    for a in range(1 << 7):
        for b in range(1 << 7):
            assert _gf2x_mul(a, b) == _ref_mul(a, b), (a, b)
            assert _gf2x_gcd(a, b) == _ref_gcd(a, b), (a, b)
            if not b:
                continue
            q, r = _ref_divmod(a, b)
            if r:
                with pytest.raises(ValueError):
                    _gf2x_divexact(a, b)
            else:
                assert _gf2x_divexact(a, b) == q, (a, b)


def test_gf2x_divexact_on_every_divisible_pair_below_2_7():
    pairs = {(_ref_mul(q, b), b) for q in range(1 << 7) for b in range(1, 1 << 7)}
    pairs = [(a, b) for a, b in pairs if a < 1 << 7]
    assert len(pairs) > 1 << 7
    for a, b in pairs:
        assert _ref_mul(_gf2x_divexact(a, b), b) == a, (a, b)
    # below 2^5 the table holds every divisible pair, so none takes the loop
    small = {(a, b): _ref_divmod(a, b)[0] for a, b in pairs if a < 32 and b < 32}
    assert [(a, b) for a in range(32) for b in range(32)
            if fields._SMALL_QUO[a << 5 | b] >= 0] == sorted(small)
    assert all(fields._SMALL_QUO[a << 5 | b] == q for (a, b), q in small.items())


@pytest.mark.parametrize("x", [1, 0b10110, 31, 32, 0b1011011, 1 << 200 | 0b1011])
def test_gf2x_kernels_on_zero_operands(x):
    assert _gf2x_mul(0, x) == _gf2x_mul(x, 0) == _gf2x_mul(0, 0) == 0
    assert _gf2x_gcd(0, x) == _gf2x_gcd(x, 0) == x
    assert _gf2x_gcd(0, 0) == 0
    assert _gf2x_divexact(0, x) == 0


def test_gf2x_kernels_match_reference_up_to_degree_200():
    rng = random.Random(32)
    for _ in range(300):
        a, b, g = (rng.getrandbits(rng.randrange(1, 202)) for _ in range(3))
        g |= 1  # nonzero
        assert _gf2x_mul(a, b) == _ref_mul(a, b)
        assert _gf2x_gcd(a, b) == _ref_gcd(a, b)
        ag, bg = _ref_mul(a, g), _ref_mul(b, g)
        assert _gf2x_gcd(ag, bg) == _ref_mul(_ref_gcd(a, b), g)
        assert _gf2x_divexact(ag, g) == a
        if b and _ref_divmod(a, b)[1]:
            with pytest.raises(ValueError):
                _gf2x_divexact(a, b)


def test_gf2x_tables_decide_below_2_5_only(monkeypatch):
    # with every table entry replaced by a value no kernel returns here, the
    # pairs below 2^5 return it, and every pair with an operand of 2^5 or
    # above still matches the reference
    blank = {"_SMALL_MUL": -2, "_SMALL_GCD": -2, "_SMALL_QUO": 1 << 20}
    for name, value in blank.items():
        monkeypatch.setattr(fields, name, (value,) * (1 << 10))
    for a in range(1 << 6):
        for b in range(1, 1 << 6):
            q, r = _ref_divmod(a, b)
            if a < 32 and b < 32:
                assert fields._gf2x_mul(a, b) == fields._gf2x_gcd(a, b) == -2
                assert fields._gf2x_divexact(a, b) == 1 << 20
                continue
            assert fields._gf2x_mul(a, b) == _ref_mul(a, b)
            assert fields._gf2x_gcd(a, b) == _ref_gcd(a, b)
            if not r:
                assert fields._gf2x_divexact(a, b) == q


def test_ratfunc_variable_rules(gf2, f2t):
    with pytest.raises(FieldError):
        RationalFunctionField(f2t, "t")
    with pytest.raises(FieldError):
        RationalFunctionField(gf2, "g")
    with pytest.raises(FieldError):
        RationalFunctionField(gf2, "tu")


def test_embedding(gf2, f2t, f2tu):
    one = gf2.one()
    assert f2tu.embed(one).is_one()
    t_low = f2t.generator
    t_high = f2tu.embed(t_low)
    assert t_high == f2tu.parse("t")


def test_parse_field_round_trip(gf2, gf4, f2t, f2tu):
    for field in (gf2, gf4, f2t, f2tu):
        assert parse_field(field.describe()) == field


def test_gf4_element_formatting(gf4):
    g = gf4.generator
    assert str(g) == "g"
    assert str(g + 1) == "g+1"
    assert str(g * g) == "g+1"
    assert gf4.parse("g^2") == g + 1


def _canonical_pairs(field, rng):
    """Seeded operand pairs over a Poly-backed F(t): both denominators 1, one
    of them 1, neither, and zero against each kind."""
    base = field.base

    def poly(min_degree):
        while True:
            p = Poly(base, [base.random_element(rng, size=1).payload for _ in range(3)])
            if p.degree >= min_degree:
                return p

    def draw(unit_den):
        return field.from_fraction(poly(0), Poly.one(base) if unit_den else poly(1))

    pairs = []
    for _ in range(15):
        pairs += [(draw(True), draw(True)), (draw(True), draw(False)),
                  (draw(False), draw(True)), (draw(False), draw(False))]
    for x in (draw(True), draw(False)):
        pairs += [(field.zero(), x), (x, field.zero())]
    pairs.append((field.zero(), field.zero()))
    return pairs


def _assert_canonical(field, payload):
    num, den = payload
    if num.is_zero():
        assert payload == (Poly.zero(field.base), Poly.one(field.base))
        return
    assert den.lead().is_one()
    assert num.gcd(den).degree == 0


@pytest.mark.parametrize("name", ["f2tu", "gf4t"])
def test_unit_denominator_paths_stay_canonical(name, f2tu, gf4, rng):
    # _mul and _add skip _canonical when both denominators are 1 (a monic
    # degree-0 denominator) or an operand is zero; the results must be the
    # ones the full path gives
    field = f2tu if name == "f2tu" else RationalFunctionField(gf4, "t")
    pairs = _canonical_pairs(field, rng)
    unit_dens = [(len(a.payload[1].coeffs) == 1, len(b.payload[1].coeffs) == 1)
                 for a, b in pairs]
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(unit_dens)
    for a, b in pairs:
        (an, ad), (bn, bd) = a.payload, b.payload
        product = field._mul(a.payload, b.payload)
        total = field._add(a.payload, b.payload)
        assert product == field._canonical(an * bn, ad * bd)
        assert total == field._canonical(an * bd + bn * ad, ad * bd)
        _assert_canonical(field, product)
        _assert_canonical(field, total)


def test_constructed_payloads_have_monic_denominators(f2tu, gf4, rng):
    # the unit-denominator paths read a degree-0 denominator as 1, which
    # holds only because every payload is built with a monic denominator
    gf4t = RationalFunctionField(gf4, "t")
    for field in (f2tu, gf4t):
        base = field.base
        for _ in range(40):
            num = Poly(base, [base.random_element(rng).payload for _ in range(3)])
            den = Poly(base, [base.random_element(rng).payload
                              for _ in range(rng.randrange(1, 4))])
            if not den.is_zero():
                _assert_canonical(field, field.from_fraction(num, den).payload)
        for c in base.elements() if base.order else \
                [base.zero(), base.one(), base.generator, base.parse("1/(t+1)")]:
            _assert_canonical(field, field._constant(c.payload))
    texts = {f2tu: ["0", "1", "t", "u/t", "(u+t)/(t*u^2+1)", "1/(t+1)", "u^2/(t*u)"],
             gf4t: ["0", "g", "t/g", "(g*t+1)/(g*t^2+t)", "(t+g)/(t+g)"]}
    for field, items in texts.items():
        for text in items:
            _assert_canonical(field, field.parse(text).payload)


def _poly_path_draw(field, rng, size):
    """`random_element` as it was over every base: coefficients drawn one by
    one into `Poly` numerators and denominators."""
    def random_poly(max_deg, nonzero=False):
        while True:
            p = Poly(field.base, [field.base.random_element(rng).payload
                                  for _ in range(rng.randrange(max_deg + 1) + 1)])
            if not (nonzero and p.is_zero()):
                return p
    num = random_poly(size)
    den = random_poly(size, nonzero=True) if rng.randrange(2) else Poly.one(field.base)
    return field.from_fraction(num, den)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_packed_random_element_matches_poly_path(f2t, size):
    # the bit-mask draws over F2(t) give the payloads of the Poly path and
    # leave the generator in the same state
    for seed in range(200):
        packed, reference = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert (f2t.random_element(packed, size).payload
                    == _poly_path_draw(f2t, reference, size).payload)
        assert packed.getstate() == reference.getstate()
