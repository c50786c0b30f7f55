"""Polynomial and rational-function arithmetic over F2."""

import random
from fractions import Fraction

import pytest

from concordia.errors import DivisionByZero, UsageError
from concordia.field2 import (
    Poly2,
    RationalFunction,
    divides,
    gcd,
    grevlex_key,
    parse_fraction_text,
    parse_term_list,
    poly_div,
)
from concordia.valuation import MonomialWeight

VARS = ("x", "y", "z")


def p(text):
    return Poly2.parse(VARS, text)


def rand_poly(rng, nterms=4, maxexp=4):
    terms = {
        tuple(rng.randrange(maxexp + 1) for _ in VARS)
        for _ in range(rng.randrange(nterms + 1))
    }
    return Poly2(VARS, terms)


# -- basic arithmetic --------------------------------------------------------------


def test_addition_is_symmetric_difference():
    assert p("x + y") + p("y + z") == p("x + z")
    assert p("x") + p("x") == Poly2.zero(VARS)


def test_add_equals_sub():
    a, b = p("x*y + z"), p("z + 1")
    assert a + b == a - b


def test_multiplication_cancels_in_char_2():
    # (x + y)^2 = x^2 + y^2: cross terms cancel
    assert p("x + y") * p("x + y") == p("x^2 + y^2")
    assert p("x + y").square() == p("x^2 + y^2")


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_poly(rng)
        acc = Poly2.one(VARS)
        for k in range(5):
            assert a ** k == acc
            acc = acc * a


def test_parse_rejects_garbage():
    with pytest.raises(UsageError):
        p("x + ")
    with pytest.raises(UsageError):
        p("w")
    with pytest.raises(UsageError):
        p("x^-1")
    with pytest.raises(UsageError):
        Poly2.parse(VARS, "")


def test_parse_constants():
    assert p("1") == Poly2.one(VARS)
    assert p("0") == Poly2.zero(VARS)
    assert p("x + 0") == p("x")
    assert p("1 + 1") == Poly2.zero(VARS)


def test_str_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        a = rand_poly(rng)
        assert Poly2.parse(VARS, str(a)) == a


# -- ordering and division ----------------------------------------------------------


def test_grevlex_leading_term():
    # Same total degree: grevlex prefers the term with the smaller exponent
    # on the last variable.
    a = p("x^2*z + x*y^2")
    assert a.leading_term() == (1, 2, 0)
    assert grevlex_key((1, 2, 0)) > grevlex_key((2, 0, 1))


def test_exact_division_or_none():
    a, b = p("x^2 + y^2"), p("x + y")
    assert poly_div(a, b) == p("x + y")
    assert poly_div(p("x^2 + y"), b) is None
    with pytest.raises(DivisionByZero):
        poly_div(a, Poly2.zero(VARS))


def test_divides_on_exponent_tuples():
    assert divides((1, 0, 2), (3, 0, 2))
    assert not divides((1, 0, 2), (0, 1, 2))


def test_product_then_divide_round_trips():
    rng = random.Random(13)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert poly_div(a * b, b) == a


def test_gcd_common_factor():
    g = p("x + y + 1")
    a = g * p("x^2 + z")
    b = g * p("y*z + 1")
    got = gcd(a, b)
    assert poly_div(a, got) is not None
    assert poly_div(b, got) is not None
    assert poly_div(got, g) is not None


def test_gcd_of_coprime_is_one():
    assert gcd(p("x"), p("y + 1")).is_one()


def test_gcd_random_products():
    # F2[x,y,z] has no nontrivial units, so the gcd is literally unique:
    # gcd(g*a, g*b) = g * gcd(a, b).
    rng = random.Random(17)
    for _ in range(40):
        g, a, b = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        if g.is_zero() or a.is_zero() or b.is_zero():
            continue
        assert gcd(g * a, g * b) == g * gcd(a, b)


# -- rational functions --------------------------------------------------------------


def rf(num, den=None):
    return RationalFunction(p(num), p(den) if den is not None else None)


def test_fraction_reduces_on_construction():
    a = rf("x^2 + y^2", "x + y")
    assert a == rf("x + y")
    assert str(a) == "x + y"


def test_fraction_field_axioms_sampled():
    rng = random.Random(19)
    for _ in range(60):
        a = RationalFunction(rand_poly(rng), None)
        b = RationalFunction(rand_poly(rng), None)
        c = RationalFunction(rand_poly(rng), None)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + a == RationalFunction.zero(VARS)
        if not b.is_zero():
            assert (a / b) * b == a


def test_fraction_inverse_and_negative_powers():
    a = rf("x + y", "z")
    assert a * a.inverse() == RationalFunction.one(VARS)
    assert a ** -2 == (a.inverse()) ** 2
    with pytest.raises(DivisionByZero):
        rf("0").inverse()
    with pytest.raises(DivisionByZero):
        a / rf("0")


def test_fraction_str_parenthesizes_sums():
    assert str(rf("x + y", "z")) == "(x + y)/z"
    assert str(rf("x", "y + z")) == "x/(y + z)"
    assert str(rf("0")) == "0"


class _Reduced:
    """Reference fraction reduced at every step: each result is brought to
    lowest terms by a gcd as soon as it is built."""

    def __init__(self, num, den=None):
        den = Poly2.one(num.vars) if den is None else den
        if num.is_zero():
            den = Poly2.one(num.vars)
        else:
            g = gcd(num, den)
            num, den = poly_div(num, g), poly_div(den, g)
        self.num, self.den = num, den

    def __add__(self, other):
        return _Reduced(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Reduced(self.num * other.num, self.den * other.den)

    def inverse(self):
        return _Reduced(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return _Reduced(base.num ** abs(n), base.den ** abs(n))

    def __hash__(self):
        return hash((self.num, self.den))


def _operand(rng):
    """(value, reference): the value built reduced or with a common factor
    left in, the reference always reduced."""
    num = rand_poly(rng, 3, 2)
    den = rand_poly(rng, 2, 1)
    if den.is_zero():
        den = Poly2.one(VARS)
    ref = _Reduced(num, den)
    if rng.random() < 0.5:
        return RationalFunction._coprime(ref.num, ref.den), ref
    c = rand_poly(rng, 2, 1)
    if c.is_zero():
        c = p("x + 1")
    return RationalFunction(num * c, den * c), ref


def _agree(value, ref):
    assert value.num == ref.num and value.den == ref.den
    assert hash(value) == hash(ref)
    assert str(value) == str(RationalFunction._coprime(ref.num, ref.den))


def test_lazy_fractions_read_as_the_reduce_every_step_reference():
    rng = random.Random(4242)
    ops = ("+", "*", "/", "inv", "pow")
    for _ in range(150):
        (a, ra), (b, rb) = _operand(rng), _operand(rng)
        for _ in range(rng.randint(1, 4)):
            op = rng.choice(ops)
            if op in ("/", "inv") and b.is_zero():
                op = "+"
            if op == "+":
                a, ra = a + b, ra + rb
            elif op == "*":
                a, ra = a * b, ra * rb
            elif op == "/":
                a, ra = a / b, ra / rb
            elif op == "inv" and not a.is_zero():
                a, ra = a.inverse(), ra.inverse()
            elif op == "pow":
                e = rng.choice((-2, 0, 1, 2, 3)) if not a.is_zero() else 2
                a, ra = a ** e, ra ** e
            (b, rb) = _operand(rng)
            if rng.random() < 0.3 and not a.is_zero():
                # over a's denominator as it stands: + adds the numerators
                num = rand_poly(rng, 3, 2)
                b, rb = RationalFunction(num, a.raw_den), _Reduced(num, a.raw_den)
            # read some values mid-chain, so reduced and unreduced operands mix
            if rng.random() < 0.3:
                _agree(a, ra)
        _agree(a, ra)


def test_a_common_factor_does_not_change_equality_or_hash():
    rng = random.Random(4343)
    for _ in range(100):
        (a, _), (b, _) = _operand(rng), _operand(rng)
        c, _ = _operand(rng)
        if b.is_zero() or c.is_zero():
            continue
        left, right = (a * c) / (b * c), a / b
        assert left == right and right == left
        assert hash(left) == hash(right)
        assert (left + right).is_zero()


@pytest.mark.parametrize("kind", ["rational", "lex"])
def test_ord_does_not_depend_on_the_representative(kind):
    rng = random.Random(4444 if kind == "rational" else 4445)
    for _ in range(100):
        if kind == "rational":
            weight = MonomialWeight.rational(
                {v: Fraction(rng.randint(1, 5), rng.randint(1, 4)) for v in VARS})
        else:
            weight = MonomialWeight.lex(
                {v: (Fraction(rng.randint(0, 2)), Fraction(rng.randint(1, 3))) for v in VARS})
        value, ref = _operand(rng)
        if value.is_zero():
            continue
        c = rand_poly(rng, 3, 2)
        if c.is_zero():
            continue
        lowest = RationalFunction._coprime(ref.num, ref.den)
        scaled = RationalFunction(value.raw_num * c, value.raw_den * c)
        assert weight.ord_rf(scaled) == weight.ord_rf(value) == weight.ord_rf(lowest)
        assert weight.ord_rf(value) == weight.ord_poly(ref.num) - weight.ord_poly(ref.den)


# -- text helpers ---------------------------------------------------------------------


def test_parse_term_list_grammar():
    assert parse_term_list("a*b^2 + c") == [[("a", 1), ("b", 2)], [("c", 1)]]
    assert parse_term_list("a^-3") == [[("a", -3)]]
    with pytest.raises(UsageError):
        parse_term_list("a +")
    with pytest.raises(UsageError):
        parse_term_list("2*a")


def test_parse_fraction_text():
    from fractions import Fraction

    assert parse_fraction_text("1/3") == Fraction(1, 3)
    assert parse_fraction_text(" 2 ") == 2
    with pytest.raises(UsageError):
        parse_fraction_text("1.5e3x")
    with pytest.raises(UsageError):
        parse_fraction_text("1/0")
