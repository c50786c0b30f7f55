"""Char-2 Laurent elements, the reduced quotient, and fraction parsing."""

import random

import pytest

from concordia.errors import DivisionByZero, RingMismatch, UsageError
from concordia.field2 import Poly2
from concordia.laurent import (
    L,
    LaurentElement,
    LaurentFraction,
    P,
    Q,
    Ring,
    V,
    VARS_FULL,
    clear_denominators,
    exact_quotient,
    format_laurent,
    format_laurent_pretty,
    from_poly,
    laurent_gcd,
    parse_laurent,
    parse_laurent_fraction,
    quotient_to_BN,
)

FULL, BN = Ring.FULL, Ring.BN


def rand_elt(rng, ring, nterms=4, span=3):
    terms = set()
    for _ in range(rng.randrange(nterms + 1)):
        t = [rng.randrange(-span, span + 1) for _ in range(4)]
        if ring is BN:
            t[0] = 0
        terms.add(tuple(t))
    return LaurentElement(ring, terms)


# -- ring structure -------------------------------------------------------------------


def test_addition_cancels():
    x = LaurentElement.monomial(FULL, 1, 0, 0, 0)
    assert (x + x).is_zero()
    assert x + LaurentElement.zero(FULL) == x


def test_bn_rejects_t0():
    with pytest.raises(RingMismatch):
        LaurentElement.monomial(BN, 1, 0, 0, 0)
    with pytest.raises(RingMismatch):
        P(FULL) + P(BN)


def test_units_are_monomials():
    m = LaurentElement.monomial(FULL, 2, -1, 0, 3)
    assert m.is_unit()
    assert (m * m.inverse()).is_one()
    assert not P(FULL).is_unit()
    with pytest.raises(DivisionByZero):
        P(FULL) ** -1


def test_frobenius_power():
    rng = random.Random(23)
    for _ in range(40):
        a = rand_elt(rng, FULL)
        assert a ** 2 == a * a
        assert a ** 5 == a * a * a * a * a


def test_named_constants_shapes():
    assert len(P(FULL).terms) == 4
    assert len(Q(FULL).terms) == 8
    assert len(V().terms) == 6
    assert len(L().terms) == 6
    assert V() == P(FULL) + LaurentElement(FULL, ((2, 0, 0, 0), (-2, 0, 0, 0)))


def test_quotient_map_folds_t0_into_t1():
    # T0^2 and T1^2 collide under the quotient, so Q loses both pairs.
    q_bn = quotient_to_BN(Q(FULL))
    assert q_bn == LaurentElement(
        BN, ((0, 0, 2, 0), (0, 0, -2, 0), (0, 0, 0, 2), (0, 0, 0, -2))
    )
    assert Q(BN) == q_bn
    assert L() == quotient_to_BN(V())


def test_quotient_is_a_ring_map():
    rng = random.Random(29)
    for _ in range(60):
        a, b = rand_elt(rng, FULL), rand_elt(rng, FULL)
        assert quotient_to_BN(a + b) == quotient_to_BN(a) + quotient_to_BN(b)
        assert quotient_to_BN(a * b) == quotient_to_BN(a) * quotient_to_BN(b)


# -- clearing denominators ------------------------------------------------------------


def test_clear_denominators_p_oracle():
    poly, mono = clear_denominators(P(FULL))
    assert mono == LaurentElement.monomial(FULL, 0, 1, 1, 1)
    assert poly == Poly2(
        VARS_FULL, ((0, 2, 2, 2), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    )


def test_clear_denominators_round_trip():
    rng = random.Random(31)
    for ring in (FULL, BN):
        slots = (0, 1, 2, 3) if ring is FULL else (1, 2, 3)
        for _ in range(60):
            a = rand_elt(rng, ring)
            poly, mono = clear_denominators(a)
            assert from_poly(poly, ring) == a * mono
            if a.is_zero():
                continue
            # minimality: wherever the clearing monomial is nontrivial, some
            # term of the polynomial touches exponent zero
            (mt,) = mono.terms
            for pos, slot in enumerate(slots):
                if mt[slot] > 0:
                    assert any(t[pos] == 0 for t in poly.terms)


# -- fractions ------------------------------------------------------------------------


def test_fraction_equality_cross_multiplies():
    a = LaurentFraction(P(BN), L())
    b = LaurentFraction(P(BN) * P(BN), L() * P(BN))
    assert a == b
    assert hash(a) == hash(b)


def test_fraction_reduced_pushes_units_into_numerator():
    t = LaurentElement.monomial(BN, 0, 2, -1, 0)
    f = LaurentFraction(P(BN) * t, t * t)
    r = f.reduced()
    assert r.den.is_one()
    assert r.num == P(BN) * t.inverse()
    assert f.is_integral()
    assert f.as_laurent() == P(BN) * t.inverse()


def test_fraction_not_integral():
    f = LaurentFraction(LaurentElement.one(BN), L())
    assert not f.is_integral()
    with pytest.raises(DivisionByZero):
        f.as_laurent()
    with pytest.raises(DivisionByZero):
        LaurentFraction(P(BN), LaurentElement.zero(BN))


def test_integrality_decides_by_exact_division_without_a_gcd(monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("integrality ran a gcd")

    monkeypatch.setattr("concordia.laurent.gcd", no_gcd)
    # a gcd of P^6 and L^3 over BN takes tens of seconds; one division does not
    with pytest.raises(UsageError, match="not integral over BN"):
        parse_laurent("P^6*L^-3", BN)
    f = LaurentFraction(P(BN) ** 6, L() ** 3)
    assert not f.is_integral()
    with pytest.raises(DivisionByZero):
        f.as_laurent()
    t = LaurentElement.monomial(BN, 0, 1, -2, 0)
    g = LaurentFraction(L() ** 4 * P(BN) * t, L() ** 3 * t * t)
    assert g.is_integral()
    assert g.as_laurent() == L() * P(BN) * t.inverse()
    assert parse_laurent("P^2*L*P^-1*L^-1 + T1*T1^-1", BN) == P(BN) + LaurentElement.one(BN)
    assert exact_quotient(L() ** 2, L() * P(BN)) is None


def test_fraction_reduction_random():
    rng = random.Random(37)
    for _ in range(40):
        num, den = rand_elt(rng, BN), rand_elt(rng, BN)
        if den.is_zero():
            continue
        f = LaurentFraction(num, den)
        assert f.reduced() == f


# -- parsing and formatting -------------------------------------------------------------


def test_parse_macros_and_vars():
    assert parse_laurent("P", FULL) == P(FULL)
    assert parse_laurent("V", FULL) == V()
    assert parse_laurent("V", BN) == L()  # V denotes its image in the quotient
    assert parse_laurent("L + P", BN) == L() + P(BN)
    assert parse_laurent("T1^2*T3^-1", BN) == LaurentElement.monomial(BN, 0, 2, 0, -1)
    assert parse_laurent("0", BN).is_zero()
    assert parse_laurent("1 + 1", BN).is_zero()


def test_parse_negative_macro_powers_make_fractions():
    f = parse_laurent_fraction("P^2*L^-1", BN)
    assert f == LaurentFraction(P(BN) ** 2, L())
    with pytest.raises(UsageError):
        parse_laurent("P*L^-1", BN)  # not integral


def test_parse_rejects_wrong_ring_names():
    with pytest.raises(UsageError):
        parse_laurent("T0", BN)
    with pytest.raises(UsageError):
        parse_laurent("L", FULL)
    with pytest.raises(UsageError):
        parse_laurent("nope", FULL)


def test_format_round_trip():
    rng = random.Random(41)
    for ring in (FULL, BN):
        for _ in range(60):
            a = rand_elt(rng, ring)
            assert parse_laurent(format_laurent(a), ring) == a


def test_format_pretty_names():
    assert format_laurent_pretty(P(BN)) == "P"
    assert format_laurent_pretty(L()) == "L"
    assert format_laurent_pretty(L() + P(BN)) == "L + P"
    assert format_laurent_pretty(V()) == "V"
    assert format_laurent_pretty(LaurentElement.zero(FULL)) == "0"
    assert format_laurent_pretty(LaurentElement.one(BN)) == "1"


def test_laurent_gcd():
    g = laurent_gcd(L() * P(BN), P(BN) ** 2)
    # gcd is determined up to a unit monomial; P must divide it and it must
    # divide both inputs
    q1 = LaurentFraction(L() * P(BN), g)
    q2 = LaurentFraction(P(BN) ** 2, g)
    assert q1.is_integral() and q2.is_integral()
    assert LaurentFraction(g, P(BN)).is_integral()
