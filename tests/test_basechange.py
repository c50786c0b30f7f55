"""Tests for the builtin and custom base changes."""

import random

from fractions import Fraction

import pytest

from concordia import basechange, field2
from concordia.basechange import (
    BUILTIN_NAMES,
    SERIES_VARS,
    BaseChange,
    b_family,
    builtin,
    custom,
    series_poly,
)
from concordia.errors import (
    DegenerateBaseChange,
    InvalidParameter,
    MissingParameter,
    RingMismatch,
    UnknownExample,
    UsageError,
)
from concordia.field2 import Poly2, RationalFunction
from concordia.laurent import L, LaurentElement, LaurentFraction, P, Q, Ring, V
from concordia.valuation import Order


def test_builtin_names_all_construct():
    for name in BUILTIN_NAMES:
        sigma = builtin(name, r=Fraction(1, 2)) if name == "B" else builtin(name)
        assert sigma.name == name
    with pytest.raises(UnknownExample):
        builtin("E")


def test_a_orders_and_leading_form():
    sigma = builtin("A")
    pi, lam = sigma.pi_lambda()
    assert pi == Order.rational(1)
    assert lam == Order.rational(1)
    # sigma(P) reduces to a polynomial whose lowest stratum is the
    # elementary symmetric combination of the squared parameters
    expected = series_poly("q1^2*q2^2*x^4 + q1^2*q3^2*x^4 + q2^2*q3^2*x^4")
    assert sigma.weight.leading_form_rf(sigma.sigma_P()) == expected
    assert sigma.sigma_P() == series_poly(
        "q1^2*q2^2*x^4 + q1^2*q3^2*x^4 + q2^2*q3^2*x^4 + q1^2*q2^2*q3^2*x^6"
    ) / series_poly("1 + q1*x + q2*x + q3*x + q1*q2*x^2 + q1*q3*x^2 + q2*q3*x^2 + q1*q2*q3*x^3")


def test_b_orders_track_r():
    for r in (Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        sigma = builtin("B", r=r)
        pi, lam = sigma.pi_lambda()
        assert pi == Order.rational(1)
        assert lam == Order.rational(r)


def test_b_sigma_p_closed_form():
    sigma = builtin("B", r=Fraction(1, 2))
    num = series_poly("q2^4*x^4 + q1*q2^4*u*x^4")
    den = series_poly("1 + q2^2*x^2")
    assert sigma.sigma_P() == num / den


def test_b_parameter_validation():
    with pytest.raises(MissingParameter):
        builtin("B")
    for bad in (0, 2, Fraction(-1, 2), Fraction(9, 8)):
        with pytest.raises(InvalidParameter):
            builtin("B", r=bad)
    # string rationals coerce through Fraction
    assert builtin("B", r="2/3").params["r"] == Fraction(2, 3)


def test_c_is_lexicographic():
    sigma = builtin("C")
    pi, lam = sigma.pi_lambda()
    assert pi == Order.lex(1, 0)
    assert lam == Order.lex(0, 1)
    assert lam < pi  # the second slot only matters after the first


def test_cprime_is_degenerate():
    sigma = builtin("Cprime")
    assert sigma.degenerate
    assert sigma.sigma_P().is_zero()
    assert sigma.ord_of(L()) == Order.rational(1)
    with pytest.raises(DegenerateBaseChange):
        sigma.pi_lambda()


def test_d_collapses_v_to_p():
    sigma = builtin("D")
    assert sigma.nonorientable_valid()
    assert sigma.sigma_P() == sigma.sigma_V()
    pi, lam = sigma.pi_lambda()
    assert pi == lam == Order.rational(1)


def test_only_d_is_nonorientable_valid():
    flags = {}
    for name in BUILTIN_NAMES:
        sigma = builtin(name, r=Fraction(1, 2)) if name == "B" else builtin(name)
        flags[name] = sigma.nonorientable_valid()
    assert flags == {"A": False, "B": False, "C": False, "Cprime": False, "D": True}


def test_builtins_factor_through_reduced_ring():
    for name in BUILTIN_NAMES:
        sigma = builtin(name, r=Fraction(1, 2)) if name == "B" else builtin(name)
        assert sigma.reduced_valid()
        sigma.apply(L())  # must not raise


def test_apply_is_a_ring_map():
    rng = random.Random(43)
    sigma = builtin("B", r=Fraction(1, 3))
    pool = [P(Ring.BN), L(), Q(Ring.BN), LaurentElement.one(Ring.BN)]
    for _ in range(25):
        a = rng.choice(pool) ** rng.randrange(0, 3)
        b = rng.choice(pool)
        assert sigma.apply(a + b) == sigma.apply(a) + sigma.apply(b)
        assert sigma.apply(a * b) == sigma.apply(a) * sigma.apply(b)


def test_apply_fraction_divides_images():
    sigma = builtin("A")
    frac = LaurentFraction(P(Ring.FULL) * P(Ring.FULL), V())
    assert sigma.apply(frac) == sigma.sigma_P() ** 2 / sigma.sigma_V()


def test_apply_rejects_bn_elements_when_t0_differs():
    sigma = custom({"T0": "1 + x", "T1": "1 + y"}, {"x": Fraction(1, 4), "y": Fraction(1, 4)})
    sigma.apply(P(Ring.FULL))  # the full ring is fine
    with pytest.raises(RingMismatch):
        sigma.apply(P(Ring.BN))


def test_custom_defaults_and_validation():
    sigma = custom({"T2": "1 + x", "T3": "1 + x"}, {"x": Fraction(1, 4)})
    assert sigma.nonorientable_valid()  # T0 defaulted to 1
    assert sigma.sigma_P() == builtin("D").sigma_P()
    with pytest.raises(UsageError):
        custom({"T9": "1 + x"}, {"x": Fraction(1, 4)})


def test_custom_lex_pairs():
    sigma = custom(
        {"T0": "1 + y", "T1": "1 + y", "T2": "1 + x", "T3": "1 + x"},
        {"x": (Fraction(1, 4), 0), "y": (0, Fraction(1, 4))},
        lex_pairs=True,
    )
    assert sigma.pi_lambda() == builtin("C").pi_lambda()


def test_constant_images_auto_flag_degenerate():
    sigma = custom({}, {"x": Fraction(1, 4)})  # everything maps to 1
    assert sigma.degenerate
    with pytest.raises(DegenerateBaseChange):
        sigma.pi_lambda()


def test_images_must_be_nonzero_and_four():
    one = series_poly("1")
    with pytest.raises(InvalidParameter):
        BaseChange("bad", (one, one, one), builtin("D").weight)
    with pytest.raises(InvalidParameter):
        BaseChange("bad", (one, one, one, series_poly("0")), builtin("D").weight)


def test_describe_mentions_parameters():
    assert builtin("A").describe() == "A"
    assert builtin("B", r=Fraction(1, 2)).describe() == "B (r = 1/2)"


# -- apply against the general-gcd reference -------------------------------------

def _reference_apply(sigma, x):
    """sigma(x) assembled over the common denominator prod n_i^neg_i * d_i^pos_i,
    where n_i/d_i = sigma(T_i), and reduced by the general gcd."""
    if isinstance(x, LaurentFraction):
        return _reference_apply(sigma, x.num) / _reference_apply(sigma, x.den)
    one = Poly2.one(SERIES_VARS)
    pos = [max(max((t[i] for t in x.terms), default=0), 0) for i in range(4)]
    neg = [max(-min((t[i] for t in x.terms), default=0), 0) for i in range(4)]
    num = Poly2.zero(SERIES_VARS)
    for term in x.terms:
        prod = one
        for i, (e, img) in enumerate(zip(term, sigma.images)):
            prod = prod * img.num ** (e + neg[i]) * img.den ** (pos[i] - e)
        num = num + prod
    den = one
    for i, img in enumerate(sigma.images):
        den = den * img.num ** neg[i] * img.den ** pos[i]
    return RationalFunction(num, den)


def _random_element(rng, ring):
    terms = set()
    for _ in range(rng.randrange(1, 5)):
        t = [rng.randint(-4, 4) for _ in range(4)]
        if ring is Ring.BN:
            t[0] = 0
        terms.add(tuple(t))
    return LaurentElement(ring, terms)


def _builtins():
    yield from (builtin(name) for name in ("A", "C", "Cprime", "D"))
    yield from (builtin("B", r=r) for r in (Fraction(1, 8), Fraction(1, 3), Fraction(1)))


def _rf(num, den="1"):
    return series_poly(num) / series_poly(den)


def _customs():
    """Images that are reducible, monomial, shared between T_i, or fractions."""
    quarter = Fraction(1, 4)
    weights = {"x": quarter, "y": quarter}
    yield custom({"T0": "x*y", "T1": "1 + x", "T2": "1 + x^2", "T3": "1 + x + y + x*y"},
                 weights)
    yield custom({"T0": "1 + x", "T1": "1 + x", "T2": "1 + x + y + x*y", "T3": "y"}, weights)
    yield custom({"T0": "x^2 + y^2", "T1": "x^2 + y^2", "T2": "x + y", "T3": "x"}, weights)
    images = (_rf("1 + x", "1 + y"), _rf("1 + x", "1 + y"), _rf("1 + x^2", "y"),
              _rf("x + y", "1 + x"))
    yield BaseChange("fractions", images, builtin("C").weight)


def test_apply_matches_the_general_gcd_reference():
    rng = random.Random(11)
    for sigma in [*_builtins(), *_customs()]:
        rings = (Ring.FULL, Ring.BN) if sigma.reduced_valid() else (Ring.FULL,)
        for ring in rings:
            for _ in range(12):
                x = _random_element(rng, ring)
                assert sigma.apply(x) == _reference_apply(sigma, x), (sigma.name, x)
            for _ in range(3):
                frac = LaurentFraction(_random_element(rng, ring), _random_element(rng, ring))
                if _reference_apply(sigma, frac.den).is_zero():
                    continue
                assert sigma.apply(frac) == _reference_apply(sigma, frac), (sigma.name, frac)


def test_apply_reduces_shared_and_reducible_image_factors():
    # sigma(T1^-2 * T2) = (1 + x^2) / (1 + x)^2 = 1 under T1 -> 1 + x, T2 -> 1 + x^2
    sigma = next(_customs())
    x = LaurentElement.monomial(Ring.FULL, 0, -2, 1, 0)
    assert sigma.apply(x) == _rf("1")
    # (1 + x + y + x*y) / (1 + x) = 1 + y
    x = LaurentElement.monomial(Ring.FULL, 0, -1, 0, 1)
    assert sigma.apply(x) == _rf("1 + y")
    assert [irreducible for _, irreducible in sigma._factors] == [False, True, False, False]


def test_builtin_images_apply_without_a_gcd(monkeypatch):
    sigmas = list(_builtins())
    for sigma in sigmas:
        assert all(irreducible for _, irreducible in sigma._factors)

    def boom(a, b):
        raise AssertionError("general gcd called while applying a builtin base change")

    monkeypatch.setattr(field2, "gcd", boom)
    monkeypatch.setattr(basechange, "gcd", boom)
    rng = random.Random(12)
    for sigma in sigmas:
        for ring in (Ring.FULL, Ring.BN):
            for _ in range(10):
                sigma.apply(_random_element(rng, ring))
        for x in (P(Ring.FULL), V(), L(), Q(Ring.BN), P(Ring.BN) ** 3 * L()):
            sigma.apply(x)


def test_b_family_shares_the_memo_and_the_factor_flags():
    family = builtin("B", r=Fraction(1, 2))
    member = b_family(Fraction(1, 3), family)
    assert member._memo is family._memo and member._factors is family._factors
    assert member.pi_lambda() == (Order.rational(1), Order.rational(Fraction(1, 3)))
    assert builtin("B", r=Fraction(1, 3))._factors is not family._factors
