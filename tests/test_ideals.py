"""Tests for ideal membership, Groebner reduction, and the g-region grids."""

import random

import pytest


from concordia.errors import (
    GroebnerDegreeCap,
    RingMismatch,
    UnsupportedPresentation,
    UsageError,
    ZeroElement,
)
from concordia.field2 import Poly2
from concordia.ideals import (
    FractionalIdeal,
    Packing,
    buchberger,
    degree_cap,
    g_region,
    groebner_for,
    laurent_member,
    module_quotient_rank1,
    parse_generators,
    poly_reduce,
    quotient_embedding_image,
    render_g_region,
    s_poly,
    saturation_poly,
    saturation_relations,
)
from concordia.laurent import L, LaurentElement, LaurentFraction, P, Ring, V

BN = Ring.BN
FULL = Ring.FULL
XY = ("x", "y")


def xy(text):
    return Poly2.parse(XY, text)


# -- saturation ------------------------------------------------------------------

def test_saturation_poly_splits_signs():
    sat = saturation_poly(P(BN))
    assert sat.vars == ("T1", "T2", "T3", "U1", "U2", "U3")
    assert sat.terms == frozenset({
        (1, 1, 1, 0, 0, 0),
        (1, 0, 0, 0, 1, 1),
        (0, 1, 0, 1, 0, 1),
        (0, 0, 1, 1, 1, 0),
    })


def test_saturation_relations_shape():
    rels = saturation_relations(BN)
    assert len(rels) == 3
    for i, rel in enumerate(rels):
        t = [0] * 6
        t[i] = t[3 + i] = 1
        assert rel.terms == frozenset({tuple(t), (0,) * 6})


# -- reduction and S-polynomials ----------------------------------------------------

def test_poly_reduce_oracles():
    basis = [xy("x + y")]
    assert poly_reduce(xy("x^2 + x*y"), basis).is_zero()
    assert poly_reduce(xy("x^2 + y^2"), basis).is_zero()  # (x+y)^2
    assert poly_reduce(xy("x"), [xy("y")]) == xy("x")
    assert poly_reduce(xy("x^2 + y"), basis) == xy("y^2 + y")


def test_s_poly_oracle():
    pk = Packing(2, 6)
    f, g = (pk.poly(xy(text)) for text in ("x^2 + y", "x*y + x"))
    lcm = pk.lcm(f[0], g[0])
    assert pk.unpack(lcm) == (2, 1)
    s = s_poly((f[0], f[1:]), (g[0], g[1:]), lcm)
    assert Poly2(XY, map(pk.unpack, s)) == xy("x^2 + y^2")


def test_buchberger_is_deterministic_under_shuffles():
    gens = [xy("x^2 + y"), xy("x*y + x"), xy("y^3 + 1")]
    expected = buchberger(gens)
    rng = random.Random(47)
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled) == expected


def test_buchberger_minimal_and_reduced():
    basis = buchberger([xy("x^2"), xy("x*y"), xy("x^2 + x*y")])
    lts = [g.leading_term() for g in basis]
    assert sorted(lts) == [(1, 1), (2, 0)]
    # no basis element contains a term divisible by another's leading term
    for i, g in enumerate(basis):
        for j, h in enumerate(basis):
            if i != j:
                assert all(
                    any(a < b for a, b in zip(t, h.leading_term()))
                    for t in g.terms
                )


def test_degree_cap_aborts_blowup(monkeypatch):
    with pytest.raises(GroebnerDegreeCap):
        buchberger([xy("x^2 + y"), xy("x*y + x")], cap=1)
    monkeypatch.setenv("CONCORDIA_GB_MAXDEG", "1")
    assert degree_cap() == 1
    with pytest.raises(GroebnerDegreeCap):
        buchberger([xy("x^2 + y"), xy("x*y + x")])
    monkeypatch.delenv("CONCORDIA_GB_MAXDEG")
    assert degree_cap() == 128


def test_groebner_cache_returns_same_basis():
    a = groebner_for(BN, [L(), P(BN)])
    b = groebner_for(BN, [P(BN), L()])
    assert a is b  # one cache entry per generator *set*


# -- Laurent membership ----------------------------------------------------------------

def test_membership_in_the_trefoil_ideal():
    gens = [L(), P(BN)]
    one = LaurentElement.one(BN)
    assert not laurent_member(one, gens, BN)
    assert laurent_member(L(), gens, BN)
    assert laurent_member(P(BN), gens, BN)
    assert laurent_member(L() + P(BN), gens, BN)
    assert laurent_member(L() * P(BN), gens, BN)
    assert laurent_member(LaurentElement.zero(BN), gens, BN)


def test_membership_sees_through_units():
    t1 = LaurentElement.monomial(BN, 0, 1, 0, 0)
    # L is a unit multiple of T1*L, which only saturation can discover
    assert laurent_member(L(), [t1 * L()], BN)
    assert laurent_member(t1.inverse() * P(BN), [P(BN)], BN)


def test_principal_membership_divides_exactly_without_a_gcd(monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("principal membership ran a gcd")

    monkeypatch.setattr("concordia.laurent.gcd", no_gcd)
    # a gcd of P^6 and L^3 over BN takes tens of seconds; one division does not
    assert not laurent_member(P(BN) ** 6, [L() ** 3], BN)
    assert laurent_member(L() ** 4 * P(BN), [L() ** 3], BN)
    t1 = LaurentElement.monomial(BN, 0, 1, 0, 0)
    assert laurent_member(t1.inverse() * P(BN), [t1 * P(BN)], BN)
    assert laurent_member(P(BN) ** 2, [t1], BN)


def test_membership_in_the_v_cubed_ideal():
    gens = [P(FULL), V() ** 3]
    assert laurent_member(P(FULL), gens, FULL)
    assert laurent_member(V() ** 3, gens, FULL)
    assert not laurent_member(V(), gens, FULL)
    assert not laurent_member(V() ** 2, gens, FULL)


# -- fractional ideals ---------------------------------------------------------------------

def test_from_gens_validation():
    with pytest.raises(ZeroElement):
        FractionalIdeal.from_gens(BN, [LaurentElement.zero(BN)])
    with pytest.raises(RingMismatch):
        FractionalIdeal.from_gens(BN, [P(FULL)])


def test_ideal_equality_is_extensional():
    a = FractionalIdeal.from_gens(BN, [L(), P(BN)])
    b = FractionalIdeal.from_gens(BN, [P(BN), L(), L() + P(BN)])
    assert a == b
    assert a != FractionalIdeal.unit(BN)


def test_equal_ideals_hash_alike():
    a = FractionalIdeal.from_gens(BN, [L(), P(BN)])
    b = FractionalIdeal.from_gens(BN, [P(BN), L()])
    c = FractionalIdeal.from_gens(BN, [L(), P(BN), L() + P(BN)])
    assert len({a, b, c}) == 1
    assert len({a, FractionalIdeal.unit(BN)}) == 2


def test_equal_fractional_ideals_hash_alike():
    one = LaurentElement.one(BN)
    a = FractionalIdeal.from_gens(BN, [LaurentFraction(one, L()), LaurentFraction(one, P(BN))])
    b = FractionalIdeal.from_gens(BN, [
        LaurentFraction(one, L()), LaurentFraction(L() + P(BN), L() * P(BN)),
    ])
    c = FractionalIdeal.from_gens(BN, [LaurentFraction(P(BN), L() * P(BN))])
    d = FractionalIdeal.from_gens(BN, [LaurentFraction(one, L())])
    assert a == b and c == d
    assert len({a, b, c, d}) == 2


def test_unit_ideal_contains_ring_elements():
    unit = FractionalIdeal.unit(BN)
    assert unit.contains(L() ** 2 + P(BN))
    assert unit.contains(LaurentFraction(P(BN) * L(), L()))  # reduces to P
    assert not unit.contains(LaurentFraction(P(BN), L()))


def test_fractional_generators():
    ideal = FractionalIdeal.from_gens(BN, [LaurentFraction(P(BN) ** 2, L())])
    assert ideal.contains(LaurentFraction(P(BN) ** 2, L()))
    assert ideal.contains(P(BN) ** 2)  # L * generator
    assert not ideal.contains(P(BN))


def test_contains_checks_rings():
    with pytest.raises(RingMismatch):
        FractionalIdeal.unit(BN).contains(P(FULL))


# -- rank-1 quotients ------------------------------------------------------------------------

def test_module_quotient_swaps_the_relation():
    ideal = module_quotient_rank1((L(), P(BN)), BN)
    assert ideal == FractionalIdeal.from_gens(BN, [P(BN), L()])
    with pytest.raises(UnsupportedPresentation):
        module_quotient_rank1((L(),), BN)
    with pytest.raises(UnsupportedPresentation):
        module_quotient_rank1((L(), P(BN), L()), BN)


def test_quotient_embedding_kills_the_relation():
    one = LaurentElement.one(BN)
    zero = LaurentElement.zero(BN)
    rel = (L(), P(BN))
    assert quotient_embedding_image(rel, (one, zero), BN) == LaurentFraction(P(BN))
    assert quotient_embedding_image(rel, (zero, one), BN) == LaurentFraction(L())
    assert quotient_embedding_image(rel, rel, BN).is_zero()
    with pytest.raises(UnsupportedPresentation):
        quotient_embedding_image(rel, (one,), BN)


# -- g-regions ---------------------------------------------------------------------------------

def test_g_region_for_the_trefoil_ideal():
    ideal = FractionalIdeal.from_gens(BN, [L(), P(BN)])
    region = g_region(ideal, 2, 2)
    expected = {(g, d) for g in range(3) for d in range(3)} - {(0, 0)}
    assert region == expected


def test_g_region_bounds_are_validated():
    ideal = FractionalIdeal.unit(BN)
    with pytest.raises(UsageError):
        g_region(ideal, -1, 0)
    with pytest.raises(UsageError):
        g_region(ideal, 0, -1)


def test_render_g_region_grid():
    text = render_g_region({(0, 1), (1, 0), (1, 1)}, 1, 1)
    assert text.splitlines() == [
        "g\\d 0 1",
        "  0 . #",
        "  1 # #",
    ]


# -- generator parsing --------------------------------------------------------------------------

def test_parse_generators_expands_macros():
    gens = parse_generators("u, w", BN)
    assert gens == [LaurentFraction(L()), LaurentFraction(P(BN))]
    gens_full = parse_generators("u, w", FULL)
    assert gens_full == [LaurentFraction(V()), LaurentFraction(P(FULL))]
    assert parse_generators("u^3*w", FULL) == [LaurentFraction(V() ** 3 * P(FULL))]


def test_parse_generators_skips_empty_chunks():
    assert len(parse_generators("L,,P", BN)) == 2
    assert parse_generators("", BN) == []
