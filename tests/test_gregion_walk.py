"""The g-region walk against per-cell membership, and how many bases it builds."""

import pytest

from concordia import catalog, ideals
from concordia.ideals import FractionalIdeal, g_region, groebner_for, parse_generators
from concordia.laurent import L, LaurentElement, LaurentFraction, P, Ring, V, parse_laurent_fraction

BN = Ring.BN
FULL = Ring.FULL


def _ideal(ring, text):
    return FractionalIdeal.from_gens(ring, parse_generators(text, ring))


def _counted(monkeypatch, name):
    calls = []
    original = getattr(ideals, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ideals, name, counting)
    return calls


CASES = {
    "trefoil": (lambda: catalog.get("trefoil").expected_ideal, 6),
    "exampleE": (lambda: catalog.get("exampleE").expected_ideal, 6),
    "k34": (lambda: catalog.get("k34_conjectural").expected_ideal, 4),
    "principal P over FULL": (lambda: _ideal(FULL, "P"), 6),
    "principal L over BN": (lambda: _ideal(BN, "L"), 6),
    "fractional over BN": (lambda: _ideal(BN, "L^2, P*L^-1"), 6),
    "fractional over FULL": (lambda: _ideal(FULL, "P*V^-1, V^3*P^-2"), 6),
    "unit-scaled exampleE": (lambda: _ideal(FULL, "T0*T2^-1*P, T1^-1*T3*V^3"), 6),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_equals_per_cell_membership(name):
    make, box = CASES[name]
    ideal = make()
    p = P(ideal.ring)
    v = V() if ideal.ring is FULL else L()
    per_cell = {(g, d) for g in range(box + 1) for d in range(box + 1)
                if ideal.contains(p ** g * v ** d)}
    assert g_region(ideal, box, box) == per_cell


@pytest.mark.parametrize("name", ["trefoil", "exampleE", "principal L over BN",
                                  "fractional over FULL"])
def test_one_g_region_call_builds_one_basis(monkeypatch, empty_cache, name):
    calls = _counted(monkeypatch, "groebner_for")
    make, box = CASES[name]
    g_region(make(), box, box)
    # a principal ideal decides each cell by exact division, with no basis
    assert len(calls) == (0 if name.startswith("principal") else 1)


def test_integral_elements_with_denominators_reuse_the_generators_basis(
        monkeypatch, empty_cache):
    ideal = catalog.get("k34_conjectural").expected_ideal
    runs = _counted(monkeypatch, "buchberger")
    for text in ("L^4*P^2*L^-2*P^-1", "L^3*P^2*L^-1*P^-1"):
        assert ideal.contains(parse_laurent_fraction(text, BN))
    assert len(runs) == 1


def test_the_basis_cache_is_bounded_and_least_recently_used(monkeypatch, empty_cache):
    runs = _counted(monkeypatch, "buchberger")
    gens = [[L()], [P(BN)], [L() + P(BN)], [L() ** 2], [P(BN) ** 2], [L() * P(BN)]]
    for g in gens:
        groebner_for(BN, g)
        assert len(empty_cache) <= ideals._GB_CACHE_SIZE
    assert len(runs) == len(gens)
    # the last four are held; reading the oldest of them makes it the newest
    for g in gens[2:]:
        groebner_for(BN, g)
    assert len(runs) == len(gens)
    groebner_for(BN, gens[2])
    groebner_for(BN, gens[0])           # a miss that evicts gens[3], not gens[2]
    assert len(runs) == len(gens) + 1
    groebner_for(BN, gens[2])
    assert len(runs) == len(gens) + 1
    groebner_for(BN, gens[3])
    assert len(runs) == len(gens) + 2


def test_non_integral_elements_reuse_the_generators_basis(monkeypatch, empty_cache):
    ideal = catalog.get("k34_conjectural").expected_ideal
    runs = _counted(monkeypatch, "buchberger")
    for text in ("L^4*P^-1", "L^5*P^-2", "P^6*L^-3"):
        assert not ideal.contains(parse_laurent_fraction(text, BN))
    assert len(runs) <= 1
    # the integral path is unchanged and shares the same basis
    assert ideal.contains(parse_laurent_fraction("L^3", BN))
    assert not ideal.contains(parse_laurent_fraction("L*P", BN))
    assert len(runs) == 1


def _contains_by_own_basis(ideal, x):
    """Membership as it was decided before: x = a / b is in the ideal iff
    a * D is in the ideal of the generators cleared times b * D, a basis of
    its own for each denominator."""
    x = x.reduced()
    dens = [g.den for g in ideal.gens]
    prod_all = LaurentElement.one(ideal.ring)
    for d in dens:
        prod_all = prod_all * d
    cleared = []
    for i, g in enumerate(ideal.gens):
        rest = x.den
        for j, d in enumerate(dens):
            if j != i:
                rest = rest * d
        cleared.append(g.num * rest)
    return ideals.laurent_member(x.num * prod_all, cleared, ideal.ring)


# elements num / den as functions of P and V (L over BN), true and false
# answers alike, chosen where a basis per denominator stays cheap
MEMBERSHIP = {
    "L^2, P*L^-1": (BN, [lambda p, v: (p * p, v), lambda p, v: (v * p, p + v)]),
    "P*V^-1, V^3*P^-2": (FULL, [lambda p, v: (v ** 3, p), lambda p, v: ((p + v) ** 2, p)]),
}


@pytest.mark.parametrize("gens", sorted(MEMBERSHIP))
def test_membership_with_denominators_matches_a_basis_per_denominator(gens):
    ring, elements = MEMBERSHIP[gens]
    ideal = _ideal(ring, gens)
    answers = []
    for element in elements:
        x = LaurentFraction(*element(P(ring), V() if ring is FULL else L()))
        answers.append(ideal.contains(x))
        assert answers[-1] == _contains_by_own_basis(ideal, x), x
    assert True in answers and False in answers


def test_a_denominator_with_a_monomial_factor_is_divided_exactly():
    # T1 + T1*T2 has no negative exponent, so clearing leaves T1 in it
    w = LaurentElement.monomial(BN, 0, 1, 0, 0) + LaurentElement.monomial(BN, 0, 1, 1, 0)
    ideal = _ideal(BN, "L, P")
    assert ideal.contains(LaurentFraction(L() * w, w * LaurentElement.monomial(BN, 0, 2, 0, 0)))
    assert not ideal.contains(LaurentFraction(L(), w))
