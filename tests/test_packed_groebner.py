"""The packed-monomial Groebner engine: encoding, pinned bases, field widths."""

import hashlib
import itertools
import random

import pytest

from concordia import ideals
from concordia.field2 import Poly2, divides, grevlex_key
from concordia.ideals import (
    FractionalIdeal,
    Packing,
    buchberger,
    g_region,
    parse_generators,
    saturation_poly,
    saturation_relations,
)
from concordia.laurent import Ring, parse_laurent_fraction

BN = Ring.BN
FULL = Ring.FULL


# -- the encoding --------------------------------------------------------------------

def _random_monomials(rng, n, degree, count):
    out = []
    for _ in range(count):
        t = [0] * n
        for _ in range(rng.randint(0, degree)):
            t[rng.randrange(n)] += 1
        out.append(tuple(t))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
def test_packed_ints_order_multiply_divide_and_lcm_like_exponent_tuples(n):
    rng = random.Random(n)
    pk = Packing(n, 2 * 12)
    monomials = _random_monomials(rng, n, 12, 40) + [(0,) * n]
    packed = {t: pk.pack(t) for t in monomials}
    for a, b in itertools.product(monomials, repeat=2):
        pa, pb = packed[a], packed[b]
        assert pk.unpack(pa) == a
        assert (pa < pb) == (grevlex_key(a) < grevlex_key(b))
        assert pa + pb == pk.pack(tuple(x + y for x, y in zip(a, b)))
        assert ideals._divides(pa, pb, pk.guard) == divides(a, b)
        assert pk.lcm(pa, pb) == pk.pack(tuple(max(x, y) for x, y in zip(a, b)))
        assert pk.degree(pa) == sum(a)


def test_a_monomial_beyond_the_capacity_is_refused():
    pk = Packing(3, 6)
    assert pk.capacity == 7
    pk.pack((3, 2, 2))
    with pytest.raises(ValueError):
        pk.pack((4, 2, 2))


# -- reduced bases pinned to the tuple engine ------------------------------------------

def _digest(basis):
    text = repr([(g.vars, sorted(g.terms)) for g in basis])
    return hashlib.sha256(text.encode()).hexdigest()


# (ring, generators, SHA-256 of the reduced basis, S-polynomials the tuple engine
# reduced), recorded from the tuple-based engine this one replaced.  A unit
# scaling does not change the saturated ideal, so the three share one basis.
TREFOIL = "51ade7458f2edea7d8623bfaa7222bfd5ce8ccbff5d0104388e50eddd61313ff"
EXAMPLE_E = "eff22fdc2f7be989b247bd8707dc1b51bca96b20f79426cea0967c8b8e64698f"
K34 = "33193d16258ae88d48782bd79c56b734ac84acd8f566be6c7c4c02ac557a85fc"
PINS = {
    "trefoil": (BN, "L, P", TREFOIL, 84),
    "trefoil, unit T1/T2": (BN, "T1*T2^-1*L, T1*T2^-1*P", TREFOIL, 93),
    "trefoil, unit T3/T1": (BN, "T1^-1*T3*L, T1^-1*T3*P", TREFOIL, 87),
    "exampleE": (FULL, "P, V^3", EXAMPLE_E, 43),
    "exampleE, unit T0/T2": (FULL, "T0*T2^-1*P, T0*T2^-1*V^3", EXAMPLE_E, 67),
    "exampleE, unit T3/T1": (FULL, "T1^-1*T3*P, T1^-1*T3*V^3", EXAMPLE_E, 63),
    "k34": (BN, "L^3, L^2*P, L*P^2, P^3, P^2 + T1^-2*P^2 + L^2", K34, 391),
    "k34, unit T2": (BN, "T2*L^3, T2*L^2*P, T2*L*P^2, T2*P^3, "
                         "T2*P^2 + T2*T1^-2*P^2 + T2*L^2", K34, 431),
    "k34, unit T3/T1": (BN, "T1^-1*T3*L^3, T1^-1*T3*L^2*P, T1^-1*T3*L*P^2, T1^-1*T3*P^3, "
                            "T1^-1*T3*P^2 + T1^-3*T3*P^2 + T1^-1*T3*L^2", K34, 393),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_reduced_basis_and_pair_count_match_the_tuple_engine(monkeypatch, name):
    ring, text, digest, s_polys = PINS[name]
    ideal = FractionalIdeal.from_gens(ring, parse_generators(text, ring))
    _, cleared = ideal._cleared()
    polys = [saturation_poly(g) for g in cleared] + saturation_relations(ring)
    calls = []
    s_poly = ideals.s_poly

    def counting(*args):
        calls.append(args)
        return s_poly(*args)

    monkeypatch.setattr(ideals, "s_poly", counting)
    basis = buchberger(polys)
    assert _digest(basis) == digest
    # the pair criteria prune at least as much as they did
    assert len(calls) <= s_polys
    assert all(isinstance(g, Poly2) for g in basis)


# -- fields wide enough for every degree a call reaches ----------------------------------

def _set_cap(monkeypatch, cap):
    """Set CONCORDIA_GB_MAXDEG, or leave the default when cap is None."""
    if cap is None:
        monkeypatch.delenv("CONCORDIA_GB_MAXDEG", raising=False)
    else:
        monkeypatch.setenv("CONCORDIA_GB_MAXDEG", cap)


def _cells(g_max, d_max, rule):
    return {(g, d) for g in range(g_max + 1) for d in range(d_max + 1) if rule(g, d)}


def _l2_lp(g, d):
    # the grid of <L^2, L*P>, as the tuple engine printed it
    return d >= 2 or (d == 1 and g >= 1)


@pytest.mark.parametrize("cap, g_max, d_max", [
    # a cap of 9 packs the basis in 5-bit fields; P^40 has degree 120
    ("9", 40, 3),
    # the default cap packs it in 9-bit fields; P^200 has degree 600
    (None, 200, 2),
])
def test_g_region_walks_past_the_width_the_basis_was_packed_in(
        monkeypatch, empty_cache, cap, g_max, d_max):
    _set_cap(monkeypatch, cap)
    ideal = FractionalIdeal.from_gens(BN, parse_generators("L^2, L*P", BN))
    assert g_region(ideal, g_max, d_max) == _cells(g_max, d_max, _l2_lp)


# (ring, generators, cap, element, answer), answers recorded from the tuple
# engine; each element's degree exceeds what the cap's basis was packed for
WIDE_MEMBERSHIP = [
    (BN, "L, P", "6", "T1^40*L", True),
    (BN, "L, P", "6", "T2^-40*P^2", True),
    (BN, "L, P", "6", "T3^50", False),
    (BN, "L, P", "6", "T1^20*T2^-30*L*P", True),
    (FULL, "P, V^3", "7", "V^20", True),
    (FULL, "P, V^3", "7", "T0^40*V^2", False),
    (FULL, "P, V^3", "7", "T1^-35*V^2*P", True),
    (BN, "L, P", None, "T1^600*L", True),
    (BN, "L, P", None, "T1^600", False),
]


@pytest.mark.parametrize("ring, gens, cap, element, answer", WIDE_MEMBERSHIP)
def test_membership_with_exponents_past_the_basis_width(
        monkeypatch, empty_cache, ring, gens, cap, element, answer):
    _set_cap(monkeypatch, cap)
    ideal = FractionalIdeal.from_gens(ring, parse_generators(gens, ring))
    assert ideal.contains(parse_laurent_fraction(element, ring)) is answer
