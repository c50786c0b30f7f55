"""Acceptance gate: the eleven pinned criteria, every comparison exact.

Each test prints one pass/fail line (collected into a summary table at the
end of the run).  The conjectural pin is marked and non-blocking: if it ever
stops holding the test xfails instead of failing the gate.
"""

import random

from fractions import Fraction

import pytest

from concordia.basechange import SERIES_VARS, builtin
from concordia.catalog import (
    assemble_trefoil_from_skein,
    get,
    get_model,
    verify_skein_consistency,
)
from concordia.field2 import Poly2, RationalFunction
from concordia.homalg import homology_over_valuation, mat_mul
from concordia.ideals import FractionalIdeal, g_region
from concordia.invariants import (
    as_forward,
    connected_sum,
    f_plus,
    f_sigma,
    unknotting_bound,
    znat_bn,
)
from concordia.laurent import L, LaurentElement, P, Ring, V
from concordia.valuation import Order

from acceptance_log import record
from property_suites import ALL_SUITES

BN = Ring.BN
B_HALF = builtin("B", "1/2")


def test_criterion_1_trefoil_ideal():
    got = znat_bn(get_model("trefoil"))
    expected = FractionalIdeal.from_gens(BN, [L(), P(BN)])
    ok = got == expected  # extensional: both containments via Groebner
    record(1, "trefoil ideal equals <L, P> exactly", ok)
    assert ok


def test_criterion_2_trefoil_profile():
    rs = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
          Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    trefoil = get_model("trefoil")
    left = get_model("trefoil_left")
    ok = all(
        f_sigma(trefoil, builtin("B", r)) == Order.rational(r)
        and f_sigma(left, builtin("B", r)) == Order.rational(-r)
        for r in rs
    )
    record(2, "trefoil profile f_r = r and mirror f_r = -r at six rationals", ok)
    assert ok


def test_criterion_3_left_trefoil_structure():
    left = get_model("trefoil_left")
    summaries = homology_over_valuation(left.complex, B_HALF)
    free = sum(s.free_rank for s in summaries.values())
    torsion = [o for s in summaries.values() for o in s.torsion_ords]
    ideal = znat_bn(left)
    ideal_order = min(
        B_HALF.ord_of(g.num) - B_HALF.ord_of(g.den) for g in ideal.gens
    )
    ok = (
        free == 1
        and torsion == [Order.rational(Fraction(1, 2))]
        and ideal == FractionalIdeal.from_gens(BN, [LaurentElement.one(BN)])
        and ideal_order == Order.rational(0)
    )
    record(3, "mirror homology is free rank 1 + one ord-1/2 divisor; znat = <1>", ok)
    assert ok


def test_criterion_4_example_e_values():
    model = get_model("exampleE")
    ok = all(
        f_sigma(model, builtin("B", r)) == Order.rational(3 * r)
        for r in (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
    )
    ok = ok and all(
        f_sigma(model, builtin("B", r)) == Order.rational(1)
        for r in (Fraction(1, 3), Fraction(1, 2), Fraction(1))
    )
    ok = ok and f_plus(model) == 3
    record(4, "exampleE: f_r = 3r then 1 across the breakpoint; f_plus = 3", ok)
    assert ok


def test_criterion_5_base_change_orders():
    a = builtin("A")
    quartic = Poly2(SERIES_VARS, {(0, 2, 2, 4, 0, 0), (2, 0, 2, 4, 0, 0),
                                  (2, 2, 0, 4, 0, 0)})
    ok = a.pi_lambda() == (Order.rational(1), Order.rational(1))
    ok = ok and a.weight.leading_form_rf(a.sigma_P()) == RationalFunction(quartic)
    ok = ok and all(
        builtin("B", r).pi_lambda() == (Order.rational(1), Order.rational(r))
        for r in (Fraction(1, 8), Fraction(1, 2), Fraction(2, 3))
    )
    ok = ok and builtin("C").pi_lambda() == (Order.lex(1, 0), Order.lex(0, 1))
    d = builtin("D")
    ok = ok and d.sigma_P() == d.sigma_V()
    cp = builtin("Cprime")
    ok = ok and cp.apply(P()).is_zero() and cp.ord_of(L()) == Order.rational(1)
    record(5, "built-in base changes reproduce the pinned orders and forms", ok)
    assert ok


def test_criterion_6_skein_assembly():
    assembled = assemble_trefoil_from_skein()
    stored = get_model("trefoil")
    data = get("hopf_skein_data").extra
    ok = assembled.complex == stored.complex and assembled.cycle == stored.cycle
    zero = LaurentElement.zero(BN)
    ok = ok and mat_mul(data["X"], data["S_g"], zero) == ((P(BN),),)
    ok = ok and mat_mul(data["X"], data["S_delta"], zero) == ((L(),),)
    consistent, _ = verify_skein_consistency()
    ok = ok and consistent
    record(6, "skein cone reassembles the trefoil; composite identities hold", ok)
    assert ok


def test_criterion_7_connected_sum_homomorphism():
    trefoil = get_model("trefoil")
    left = as_forward(get_model("trefoil_left"))
    ok = f_sigma(connected_sum(trefoil, trefoil), B_HALF) == Order.rational(1)
    ok = ok and f_sigma(connected_sum(trefoil, left), B_HALF) == Order.rational(0)
    record(7, "f_1/2 adds under connected sum (1 and 0 on the two sums)", ok)
    assert ok


def test_criterion_8_unknotting_bound():
    rep = unknotting_bound(get_model("trefoil_left"), B_HALF)
    ok = rep.bound == 1 and rep.annihilation == [(1, 1, "pass")]
    record(8, "mirror unknotting bound tau/lambda = 1 with <L,P>^1 annihilation", ok)
    assert ok


def test_criterion_9_g_region():
    trefoil_ideal = FractionalIdeal.from_gens(BN, [L(), P(BN)])
    region = g_region(trefoil_ideal, 2, 2)
    full_box = {(g, d) for g in range(3) for d in range(3)}
    ok = full_box - region == {(0, 0)}
    e_ideal = FractionalIdeal.from_gens(Ring.FULL, [P(), V() ** 3])
    e_region = g_region(e_ideal, 1, 3)
    ok = ok and (0, 1) not in e_region and (0, 2) not in e_region
    ok = ok and (1, 0) in e_region and (0, 3) in e_region
    record(9, "g-regions: only (0,0) excluded for <L,P>; exampleE box as pinned", ok)
    assert ok


def test_criterion_10_property_suites():
    failures = []
    for i, (name, fn) in enumerate(ALL_SUITES):
        failures += fn(random.Random(977 + i), 1000)
    ok = failures == []
    record(10, "six randomized property suites, 1000 cases each, zero failures", ok)
    assert ok, failures[:5]


@pytest.mark.conjecture
def test_criterion_11_conjecture_pin():
    ideal = get("k34_conjectural").expected_ideal
    ok = not ideal.contains(L() * P(BN))
    record(11, "conjecture pin: L*P stays outside the K_{3,4} ideal", ok)
    if not ok:
        pytest.xfail("conjectural exclusion does not hold in this build")
