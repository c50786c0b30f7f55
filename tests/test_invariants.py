"""Tests for the invariant pipeline: znat, f, profiles, bounds, and sums."""

from fractions import Fraction

import pytest

from concordia import catalog
from concordia.basechange import builtin
from concordia.errors import (
    CycleInTorsion,
    DirectionMismatch,
    IntegrityError,
    MissingSignature,
    NonIntegral,
    NotNonorientableValid,
    RankNotOne,
    RingMismatch,
    UnsupportedPresentation,
    UsageError,
    ValueGroupMismatch,
)
from concordia.homalg import (
    ChainComplex,
    DistinguishedCycle,
    K_TO_UNKNOT,
    UNKNOT_TO_K,
)
from concordia.ideals import FractionalIdeal
from concordia.invariants import (
    KnotModel,
    adjusted_genus,
    as_forward,
    connected_sum,
    describe_bn_ideal,
    eta,
    eta_bound,
    f_plus,
    f_profile,
    f_sigma,
    gordon_litherland_bound,
    invariant_report,
    lex_ceiling,
    slice_genus_bound,
    unknotting_bound,
    znat_bn,
    znat_valuation,
)
from concordia.laurent import L, LaurentElement, P, Ring, V
from concordia.valuation import Order

BN = Ring.BN
ZERO = LaurentElement.zero(BN)
ONE = LaurentElement.one(BN)
B_HALF = builtin("B", r=Fraction(1, 2))


def trefoil():
    return catalog.get_model("trefoil")


def left_trefoil():
    return catalog.get_model("trefoil_left")


def example_e():
    return catalog.get_model("exampleE")


# -- cobordism accounting ---------------------------------------------------------

def test_adjusted_genus_oracle():
    assert adjusted_genus(-2, 1, 0) == Fraction(3, 2)
    assert adjusted_genus(0, 0, 0) == 0
    with pytest.raises(UsageError):
        adjusted_genus(0, -1, 0)


def test_eta_integrality():
    assert eta(1, 1, 2) == 1
    assert eta(0, 2, 4) == 0
    with pytest.raises(NonIntegral):
        eta(1, 0, 1)


# -- znat over a valuation ring ------------------------------------------------------

def test_znat_forward_orders():
    assert f_sigma(trefoil(), B_HALF) == Order.rational(Fraction(1, 2))
    for r in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
              Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        assert f_sigma(trefoil(), builtin("B", r=r)) == Order.rational(r)


def test_znat_backward_orders():
    for r in (Fraction(1, 8), Fraction(1, 2), Fraction(1)):
        assert f_sigma(left_trefoil(), builtin("B", r=r)) == Order.rational(-r)


def test_znat_unknot_is_trivial():
    u = catalog.get_model("unknot")
    assert f_sigma(u, B_HALF) == Order.rational(0)
    # 1 is in znat: its ord is at least the ideal's
    one = B_HALF.apply(LaurentElement.one(BN))
    assert B_HALF.weight.ord_rf(one) >= znat_valuation(u, B_HALF).order


def test_rank_not_one_is_refused():
    flat = KnotModel("flat", ChainComplex(BN, {0: 2}),
                     DistinguishedCycle(0, (ONE, ZERO), 0, 0, UNKNOT_TO_K))
    with pytest.raises(RankNotOne):
        znat_valuation(flat, B_HALF)


def test_cycle_in_torsion_is_refused():
    c = ChainComplex(BN, {0: 1, 1: 2}, {1: ((L(), P(BN)),)})
    boundary = KnotModel("boundary",
                         c, DistinguishedCycle(1, (L(), P(BN)), 0, 1, UNKNOT_TO_K))
    with pytest.raises(CycleInTorsion):
        znat_valuation(boundary, B_HALF)
    with pytest.raises(CycleInTorsion):
        znat_bn(boundary)


def test_f_plus_values():
    assert f_plus(trefoil()) == 1
    assert f_plus(left_trefoil()) == -1
    assert f_plus(example_e()) == 3


def test_f_plus_refuses_nonzero_first_component():
    genus_shifted = KnotModel(
        "shifted", ChainComplex(BN, {0: 1}),
        DistinguishedCycle(0, (ONE,), 1, 0, UNKNOT_TO_K),
    )
    with pytest.raises(IntegrityError):
        f_plus(genus_shifted)


# -- znat at the BN level ---------------------------------------------------------------

def test_znat_bn_matches_expected_ideals():
    assert znat_bn(trefoil()) == FractionalIdeal.from_gens(BN, [L(), P(BN)])
    assert znat_bn(left_trefoil()) == FractionalIdeal.unit(BN)
    assert znat_bn(example_e()) == FractionalIdeal.from_gens(
        Ring.FULL, [P(Ring.FULL), V() ** 3]
    )


def test_describe_bn_ideal_uses_macro_names():
    assert describe_bn_ideal(znat_bn(trefoil())) == "<P, L>"
    assert describe_bn_ideal(znat_bn(left_trefoil())) == "<1>"
    assert describe_bn_ideal(znat_bn(example_e())) == "<P, V^3>"


def test_znat_bn_rejects_outgoing_differential_at_cycle_degree():
    c = ChainComplex(BN, {0: 1, 1: 2, 2: 1},
                     {1: ((L(), P(BN)),), 2: ((P(BN),), (L(),))})
    model = KnotModel("mid", c, DistinguishedCycle(1, (L(), P(BN)), 0, 1, UNKNOT_TO_K))
    with pytest.raises(UnsupportedPresentation):
        znat_bn(model)


def test_znat_bn_rejects_multirelation_presentations():
    c = ChainComplex(BN, {0: 2, 1: 2}, {1: ((L(), P(BN)), (P(BN), L()))})
    model = KnotModel("two-relations", c,
                      DistinguishedCycle(1, (ONE, ZERO), 0, 1, UNKNOT_TO_K))
    with pytest.raises(UnsupportedPresentation):
        znat_bn(model)


def test_znat_bn_rejects_wide_free_presentations():
    model = KnotModel("wide", ChainComplex(BN, {0: 2}),
                      DistinguishedCycle(0, (ONE, ZERO), 0, 0, UNKNOT_TO_K))
    with pytest.raises(UnsupportedPresentation):
        znat_bn(model)


def test_znat_bn_rejects_backward_with_incoming():
    c = ChainComplex(BN, {0: 1, 1: 2}, {1: ((L(), P(BN)),)})
    model = KnotModel("back", c,
                      DistinguishedCycle(1, (P(BN), L()), 0, 1, K_TO_UNKNOT))
    with pytest.raises(UnsupportedPresentation):
        znat_bn(model)


# -- profiles -----------------------------------------------------------------------------

def test_trefoil_profile_is_one_segment():
    rs = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3),
          Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    report = f_profile(trefoil(), rs)
    assert report.samples == [(r, r) for r in rs]
    assert len(report.segments) == 1
    seg = report.segments[0]
    assert (seg.intercept, seg.slope, seg.lo, seg.hi) == (0, 1, Fraction(1, 8), 1)
    assert seg.formula() == "r"
    assert report.breakpoints == [] and report.unresolved == []


def test_example_e_profile_finds_the_breakpoint():
    rs = [Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    report = f_profile(example_e(), rs)
    assert [seg.formula() for seg in report.segments] == ["3*r", "1"]
    assert report.breakpoints == [Fraction(1, 3)]
    assert report.segments[0].hi == Fraction(1, 3)
    assert report.segments[1].lo == Fraction(1, 3)
    assert report.unresolved == []


def test_two_point_runs_need_corroboration():
    # both samples straddle the breakpoint: the only run fails its midpoint
    # check and the whole window is reported unresolved rather than invented
    report = f_profile(example_e(), [Fraction(1, 4), Fraction(1, 2)])
    assert report.segments == []
    assert report.unresolved == [(Fraction(1, 4), Fraction(1, 2))]


def test_profile_sample_validation():
    with pytest.raises(UsageError):
        f_profile(trefoil(), [Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(UsageError):
        f_profile(trefoil(), [Fraction(0), Fraction(1, 2)])
    with pytest.raises(UsageError):
        f_profile(trefoil(), [Fraction(1, 2), Fraction(3, 2)])
    with pytest.raises(UsageError):
        f_profile(trefoil(), [])


def test_profile_single_sample_and_csv():
    report = f_profile(trefoil(), [Fraction(1, 2)])
    assert report.samples == [(Fraction(1, 2), Fraction(1, 2))]
    assert report.segments == []
    full = f_profile(trefoil(), [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    assert full.csv() == "r,f_r\n1/4,1/4\n1/2,1/2\n3/4,3/4\n"
    assert "f_r = r on [1/4, 3/4]" in full.render()


# -- bounds -------------------------------------------------------------------------------

def test_slice_and_clasp_bounds():
    b_one = builtin("B", r=Fraction(1))
    assert slice_genus_bound(f_sigma(trefoil(), B_HALF), B_HALF) == Fraction(1, 2)
    assert slice_genus_bound(f_sigma(trefoil(), b_one), b_one) == 1
    with pytest.raises(ValueGroupMismatch):
        slice_genus_bound(f_sigma(trefoil(), builtin("C")), builtin("C"))
    assert f_plus(trefoil()) == 1
    assert f_plus(example_e()) == 3


def test_eta_bound_needs_nonorientable_validity():
    d = builtin("D")
    assert eta_bound(f_sigma(trefoil(), d), d) == 1
    assert eta_bound(f_sigma(left_trefoil(), d), d) == -1
    with pytest.raises(NotNonorientableValid):
        eta_bound(f_sigma(trefoil(), B_HALF), B_HALF)


def test_gordon_litherland_bound():
    d = builtin("D")
    f_trefoil = f_sigma(trefoil(), d)
    assert gordon_litherland_bound(f_trefoil, d, trefoil().signature) == 0
    assert gordon_litherland_bound(f_sigma(left_trefoil(), d), d,
                                   left_trefoil().signature) == 0
    with pytest.raises(MissingSignature):
        gordon_litherland_bound(f_sigma(example_e(), d), d, example_e().signature)
    # nonorientable validity is checked before the signature
    with pytest.raises(NotNonorientableValid):
        gordon_litherland_bound(f_sigma(trefoil(), B_HALF), B_HALF, None)


# -- unknotting --------------------------------------------------------------------------

def test_unknotting_bound_left_trefoil():
    report = unknotting_bound(left_trefoil(), B_HALF)
    assert report.tau == Order.rational(Fraction(1, 2))
    assert report.bound == 1
    assert report.annihilation == [(1, 1, "pass")]
    text = report.render()
    assert "tau (max torsion ord) = 1/2" in text
    assert "annihilation <L,P>^1 at degree 1: pass" in text


def test_unknotting_bound_skips_wide_cokernels():
    report = unknotting_bound(trefoil(), B_HALF)
    assert report.tau == Order.rational(Fraction(1, 2))
    assert report.bound == 1
    assert report.annihilation == [
        (1, 1, "skipped (cokernel not presented cyclically)")
    ]


def test_unknotting_bound_unknot_is_zero():
    report = unknotting_bound(catalog.get_model("unknot"), B_HALF)
    assert report.tau.is_zero()
    assert report.bound == 0
    assert report.annihilation == []


def test_unknotting_bound_under_lex():
    report = unknotting_bound(left_trefoil(), builtin("C"))
    assert report.tau == Order.lex(0, 1)
    assert report.bound == 1
    assert report.annihilation == [(1, 1, "pass")]


@pytest.mark.parametrize("tau, lam, n", [
    (Order.lex(20000, 5), Order.lex(1, 0), 20001),   # more than 10000 multiples
    (Order.lex(20000, 0), Order.lex(1, 0), 20000),
    (Order.lex(0, 30001), Order.lex(0, 3), 10001),
    (Order.lex(0, 0), Order.lex(0, 1), 0),
    (Order.lex(-1, 5), Order.lex(0, -1), 0),
    (Order.lex(0, 1), Order.lex(Fraction(1, 4), -7), 1),
])
def test_lex_ceiling(tau, lam, n):
    assert lex_ceiling(tau, lam) == n


@pytest.mark.parametrize("tau, lam", [
    (Order.lex(1, 0), Order.lex(0, 1)),
    (Order.lex(0, 1), Order.lex(0, 0)),
    (Order.lex(0, 1), Order.lex(-1, 5)),
    (Order.lex(0, 1), Order.lex(0, -1)),
])
def test_lex_ceiling_without_a_solution_raises(tau, lam):
    with pytest.raises(IntegrityError, match="no integer multiple"):
        lex_ceiling(tau, lam)


# -- connected sums -----------------------------------------------------------------------

def test_connected_sum_adds_f():
    t = trefoil()
    both = connected_sum(t, t)
    assert f_sigma(both, B_HALF) == Order.rational(1)
    assert both.name == "trefoil # trefoil"
    assert both.signature == -4
    assert both.cycle.dplus == 2


def test_connected_sum_with_the_mirror_cancels():
    total = connected_sum(trefoil(), as_forward(left_trefoil()))
    assert f_sigma(total, B_HALF) == Order.rational(0)


def test_connected_sum_requires_forward_models():
    with pytest.raises(DirectionMismatch):
        connected_sum(trefoil(), left_trefoil())
    with pytest.raises(RingMismatch):
        connected_sum(trefoil(), example_e())


@pytest.mark.parametrize("names", [
    ("unknot", "trefoil"), ("trefoil", "trefoil_left"), ("trefoil_left", "trefoil"),
    ("exampleE", "exampleE"), ("trefoil", "unknot", "trefoil_left"),
    ("trefoil_left", "trefoil", "trefoil", "unknot"),
], ids="#".join)
def test_sum_shape_from_the_factors_matches_the_tensor_complex(names):
    # ranks by convolution and the zero pattern of the differentials, read
    # without the tensor complex, against the plain model of the sum's JSON
    models = [as_forward(catalog.get_model(n)) for n in names]
    total = models[0]
    for m in models[1:]:
        total = connected_sum(total, m)
    ranks, nonzero_maps = dict(total.ranks), set(total.nonzero_maps)
    assert total._tensor is None
    plain = KnotModel.from_json(total.to_json())
    assert ranks == plain.ranks and nonzero_maps == plain.nonzero_maps
    assert total.ring is plain.ring and total.cycle.degree == plain.cycle.degree


def test_as_forward_preserves_f():
    fwd = as_forward(left_trefoil())
    assert fwd.cycle.direction == UNKNOT_TO_K
    for sigma in (builtin("B", r=Fraction(1, 8)), B_HALF, builtin("A"), builtin("C")):
        assert f_sigma(fwd, sigma) == f_sigma(left_trefoil(), sigma)
    assert as_forward(trefoil()) is trefoil() or f_sigma(as_forward(trefoil()), B_HALF) \
        == f_sigma(trefoil(), B_HALF)


def test_as_forward_identity_on_forward_models():
    t = trefoil()
    assert as_forward(t) is t


def test_as_forward_needs_a_single_out_column():
    model = KnotModel("free-back", ChainComplex(BN, {0: 1}),
                      DistinguishedCycle(0, (ONE,), 0, 0, K_TO_UNKNOT))
    with pytest.raises(DirectionMismatch):
        as_forward(model)


# -- serialization and reports ----------------------------------------------------------------

def test_model_json_round_trip():
    t = trefoil()
    again = KnotModel.from_json(t.to_json())
    assert again.complex == t.complex
    assert again.cycle == t.cycle
    assert again.signature == t.signature
    assert again.name == t.name


def test_model_json_requires_a_cycle():
    data = trefoil().to_json()
    del data["cycle"]
    with pytest.raises(UsageError):
        KnotModel.from_json(data)


def test_invariant_report_trefoil_b_half():
    text = invariant_report(trefoil(), B_HALF)
    assert text.endswith("\n")
    assert "knot: trefoil" in text
    assert "(pi, lambda) = (1, 1/2)" in text
    assert "f_sigma = 1/2" in text
    assert "f_r = 1/2" in text
    assert "znat (BN level): <P, L>" in text
    assert "f_plus = 1" in text
    assert "slice genus >= 1/2" in text
    assert "eta: n/a (base change is not nonorientable-valid)" in text


def test_invariant_report_under_d():
    text = invariant_report(trefoil(), builtin("D"))
    assert "f_r" not in text
    assert "eta >= 1" in text
    assert "b1 (Gordon-Litherland) >= 0" in text


def test_invariant_report_example_e():
    text = invariant_report(example_e(), builtin("A"))
    assert "znat (BN level): <P, V^3>" in text
    assert "f_plus = 3" in text
    assert "eta: n/a (base change is not nonorientable-valid)" in text
    assert "b1 (Gordon-Litherland): n/a (base change is not nonorientable-valid)" in text
    under_d = invariant_report(example_e(), builtin("D"))
    assert "eta >= " in under_d
    assert "b1 (Gordon-Litherland): n/a (no declared signature)" in under_d


def test_invariant_report_lex_sigma():
    text = invariant_report(trefoil(), builtin("C"))
    assert "slice genus: n/a under a lex value group" in text
    assert "f_sigma = (0, 1)" in text
