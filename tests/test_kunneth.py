"""Connected sums evaluated factor by factor against the tensor complex.

The oracle is the same sum read back from its JSON form: the same complex
and cycle without the factors, so it takes the tensor complex through full
Smith forms.
"""

import itertools
from fractions import Fraction

import pytest

from concordia import catalog, homalg, invariants
from concordia.basechange import builtin
from concordia.errors import ConcordiaError
from concordia.homalg import kunneth
from concordia.invariants import (
    KnotModel,
    as_forward,
    connected_sum,
    f_sigma,
    invariant_report,
    unknotting_bound,
    znat_valuation,
)
from concordia.valuation import Order

SIGMAS = {
    "A": ("A",),
    "B(1/8)": ("B", Fraction(1, 8)),
    "B(1/2)": ("B", Fraction(1, 2)),
    "B(1)": ("B", Fraction(1)),
    "C": ("C",),
    "D": ("D",),
}
PAIRS = list(itertools.product(("unknot", "trefoil", "trefoil_left"), repeat=2))


def _sum(names):
    models = [as_forward(catalog.get_model(n)) for n in names]
    total = models[0]
    for m in models[1:]:
        total = connected_sum(total, m)
    return total


def _oracle(total):
    return KnotModel.from_json(total.to_json())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConcordiaError as exc:   # the two paths must fail alike, too
        return (type(exc).__name__, str(exc))


def _same_report(names, sigma):
    total = _sum(names)
    oracle = _oracle(total)
    assert total.factors and not oracle.factors
    assert total == oracle
    assert _outcome(invariant_report, total, sigma) == _outcome(invariant_report, oracle, sigma)
    return total, oracle


@pytest.mark.parametrize("label", sorted(SIGMAS))
@pytest.mark.parametrize("names", PAIRS, ids="#".join)
def test_pair_reports_match_the_tensor_oracle(names, label):
    _same_report(names, builtin(*SIGMAS[label]))


@pytest.mark.parametrize("names", PAIRS, ids="#".join)
def test_pair_bounds_and_f_sigma_match_the_tensor_oracle(names):
    sigma = builtin("B", Fraction(1, 2))
    total, oracle = _sum(names), _oracle(_sum(names))
    assert (_outcome(lambda m: unknotting_bound(m, sigma).render(), total)
            == _outcome(lambda m: unknotting_bound(m, sigma).render(), oracle))
    assert _outcome(f_sigma, total, sigma) == _outcome(f_sigma, oracle, sigma)


@pytest.mark.parametrize("sigma", [builtin("B", Fraction(1, 3)), builtin("D")],
                         ids=["B(1/3)", "D"])
def test_example_e_twice_matches_the_tensor_oracle(sigma):
    _same_report(("exampleE", "exampleE"), sigma)


@pytest.mark.parametrize("names", [("trefoil", "trefoil", "trefoil_left"),
                                   ("trefoil_left",) * 3], ids="#".join)
def test_three_factor_reports_match_the_tensor_oracle(names):
    _same_report(names, builtin("B", Fraction(2, 7)))


def test_sum_values_add():
    sigma = builtin("B", Fraction(1, 2))
    assert f_sigma(_sum(("trefoil",) * 3), sigma) == Order.rational(Fraction(3, 2))
    assert f_sigma(_sum(("trefoil", "trefoil_left", "trefoil")), sigma) == Order.rational(
        Fraction(1, 2))


@pytest.mark.parametrize("names", [("trefoil", "trefoil_left"), ("trefoil",) * 3], ids="#".join)
def test_sum_generator_has_the_order_and_matches_the_oracle_up_to_a_unit(names):
    sigma = builtin("B", Fraction(1, 2))
    total = _sum(names)
    z, oracle = znat_valuation(total, sigma), znat_valuation(_oracle(total), sigma)
    assert sigma.weight.ord_rf(z.generator) == z.order == oracle.order
    assert sigma.weight.ord_rf(z.generator / oracle.generator).is_zero()


def test_factors_flatten_and_stay_out_of_equality_and_json():
    total = _sum(("trefoil", "trefoil_left", "unknot"))
    assert [f.name for f in total.factors] == ["trefoil", "trefoil_left", "unknot"]
    assert "factors" not in total.to_json()
    assert "factors" not in repr(total)
    assert catalog.get_model("trefoil").factors == ()


def test_three_factor_report_runs_no_smith_form_on_the_tensor_complex(monkeypatch):
    total = _sum(("trefoil", "trefoil_left", "trefoil"))
    homology = []
    shapes = []
    original_homology = invariants.homology_over_valuation
    original_smith = homalg.smith_diagonalize

    def counting_homology(complex, sigma):
        homology.append(complex)
        return original_homology(complex, sigma)

    def counting_smith(matrix, weight, one, zero, ncols=None):
        shapes.append((len(matrix), len(matrix[0]) if matrix else ncols or 0))
        return original_smith(matrix, weight, one, zero, ncols)

    monkeypatch.setattr(invariants, "homology_over_valuation", counting_homology)
    monkeypatch.setattr(homalg, "smith_diagonalize", counting_smith)
    invariant_report(total, builtin("B", Fraction(1, 2)))
    assert not any(c is total.complex for c in homology)
    # one homology per distinct factor and base change: the two trefoils are one object
    assert len(homology) == 2 * len({id(f) for f in total.factors}) == 4
    assert shapes and max(max(s) for s in shapes) <= 2


def test_kunneth_places_tor_one_degree_below_the_product():
    a, b = Order.rational(1), Order.rational(Fraction(1, 2))
    h1 = {0: (1, ()), 1: (0, (a,))}
    h2 = {0: (1, ()), 1: (0, (b,))}
    assert kunneth(h1, h2) == {0: (1, ()), 1: (0, (a, b, b)), 2: (0, (b,))}
    assert kunneth({0: (1, ())}, h1) == h1


@pytest.mark.parametrize("change, message", [
    (lambda f: f + 1, "exceeds the ambient rank"),
    (lambda f: 0, "Euler characteristic"),
])
def test_folded_ranks_are_audited_against_the_tensor_complex(monkeypatch, change, message):
    total = _sum(("trefoil", "trefoil"))
    monkeypatch.setattr(invariants, "kunneth", lambda h1, h2: {
        d: (change(f), t) for d, (f, t) in kunneth(h1, h2).items()})
    with pytest.raises(invariants.IntegrityError, match=message):
        invariant_report(total, builtin("B", Fraction(1, 2)))
