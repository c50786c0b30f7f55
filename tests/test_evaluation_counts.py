"""How much work one command does: homology passes, Smith passes, applications of sigma."""

from fractions import Fraction

import pytest

from concordia import catalog, homalg, invariants
from concordia.basechange import BaseChange, builtin
from concordia.errors import IntegrityError
from concordia.invariants import (
    KnotModel,
    as_forward,
    connected_sum,
    f_profile,
    invariant_report,
)

B_HALF = builtin("B", Fraction(1, 2))


def _counted(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _mixed_sum():
    return connected_sum(catalog.get_model("trefoil"),
                         as_forward(catalog.get_model("trefoil_left")))


@pytest.mark.parametrize("make", [
    lambda: catalog.get_model("trefoil"),
    lambda: catalog.get_model("trefoil_left"),
    lambda: catalog.get_model("exampleE"),
    _mixed_sum,
])
def test_report_two_homologies_one_smith_form_per_differential(monkeypatch, make):
    # a connected sum computes the homology of each factor, never the tensor's
    model = make()
    parts = model.factors or (model,)
    homology = _counted(monkeypatch, invariants, "homology_over_valuation")
    smith = _counted(monkeypatch, homalg, "smith_diagonalize")
    invariant_report(model, B_HALF)
    assert [args[1].name for args in homology] == ["B"] * len(parts) + ["C"] * len(parts)
    assert [args[0] for args in homology] == [p.complex for p in parts] * 2
    assert len(smith) == 2 * sum(len(p.complex.maps) for p in parts)


@pytest.mark.parametrize("name", ["trefoil", "trefoil_left", "exampleE"])
@pytest.mark.parametrize("samples", [
    [Fraction(1, 2), Fraction(1)],
    [Fraction(k, 9) for k in range(1, 10)],
])
def test_profile_applies_sigma_to_each_boundary_entry_once(monkeypatch, name, samples):
    # a JSON round trip gives every boundary entry an object of its own
    model = KnotModel.from_json(catalog.get_model(name).to_json())
    entries = [e for m in model.complex.maps.values() for row in m for e in row]
    ids = {id(e) for e in entries}
    assert len(ids) == len(entries)
    applied = _counted(monkeypatch, BaseChange, "apply")
    f_profile(model, samples)
    assert sum(1 for args in applied if id(args[1]) in ids) == len(entries)


def test_recorded_rank_disagreeing_raises(monkeypatch):
    original = homalg.smith_diagonalize
    calls = []

    def miscounting(matrix, weight, one, zero, ncols=None):
        form = original(matrix, weight, one, zero, ncols)
        if not calls:   # the outgoing pass of the lowest degree
            form.rank += 1
        calls.append(form)
        return form

    monkeypatch.setattr(homalg, "smith_diagonalize", miscounting)
    with pytest.raises(IntegrityError, match="rank bookkeeping mismatch"):
        homalg.homology_over_valuation(catalog.get_model("trefoil").complex, B_HALF)

