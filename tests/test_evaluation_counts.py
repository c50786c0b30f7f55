"""How much work one command does: homology passes, Smith passes, applications of sigma."""

import io
import json
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from concordia import catalog, cli, homalg, invariants
from concordia.basechange import BaseChange, builtin
from concordia.errors import IntegrityError
from concordia.invariants import (
    KnotModel,
    as_forward,
    connected_sum,
    f_profile,
    invariant_report,
)
from concordia.laurent import P, Ring, V

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
    # a JSON round trip gives every boundary entry an object of its own, so
    # only sharing by value keeps equal entries from being applied twice
    model = KnotModel.from_json(catalog.get_model(name).to_json())
    entries = {e for m in model.complex.maps.values() for row in m for e in row}
    applied = _counted(monkeypatch, BaseChange, "apply")
    f_profile(model, samples)
    counts = Counter(args[1] for args in applied)
    assert all(counts[e] == 1 for e in entries)


def test_profile_applies_p_and_v_once_across_samples(monkeypatch):
    applied = _counted(monkeypatch, BaseChange, "apply")
    f_profile(catalog.get_model("exampleE"), [Fraction(k, 9) for k in range(1, 10)])
    counts = Counter(args[1] for args in applied)
    assert (counts[P(Ring.FULL)], counts[V()]) == (1, 1)


def test_profile_of_a_sum_is_linear_in_its_factors(monkeypatch):
    # A budget against regressions: evaluated through the tensor complex,
    # a profile of six trefoils takes minutes.
    _no_tensor(monkeypatch)
    trefoil = catalog.get_model("trefoil")
    six = trefoil
    for _ in range(5):
        six = connected_sum(six, trefoil)
    samples = [Fraction(k, 8) for k in range(1, 9)]
    start = time.perf_counter()
    assert f_profile(six, samples).render() == "f_r = 6*r on [1/8, 1]"
    assert f_profile(_mixed_sum(), samples).render() == "f_r = 0 on [1/8, 1]"
    assert time.perf_counter() - start < 5


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


def _sum_stdout(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["sum", *argv]) == 0
    return buf.getvalue()


def _no_tensor(monkeypatch):
    def refuse(*args):
        raise AssertionError("the tensor complex was built")

    monkeypatch.setattr(homalg, "tensor", refuse)
    monkeypatch.setattr(invariants, "tensor", refuse)


def test_repeated_factor_is_evaluated_once_per_base_change(monkeypatch):
    homology = _counted(monkeypatch, invariants, "homology_over_valuation")
    vectors = _counted(monkeypatch, invariants, "_sigma_vector")
    _sum_stdout("--knots", "trefoil_left,trefoil_left,trefoil_left",
                "--example", "B", "--r", "2/7")
    assert [args[1].name for args in homology] == ["B", "C"]
    assert homology[0][0] is homology[1][0]
    # sigma meets the factor's cycle once under B and once under C
    assert [args[0].name for args in vectors] == ["B", "C"]
    assert vectors[0][1] is vectors[1][1]


def test_apply_receives_p_and_v_once_per_base_change(monkeypatch):
    applied = _counted(monkeypatch, BaseChange, "apply")
    # over S_BN no boundary entry is the P or V of the full ring
    for model in (catalog.get_model("trefoil"), _mixed_sum()):
        invariant_report(model, builtin("B", Fraction(1, 3)))
    per_sigma = {}
    for sigma, x in applied:
        seen = per_sigma.setdefault(id(sigma), {"P": 0, "V": 0})
        for name, element in (("P", P(Ring.FULL)), ("V", V())):
            seen[name] += x == element
    # two reports, each under its own B and the C of f_plus
    assert len(per_sigma) == 4
    assert all(seen == {"P": 1, "V": 1} for seen in per_sigma.values())


GOLDEN_CLI = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


@pytest.mark.parametrize("label", [k for k in GOLDEN_CLI if k.startswith("sum ")])
def test_sum_report_prints_the_same_bytes_without_the_tensor_complex(monkeypatch, label):
    _no_tensor(monkeypatch)
    case = GOLDEN_CLI[label]
    assert _sum_stdout(*case["argv"][1:]) == case["stdout"]


def test_ten_trefoils_are_summed_in_linear_time(monkeypatch):
    # A budget against regressions: a tensor complex of ten trefoils has
    # rank 3^10 and no machine builds it in 5 s.
    with monkeypatch.context() as patched:
        _no_tensor(patched)
        start = time.perf_counter()
        out = _sum_stdout("--knots", ",".join(["trefoil"] * 10), "--example", "B", "--r", "1/2")
        elapsed = time.perf_counter() - start
    assert "f_r = 5\n" in out      # 10 * f_(1/2)(trefoil)
    assert elapsed < 5
    # the JSON form still carries the whole tensor complex
    tensors = _counted(monkeypatch, invariants, "tensor")
    trefoil = catalog.get_model("trefoil")
    total = connected_sum(connected_sum(trefoil, trefoil), trefoil)
    data = total.to_json()
    assert len(tensors) == 2
    assert data["ranks"] == {"0": 1, "1": 6, "2": 12, "3": 8}
    assert sorted(data["boundaries"]) == ["1", "2", "3"]
    assert KnotModel.from_json(data) == total
