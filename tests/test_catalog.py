"""Tests for the built-in knot catalog and the skein-assembly fixtures."""

import pytest

from fractions import Fraction

from concordia.basechange import builtin
from concordia.catalog import (
    assemble_trefoil_from_skein,
    get,
    get_model,
    names,
    show_json,
    verify_skein_consistency,
)
from concordia.errors import UnknownKnot
from concordia.homalg import mat_mul
from concordia.invariants import f_sigma
from concordia.laurent import L, LaurentElement, P, Ring
from concordia.valuation import Order


def test_names_lists_every_entry_sorted():
    got = names()
    assert got == sorted(got)
    assert got == [
        "exampleE",
        "hopf_skein_data",
        "k34_conjectural",
        "trefoil",
        "trefoil_left",
        "unknot",
    ]


def test_every_entry_has_notes():
    for name in names():
        assert get(name).notes.strip()


def test_only_the_k34_entry_is_conjectural():
    flagged = [name for name in names() if get(name).conjecture]
    assert flagged == ["k34_conjectural"]


def test_get_unknown_name_raises():
    with pytest.raises(UnknownKnot):
        get("borromean")


def test_get_model_on_data_only_entries_raises():
    with pytest.raises(UnknownKnot):
        get_model("hopf_skein_data")
    with pytest.raises(UnknownKnot):
        get_model("k34_conjectural")


def test_model_entries_round_trip_expected_shapes():
    trefoil = get_model("trefoil")
    assert trefoil.cycle.genus == 0 and trefoil.cycle.dplus == 1
    unknot = get_model("unknot")
    assert unknot.cycle.genus == 0 and unknot.cycle.dplus == 0
    example_e = get_model("exampleE")
    assert example_e.complex.ring is Ring.FULL
    assert example_e.cycle.genus == 1 and example_e.cycle.dplus == 0


def test_show_json_shapes():
    model_doc = show_json("trefoil")
    assert model_doc["name"] == "trefoil"
    assert "boundaries" in model_doc and "cycle" in model_doc

    data_doc = show_json("hopf_skein_data")
    assert data_doc["name"] == "hopf_skein_data"
    assert "boundaries" in data_doc and "cycle" not in data_doc

    ideal_doc = show_json("k34_conjectural")
    assert ideal_doc["conjecture"] is True
    assert len(ideal_doc["expected_ideal"]) == 5


def test_skein_composites_reproduce_the_cobordism_values():
    data = get("hopf_skein_data").extra
    bn = Ring.BN
    zero = LaurentElement.zero(bn)
    assert mat_mul(data["X"], data["S_g"], zero) == ((P(bn),),)
    assert mat_mul(data["X"], data["S_delta"], zero) == ((L(),),)


def test_assembled_trefoil_matches_the_stored_entry():
    assembled = assemble_trefoil_from_skein()
    stored = get_model("trefoil")
    assert assembled.complex == stored.complex
    assert assembled.cycle == stored.cycle
    assert assembled.signature == stored.signature


def test_assembled_trefoil_f_half():
    assembled = assemble_trefoil_from_skein()
    assert f_sigma(assembled, builtin("B", "1/2")) == Order.rational(Fraction(1, 2))


def test_verify_skein_consistency_passes():
    ok, lines = verify_skein_consistency()
    assert ok
    assert len(lines) == 8
    assert all(line.startswith("pass") for line in lines)
