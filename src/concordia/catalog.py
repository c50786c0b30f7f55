"""Built-in knot models and the skein-assembly fixtures.

Every number here is transcribed data: the two-bridge trefoil models, the
rank-2 crossing-circle complex with its cobordism actions, the genus-one
example over the four-variable ring, and one conjectural ideal.  The
assembly routine rebuilds the trefoil from the crossing-circle data as a
mapping cone and must reproduce the stored model exactly after the recorded
basis change.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basechange import builtin
from .errors import UnknownKnot
from .homalg import (
    ChainComplex,
    ChainMap,
    DistinguishedCycle,
    K_TO_UNKNOT,
    UNKNOT_TO_K,
    change_basis,
    change_basis_cycle,
    complex_to_json,
    homology_over_valuation,
    mapping_cone,
    mat_mul,
    shift,
)
from .ideals import FractionalIdeal
from .invariants import KnotModel
from .laurent import L, LaurentElement, P, Ring, V


@dataclass
class CatalogEntry:
    name: str
    model: KnotModel            # None for data-only entries
    expected_ideal: FractionalIdeal
    conjecture: bool
    notes: str
    extra: dict = None          # skein matrices and such


def _one():
    return LaurentElement.one(Ring.BN)


def _zero():
    return LaurentElement.zero(Ring.BN)


def _unknot_model() -> KnotModel:
    c = ChainComplex(Ring.BN, {0: 1})
    cycle = DistinguishedCycle(0, (_one(),), 0, 0, UNKNOT_TO_K)
    return KnotModel("unknot", c, cycle, signature=0)


def _trefoil_model() -> KnotModel:
    c = ChainComplex(Ring.BN, {0: 1, 1: 2}, {1: ((L(), P(Ring.BN)),)})
    cycle = DistinguishedCycle(1, (_zero(), _one()), 0, 1, UNKNOT_TO_K)
    return KnotModel("trefoil", c, cycle, signature=-2)


def _trefoil_left_model() -> KnotModel:
    c = ChainComplex(Ring.BN, {0: 2, 1: 1}, {1: ((L(),), (P(Ring.BN),))})
    cycle = DistinguishedCycle(0, (_zero(), _one()), 0, 1, K_TO_UNKNOT)
    return KnotModel("trefoil_left", c, cycle, signature=2)


def _example_e_model() -> KnotModel:
    c = ChainComplex(
        Ring.FULL,
        {0: 1, 1: 2},
        {1: ((V() ** 3, P(Ring.FULL)),)},
    )
    one = LaurentElement.one(Ring.FULL)
    zero = LaurentElement.zero(Ring.FULL)
    cycle = DistinguishedCycle(1, (one, zero), 1, 0, UNKNOT_TO_K)
    return KnotModel("exampleE", c, cycle)


def _hopf_complex() -> ChainComplex:
    # generators ordered (beta_plus, beta_minus); zero differential
    return ChainComplex(Ring.BN, {0: 2})


def _skein_extra() -> dict:
    one, zero = _one(), _zero()
    return {
        "hopf_complex": _hopf_complex(),
        "unknot_complex": ChainComplex(Ring.BN, {0: 1}),
        # crossing-change map on the unknot generator: alpha -> (L+P, P)
        "X": ((L() + P(Ring.BN), P(Ring.BN)),),
        # genus-adding action: beta_plus -> 0, beta_minus -> alpha
        "S_g": ((zero,), (one,)),
        # double-point action: beta_plus -> alpha, beta_minus -> alpha
        "S_delta": ((one,), (one,)),
        # distinguished class of the assembled cone, in (beta_plus, beta_minus)
        "iota": (one, one),
        # recorded basis change: e1 = beta_plus, e2 = beta_plus + beta_minus;
        # in characteristic 2 it is its own inverse
        "basis_change": ((one, zero), (one, one)),
        "basis_change_inverse": ((one, zero), (one, one)),
    }


def _y_element() -> LaurentElement:
    t1_inv_sq = LaurentElement.monomial(Ring.BN, 0, -2, 0, 0)
    factor = LaurentElement.one(Ring.BN) + t1_inv_sq
    return factor * P(Ring.BN) ** 2 + L() ** 2


def _entries() -> dict:
    bn = Ring.BN
    full = Ring.FULL
    p_bn, l_bn = P(bn), L()
    p_full, v_full = P(full), V()
    y = _y_element()
    return {
        "unknot": CatalogEntry(
            "unknot",
            _unknot_model(),
            FractionalIdeal.from_gens(bn, [LaurentElement.one(bn)]),
            False,
            "trivial rank-1 complex; both invariant routes give the unit ideal",
        ),
        "trefoil": CatalogEntry(
            "trefoil",
            _trefoil_model(),
            FractionalIdeal.from_gens(bn, [l_bn, p_bn]),
            False,
            "right-handed torus knot model: one relation (L, P), class e2, "
            "carried by a genus-0, one-double-point cobordism from the unknot",
        ),
        "trefoil_left": CatalogEntry(
            "trefoil_left",
            _trefoil_left_model(),
            FractionalIdeal.from_gens(bn, [LaurentElement.one(bn)]),
            False,
            "mirror model: dual complex with functional eps2 -> generator, "
            "eps1 -> 0, in the K-to-unknot direction",
        ),
        "hopf_skein_data": CatalogEntry(
            "hopf_skein_data",
            None,
            None,
            False,
            "rank-2 crossing-circle complex with the crossing-change map X and "
            "the two cobordism actions used to assemble the trefoil",
            extra=_skein_extra(),
        ),
        "exampleE": CatalogEntry(
            "exampleE",
            _example_e_model(),
            FractionalIdeal.from_gens(full, [p_full, v_full ** 3]),
            False,
            "genus-1 example over the four-variable ring: relation (V^3, P), "
            "class e1",
        ),
        "k34_conjectural": CatalogEntry(
            "k34_conjectural",
            None,
            FractionalIdeal.from_gens(
                bn,
                [l_bn ** 3, l_bn ** 2 * p_bn, l_bn * p_bn ** 2, p_bn ** 3, y],
            ),
            True,
            "conjectured ideal for the (3,4) torus knot; no complex is stored",
        ),
    }


_CATALOG = None


def _catalog() -> dict:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _entries()
    return _CATALOG


def names():
    return sorted(_catalog())


def get(name: str) -> CatalogEntry:
    entry = _catalog().get(name)
    if entry is None:
        raise UnknownKnot(f"no catalog entry named {name!r} (have {', '.join(names())})")
    return entry


def get_model(name: str) -> KnotModel:
    entry = get(name)
    if entry.model is None:
        raise UnknownKnot(f"catalog entry {name!r} has no knot model")
    return entry.model


def show_json(name: str) -> dict:
    entry = get(name)
    if entry.model is not None:
        return entry.model.to_json()
    if entry.extra is not None:
        return complex_to_json(entry.extra["hopf_complex"], None, entry.name)
    data = {"name": entry.name, "conjecture": entry.conjecture}
    if entry.expected_ideal is not None:
        data["expected_ideal"] = [str(g) for g in entry.expected_ideal.gens]
    return data


# -- skein assembly -----------------------------------------------------------------

def assemble_trefoil_from_skein() -> KnotModel:
    """Cone of the crossing-change map, then the recorded basis change."""
    data = get("hopf_skein_data").extra
    x = ChainMap(data["unknot_complex"], data["hopf_complex"], {0: data["X"]})
    cone = shift(mapping_cone(x), 1)
    raw_cycle = DistinguishedCycle(1, data["iota"], 0, 1, UNKNOT_TO_K)
    a, a_inv = data["basis_change"], data["basis_change_inverse"]
    cone2 = change_basis(cone, 1, a, a_inv)
    cycle = change_basis_cycle(raw_cycle, 1, a, a_inv, Ring.BN)
    return KnotModel("trefoil", cone2, cycle, signature=-2)


def verify_skein_consistency():
    """Check the crossing-circle identities and the rank bookkeeping."""
    data = get("hopf_skein_data").extra
    bn = Ring.BN
    lines = []
    ok = True

    def check(label, passed):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'pass' if passed else 'FAIL'}  {label}")

    sg = mat_mul(data["X"], data["S_g"], _zero())
    check("composite through the genus action equals P", sg == ((P(bn),),))
    sd = mat_mul(data["X"], data["S_delta"], _zero())
    check("composite through the double-point action equals L", sd == ((L(),),))

    assembled = assemble_trefoil_from_skein()
    stored = get_model("trefoil")
    check("assembled complex equals the stored trefoil",
          assembled.complex == stored.complex)
    check("assembled cycle equals the stored cycle",
          assembled.cycle == stored.cycle)

    sigma = builtin("B", "1/2")
    ranks = {}
    for label, cx in (
        ("trefoil", stored.complex),
        ("crossing circle", data["hopf_complex"]),
        ("unknot", data["unknot_complex"]),
    ):
        summaries = homology_over_valuation(cx, sigma)
        ranks[label] = sum(s.free_rank for s in summaries.values())
    check("trefoil homology has free rank 1", ranks["trefoil"] == 1)
    check("crossing-circle homology has free rank 2", ranks["crossing circle"] == 2)
    check("unknot homology has free rank 1", ranks["unknot"] == 1)

    ident = ChainMap(
        data["unknot_complex"], data["unknot_complex"],
        {0: ((LaurentElement.one(bn),),)},
    )
    cone_id = mapping_cone(ident)
    total = sum(
        s.free_rank for s in homology_over_valuation(cone_id, sigma).values()
    )
    check("cone of the identity is acyclic", total == 0)
    return ok, lines
