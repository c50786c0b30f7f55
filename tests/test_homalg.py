"""Tests for chain complexes, cones, tensor products, and valuation homology."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from concordia import basechange, catalog, field2
from concordia.basechange import builtin, series_poly
from concordia.errors import (
    IntegrityError,
    NotAChainMap,
    NotACycle,
    NotInvertible,
    RingMismatch,
    UsageError,
)
from concordia.field2 import Poly2, RationalFunction, poly_div
from concordia.homalg import (
    K_TO_UNKNOT,
    UNKNOT_TO_K,
    ChainComplex,
    ChainMap,
    DistinguishedCycle,
    change_basis,
    change_basis_cycle,
    complex_from_json,
    complex_to_json,
    dualize,
    homology_over_valuation,
    identity,
    is_zero,
    mapping_cone,
    mat_mul,
    shift,
    smith_diagonalize,
    tensor,
    tensor_generators,
    transpose,
    validate_cycle,
)
from concordia.invariants import as_forward, connected_sum, f_sigma
from concordia.laurent import L, LaurentElement, P, Ring
from concordia.valuation import MonomialWeight, Order
from property_suites import random_poly

BN = Ring.BN
ZERO = LaurentElement.zero(BN)
ONE = LaurentElement.one(BN)


def trefoil_complex():
    return ChainComplex(BN, {0: 1, 1: 2}, {1: ((L(), P(BN)),)})


def left_trefoil_complex():
    return ChainComplex(BN, {0: 2, 1: 1}, {1: ((L(),), (P(BN),))})


# -- complex construction -------------------------------------------------------------

def test_ranks_must_be_contiguous():
    with pytest.raises(UsageError):
        ChainComplex(BN, {0: 1, 2: 1})
    with pytest.raises(UsageError):
        ChainComplex(BN, {})


def test_map_shape_is_checked():
    with pytest.raises(UsageError):
        ChainComplex(BN, {0: 1, 1: 2}, {1: ((L(),),)})


def test_entries_must_match_the_ring():
    with pytest.raises(RingMismatch):
        ChainComplex(BN, {0: 1, 1: 1}, {1: ((P(Ring.FULL),),)})


def test_differential_squares_to_zero():
    # d(a) = x, d(x) = x works only if x*x = 0; a nonzero entry must fail
    with pytest.raises(IntegrityError):
        ChainComplex(BN, {0: 1, 1: 1, 2: 1}, {1: ((ONE,),), 2: ((ONE,),)})
    # and a genuinely composable pair passes
    ChainComplex(BN, {0: 1, 1: 2, 2: 1},
                 {1: ((L(), P(BN)),), 2: ((P(BN),), (L(),))})


def test_map_into_defaults_to_zero():
    c = trefoil_complex()
    assert is_zero(c.map_into(2))
    assert c.map_into(2) == ((), ())  # two source rows, no target columns
    assert c.rank(7) == 0
    assert c.degrees() == [0, 1]


def test_complex_equality_ignores_stored_zero_blocks():
    a = ChainComplex(BN, {0: 1, 1: 1})
    b = ChainComplex(BN, {0: 1, 1: 1}, {1: ((ZERO,),)})
    assert a == b
    assert a != trefoil_complex()


# -- cycles ---------------------------------------------------------------------------

def test_validate_cycle_forward():
    c = trefoil_complex()
    good = DistinguishedCycle(1, (ZERO, ONE), 1, 0, UNKNOT_TO_K)
    validate_cycle(c, good)
    # a degree-0 vector is pushed into (L, P) != 0
    with pytest.raises(NotACycle):
        validate_cycle(c, DistinguishedCycle(0, (ONE,), 1, 0, UNKNOT_TO_K))
    with pytest.raises(NotACycle):
        validate_cycle(c, DistinguishedCycle(1, (ONE,), 1, 0, UNKNOT_TO_K))


def test_validate_cycle_backward():
    c = left_trefoil_complex()
    validate_cycle(c, DistinguishedCycle(0, (ZERO, ONE), 1, 0, K_TO_UNKNOT))
    # pairing against the incoming column (L, P) must vanish
    with pytest.raises(NotACycle):
        validate_cycle(c, DistinguishedCycle(1, (ONE,), 1, 0, K_TO_UNKNOT))


def test_cycle_direction_and_genus_validation():
    with pytest.raises(UsageError):
        DistinguishedCycle(0, (ONE,), 1, 0, "sideways")
    with pytest.raises(UsageError):
        DistinguishedCycle(0, (ONE,), -1, 0, UNKNOT_TO_K)


# -- matrix helpers -------------------------------------------------------------------

def test_transpose_involution():
    m = ((L(), P(BN)), (ONE, ZERO))
    assert transpose(transpose(m)) == m


# -- chain maps and cones -------------------------------------------------------------

def test_chain_map_blocks_must_commute():
    src = ChainComplex(BN, {0: 1, 1: 1}, {1: ((L(),),)})
    tgt = ChainComplex(BN, {0: 1, 1: 1}, {1: ((P(BN),),)})
    with pytest.raises(NotAChainMap):
        ChainMap(src, tgt, {0: ((ONE,),), 1: ((ONE,),)})
    # f0 * P = L * f1 holds for f = (L, P)
    ChainMap(src, tgt, {0: ((L(),),), 1: ((P(BN),),)})


def test_chain_map_shape_check():
    src = ChainComplex(BN, {0: 1})
    tgt = ChainComplex(BN, {0: 2})
    with pytest.raises(NotAChainMap):
        ChainMap(src, tgt, {0: ((ONE,),)})


def test_cone_of_identity_is_acyclic():
    c = trefoil_complex()
    ident = ChainMap(c, c, {k: identity(c.rank(k), ONE, ZERO) for k in c.degrees()})
    cone = mapping_cone(ident)
    sigma = builtin("B", r=Fraction(1, 2))
    hom = homology_over_valuation(cone, sigma)
    for d, summary in hom.items():
        assert summary.free_rank == 0, d
        assert summary.torsion_ords == (), d


def test_cone_ranks_and_differential():
    a = ChainComplex(BN, {0: 1})
    b = ChainComplex(BN, {0: 1})
    f = ChainMap(a, b, {0: ((P(BN),),)})
    cone = mapping_cone(f)
    # Cone_{-1} = A_0, Cone_0 = B_0, differential = f
    assert cone.ranks == {-1: 1, 0: 1}
    assert cone.map_into(0) == ((P(BN),),)


# -- tensor, dual, shift ---------------------------------------------------------------

def test_tensor_with_a_point_is_identity():
    c = trefoil_complex()
    point = ChainComplex(BN, {0: 1})
    assert tensor(c, point) == c
    assert tensor(point, c) == c


def test_tensor_ranks_count_products():
    c = trefoil_complex()
    t = tensor(c, c)
    assert t.ranks == {0: 1, 1: 4, 2: 4}
    assert [lab[0] for lab in tensor_generators(c, c, 1)] == [0, 0, 1, 1]


def test_tensor_differential_obeys_leibniz():
    c = trefoil_complex()
    t = tensor(c, c)
    # generator (0,0,0) in degree 0 maps to L,P on each side
    row = t.map_into(1)[0]
    labels = tensor_generators(c, c, 1)
    got = {lab: e for lab, e in zip(labels, row)}
    assert got[(1, 0, 0)] == L() and got[(1, 1, 0)] == P(BN)
    assert got[(0, 0, 0)] == L() and got[(0, 0, 1)] == P(BN)


def test_dualize_transposes_and_negates():
    c = trefoil_complex()
    d = dualize(c)
    assert d.ranks == {0: 1, -1: 2}
    assert d.map_into(0) == transpose(c.map_into(1))
    assert dualize(d) == c


def test_shift_moves_degrees_and_cycles():
    c = trefoil_complex()
    s = shift(c, 3)
    assert s.ranks == {3: 1, 4: 2}
    assert s.map_into(4) == c.map_into(1)
    validate_cycle(s, DistinguishedCycle(4, (ZERO, ONE), 1, 0, UNKNOT_TO_K))


# -- basis change -----------------------------------------------------------------------

def test_change_basis_round_trip():
    c = trefoil_complex()
    a = ((ONE, ONE), (ZERO, ONE))
    ainv = a  # its own inverse in characteristic 2
    moved = change_basis(c, 1, a, ainv)
    assert moved.map_into(1) == mat_mul(c.map_into(1), ainv, ZERO)
    assert change_basis(moved, 1, ainv, a) == c
    # a monomial-unit basis change with its inverse
    t = LaurentElement.monomial(BN, 0, 2, -1, 0)
    unit = ((t, ONE), (ZERO, t.inverse()))
    unit_inv = ((t.inverse(), ONE), (ZERO, t))
    assert change_basis(change_basis(c, 1, unit, unit_inv), 1, unit_inv, unit) == c
    # L is not a unit, so no matrix inverts diag(L, 1)
    with pytest.raises(NotInvertible):
        change_basis(c, 1, ((L(), ZERO), (ZERO, ONE)), ((L(), ZERO), (ZERO, ONE)))
    with pytest.raises(NotInvertible):
        change_basis(c, 1, a, ((ONE, ZERO), (ZERO, ONE)))
    with pytest.raises(NotInvertible):
        change_basis(c, 1, ((ONE,),), ((ONE,),))


def test_change_basis_cycle_both_directions():
    c = trefoil_complex()
    a = ainv = ((ONE, ZERO), (ONE, ONE))
    moved = change_basis(c, 1, a, ainv)
    cyc = DistinguishedCycle(1, (ZERO, ONE), 1, 0, UNKNOT_TO_K)
    moved_cyc = change_basis_cycle(cyc, 1, a, ainv, BN)
    validate_cycle(moved, moved_cyc)
    # a cofunctional pulls back with the transpose instead
    left = left_trefoil_complex()
    phi = DistinguishedCycle(0, (ZERO, ONE), 1, 0, K_TO_UNKNOT)
    moved_left = change_basis(left, 0, a, ainv)
    moved_phi = change_basis_cycle(phi, 0, a, ainv, BN)
    validate_cycle(moved_left, moved_phi)
    # untouched degrees pass through
    assert change_basis_cycle(cyc, 0, ((ONE,),), ((ONE,),), BN) is cyc


# -- valuation-ring diagonalization ------------------------------------------------------

def _rf_matrix(rows):
    return [[series_poly(e) for e in row] for row in rows]


def test_smith_transform_identities():
    weight = MonomialWeight.rational({"x": Fraction(1, 4), "u": Fraction(1, 8)})
    one = series_poly("1")
    zero = series_poly("0")
    m = _rf_matrix([
        ["x^2", "x", "1 + x"],
        ["u*x", "u^4", "0"],
    ])
    f = smith_diagonalize(m, weight, one, zero)
    assert f.rank == 2
    lm = mat_mul(f.left, m, zero)
    d = mat_mul(lm, f.right, zero)
    for i, row in enumerate(d):
        for j, e in enumerate(row):
            if i == j and i < f.rank:
                assert e == f.diagonal[i]
            else:
                assert e.is_zero()
    # invertible over the valuation ring: unit determinants
    assert weight.ord_rf(_det(f.left, one, zero)).is_zero()
    assert weight.ord_rf(_det(f.right, one, zero)).is_zero()


def test_smith_pivots_ascend_in_ord():
    weight = MonomialWeight.rational({"x": Fraction(1, 4)})
    one, zero = series_poly("1"), series_poly("0")
    m = _rf_matrix([["x^4", "x"], ["x^2", "x^3"]])
    f = smith_diagonalize(m, weight, one, zero)
    ords = [weight.ord_rf(e) for e in f.diagonal]
    assert ords == sorted(ords)
    assert ords[0] == Order.rational(Fraction(1, 4))


def test_smith_empty_matrix_takes_width_from_ncols():
    one, zero = series_poly("1"), series_poly("0")
    weight = MonomialWeight.rational({"x": Fraction(1, 4)})
    f = smith_diagonalize([], weight, one, zero, ncols=3)
    assert f.rank == 0
    assert len(f.right) == 3 and f.left == []


def _det(m, one, zero):
    """Determinant by cofactor expansion along the first row (no signs in char 2)."""
    if not m:
        return one
    acc = zero
    for j, e in enumerate(m[0]):
        if not e.is_zero():
            acc = acc + e * _det([row[:j] + row[j + 1:] for row in m[1:]], one, zero)
    return acc


def _random_entry(rng, vars, den_terms=1):
    """A sparse rational function: up to three terms of exponent at most 2
    over up to den_terms terms of exponent at most 1, or zero."""
    if rng.random() < 0.3:
        return RationalFunction.zero(vars)
    num = random_poly(rng, vars, max_terms=3, max_exp=2, nonzero=True)
    den = random_poly(rng, vars, max_terms=den_terms, max_exp=1, nonzero=True)
    return RationalFunction(num, den)


def _det_rf(m, one):
    """Determinant of a matrix of rational functions, taken on polynomials:
    each row is cleared by the product of its distinct entry denominators."""
    rows, dens = [], one.raw_num
    for row in m:
        d = one.raw_num
        for e in row:
            if not e.is_zero() and poly_div(d, e.raw_den) is None:
                d = d * e.raw_den
        rows.append([e.raw_num * poly_div(d, e.raw_den) for e in row])
        dens = dens * d
    return RationalFunction(_det(rows, one.raw_num, Poly2.zero(one.vars)), dens)


_GF_ORDER = 65535


def _gf_tables():
    """exp and log tables of GF(2^16), over the primitive x^16 + x^5 + x^3 + x^2 + 1."""
    exp, log, v = [0] * (2 * _GF_ORDER), [0] * (_GF_ORDER + 1), 1
    for i in range(_GF_ORDER):
        exp[i] = exp[i + _GF_ORDER] = v
        log[v] = i
        v = (v << 1) ^ (0x1002D if v & 0x8000 else 0)
    return exp, log


_GF_EXP, _GF_LOG = _gf_tables()


def _gf_mul(a, b):
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]] if a and b else 0


def _gf_value(x, logs):
    """x(point) for a rational function x; logs are the point's coordinate
    logarithms, one per variable.  None where the denominator vanishes."""
    def poly(p):
        acc = 0
        for t in p.terms:
            acc ^= _GF_EXP[sum(e * l for e, l in zip(t, logs)) % _GF_ORDER]
        return acc
    den = poly(x.raw_den)
    if not den:
        return None
    num = poly(x.raw_num)
    return _GF_EXP[_GF_LOG[num] - _GF_LOG[den] + _GF_ORDER] if num else 0


def _transforms_at_a_point(f, m, rng):
    """(L * M * R, D) evaluated at a random point of GF(2^16)^3 where no
    denominator vanishes.  A nonzero rational function of degree k vanishes
    at a random point with probability at most k / 2^16 (Schwartz-Zippel);
    checking L * M * R = D symbolically would cross-multiply the
    denominators of every sum."""
    while True:
        logs = [rng.randrange(_GF_ORDER) for _ in range(3)]
        mats = [[[_gf_value(x, logs) for x in row] for row in a] for a in (f.left, m, f.right)]
        diag = [_gf_value(x, logs) for x in f.diagonal]
        if not any(v is None for a in mats for row in a for v in row) and None not in diag:
            break
    left, mid, right = mats
    prod = [[0] * len(right[0]) for _ in left]
    for i, row in enumerate(left):
        for k, lv in enumerate(row):
            for j, mv in enumerate(mid[k]):
                lm = _gf_mul(lv, mv)
                for c, rv in enumerate(right[j]):
                    prod[i][c] ^= _gf_mul(lm, rv)
    want = [[diag[i] if i == c and i < f.rank else 0 for c in range(len(right[0]))]
            for i in range(len(left))]
    return prod, want


def _is_a_unit_matrix(a, weight, one, zero):
    """Whether a is invertible over the valuation ring: its entries have
    ord >= 0 and its reduction mod the maximal ideal (an ord-0 entry's
    residue is its leading-form ratio, the rest reduce to 0) has a nonzero
    determinant, that is, det a has ord 0."""
    res = []
    for row in a:
        out = []
        for x in row:
            o = None if x.is_zero() else weight.ord_rf(x)
            if o is not None and o < weight.zero():
                return False
            out.append(weight.leading_form_rf(x) if o == weight.zero() else zero)
        res.append(out)
    return not _det(res, one, zero).is_zero()


def _smith_batch(kind, count=40):
    """Seeded (matrix, weight) pairs over x, y, u, up to 4 x 4, with
    denominators of up to two terms."""
    vars = ("x", "y", "u")
    rng = random.Random(20260 if kind == "rational" else 20261)
    for _ in range(count):
        if kind == "rational":
            weight = MonomialWeight.rational(
                {v: Fraction(rng.randint(1, 5), rng.randint(1, 4)) for v in vars})
        else:
            weight = MonomialWeight.lex(
                {v: (Fraction(rng.randint(0, 2)), Fraction(rng.randint(1, 3))) for v in vars})
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        yield [[_random_entry(rng, vars, den_terms=2) for _ in range(cols)]
               for _ in range(rows)], weight


@pytest.mark.parametrize("kind", ["rational", "lex"])
def test_smith_diagonal_ords_are_quotients_of_determinantal_divisors(kind):
    # Kaplansky: over a valuation ring the least ord of the k x k minors is
    # the sum of the k least diagonal ords, so min-ord pivoting must give
    # ord d_k = delta_k - delta_(k-1), and the rank is the largest k with a
    # nonzero k x k minor.  L * M * R = D with L and R units of the ring.
    vars = ("x", "y", "u")
    one, zero = RationalFunction.one(vars), RationalFunction.zero(vars)
    rng = random.Random(kind)
    for m, weight in _smith_batch(kind):
        rows, cols = len(m), len(m[0])
        f = smith_diagonalize(m, weight, one, zero)
        delta = [weight.zero()]
        for k in range(1, min(rows, cols) + 1):
            ords = [weight.ord_rf(x) for x in (
                _det_rf([[m[i][j] for j in cs] for i in rs], one)
                for rs in combinations(range(rows), k)
                for cs in combinations(range(cols), k)) if not x.is_zero()]
            if not ords:
                break
            delta.append(min(ords))
        # asserts on plain values: printing an unreduced entry reduces it
        assert f.rank == len(delta) - 1
        ords = [weight.ord_rf(d) for d in f.diagonal]
        assert ords == [delta[k] - delta[k - 1] for k in range(1, len(delta))]
        for _ in range(2):
            prod, want = _transforms_at_a_point(f, m, rng)
            assert prod == want
        units = [_is_a_unit_matrix(t, weight, one, zero) for t in (f.left, f.right)]
        assert units == [True, True]


def test_no_gcd_on_the_valuation_path(monkeypatch):
    # sigma's image factors are found when it is built, and as_forward
    # divides Laurent elements: both before the patch
    sigmas = [builtin(n) for n in "ACD"] + [builtin("B", Fraction(k, 7)) for k in range(1, 8)]
    models = [catalog.get(n).model for n in catalog.names() if catalog.get(n).model is not None]
    forward = {n: as_forward(catalog.get_model(n)) for n in ("trefoil", "trefoil_left")}
    models.append(connected_sum(connected_sum(forward["trefoil"], forward["trefoil_left"]),
                                forward["trefoil"]))
    batch = [case for kind in ("rational", "lex") for case in _smith_batch(kind)]

    def refuse(a, b):
        raise AssertionError("gcd on the valuation path")

    monkeypatch.setattr(field2, "gcd", refuse)
    monkeypatch.setattr(basechange, "gcd", refuse)
    vars = ("x", "y", "u")
    one, zero = RationalFunction.one(vars), RationalFunction.zero(vars)
    for m, weight in batch:
        smith_diagonalize(m, weight, one, zero)
    for model in models:
        for sigma in sigmas:
            f_sigma(model, sigma)


def _smith_by_full_scan(matrix, weight, one, zero):
    """smith_diagonalize as it was before it kept its ords: every pivot step
    takes the ord of every nonzero entry of the remaining block afresh."""
    a = [list(row) for row in matrix]
    m, n = len(a), len(a[0])
    left = [list(row) for row in identity(m, one, zero)]
    right_t = [list(row) for row in identity(n, one, zero)]
    diagonal = []
    for s in range(min(m, n)):
        best = best_ord = None
        for i in range(s, m):
            for j in range(s, n):
                if a[i][j].is_zero():
                    continue
                o = weight.ord_rf(a[i][j])
                if best_ord is None or o < best_ord:
                    best, best_ord = (i, j), o
        if best is None:
            break
        i, j = best
        a[s], a[i] = a[i], a[s]
        left[s], left[i] = left[i], left[s]
        right_t[s], right_t[j] = right_t[j], right_t[s]
        for row in a:
            row[s], row[j] = row[j], row[s]
        pivot = a[s][s]
        for r in range(s + 1, m):
            if not a[r][s].is_zero():
                f = a[r][s] / pivot
                for c in range(s + 1, n):
                    if not a[s][c].is_zero():
                        a[r][c] = a[r][c] + f * a[s][c]
                for c in range(m):
                    if not left[s][c].is_zero():
                        left[r][c] = left[r][c] + f * left[s][c]
        for c in range(s + 1, n):
            if not a[s][c].is_zero():
                f = a[s][c] / pivot
                for k in range(n):
                    if not right_t[s][k].is_zero():
                        right_t[c][k] = right_t[c][k] + f * right_t[s][k]
        diagonal.append(pivot)
    return diagonal, left, transpose(right_t)


class _CountingWeight:
    def __init__(self, weight):
        self.weight, self.calls = weight, 0

    def ord_rf(self, x):
        self.calls += 1
        return self.weight.ord_rf(x)


def _tied_entry(rng, vars):
    """A sum of up to two monomials of low degree, or zero: ords tie often."""
    if rng.random() < 0.25:
        return RationalFunction.zero(vars)
    return RationalFunction(random_poly(rng, vars, max_terms=2, max_exp=1, nonzero=True))


@pytest.mark.parametrize("kind", ["rational", "lex"])
def test_smith_with_kept_ords_matches_the_full_scan(kind):
    # the same pivots, in the same places: min ord, ties to the lowest
    # (row, col) in row-major order after the swaps
    vars = ("x", "u")
    rng = random.Random(7100 if kind == "rational" else 7101)
    one, zero = RationalFunction.one(vars), RationalFunction.zero(vars)
    kept_calls = scan_calls = 0
    for trial in range(40):
        if kind == "rational":
            weight = MonomialWeight.rational(
                {v: Fraction(rng.randint(1, 3), rng.randint(1, 2)) for v in vars})
        else:
            weight = MonomialWeight.lex(
                {v: (Fraction(rng.randint(0, 1)), Fraction(rng.randint(1, 2))) for v in vars})
        # entries with denominators eliminate slowly past 4 x 4
        entry, size = (_tied_entry, 5) if trial % 2 else (_random_entry, 4)
        rows, cols = rng.randint(1, size), rng.randint(1, size)
        m = [[entry(rng, vars) for _ in range(cols)] for _ in range(rows)]
        kept, scan = _CountingWeight(weight), _CountingWeight(weight)
        f = smith_diagonalize(m, kept, one, zero)
        diagonal, left, right = _smith_by_full_scan(m, scan, one, zero)
        # the diagonal is the pivots in order, and L and R record every row
        # and column swap, so equal transforms mean equal pivot positions
        assert f.diagonal == diagonal and f.rank == len(diagonal)
        assert [list(row) for row in f.left] == [list(row) for row in left]
        assert [list(row) for row in f.right] == [list(row) for row in right]
        assert kept.calls <= scan.calls
        kept_calls, scan_calls = kept_calls + kept.calls, scan_calls + scan.calls
    assert kept_calls < scan_calls


# -- homology ----------------------------------------------------------------------------

def test_trefoil_homology_over_b_half():
    sigma = builtin("B", r=Fraction(1, 2))
    hom = homology_over_valuation(trefoil_complex(), sigma)
    assert hom[0].free_rank == 0 and hom[0].torsion_ords == ()
    assert hom[1].free_rank == 1
    assert hom[1].torsion_ords == (Order.rational(Fraction(1, 2)),)


def test_homology_with_no_incoming_differential():
    # rank-0 incoming boundary: the presentation matrix has no rows, and the
    # free generators must still be liftable (regression for the empty-width case)
    sigma = builtin("B", r=Fraction(1, 2))
    hom = homology_over_valuation(left_trefoil_complex(), sigma)
    assert hom[0].free_rank == 1
    lift = hom[0].free_generator_lift()
    assert len(lift) == 2 and any(not e.is_zero() for e in lift)


def test_class_reduction_identifies_boundaries():
    sigma = builtin("B", r=Fraction(1, 2))
    c = trefoil_complex()
    hom = homology_over_valuation(c, sigma)
    # the image of the generator is a boundary, hence a zero class: no free
    # coordinate, and its torsion coordinate lies in the divisor's ideal
    boundary = [sigma.apply(e) for e in c.map_into(1)[0]]
    tors, free = hom[1].class_coords(boundary)
    assert len(tors) == len(hom[1].torsion_ords) == 1
    assert all(y.is_zero() for y in free)
    assert tors[0].is_zero() or sigma.weight.ord_rf(tors[0]) >= hom[1].torsion_ords[0]
    # the distinguished cycle is not: its free coordinate is nonzero
    cyc = [sigma.apply(ZERO), sigma.apply(ONE)]
    tors, free = hom[1].class_coords(cyc)
    assert len(tors) == 1 and len(free) == 1
    assert not free[0].is_zero()


def test_class_coords_rejects_non_cycles():
    sigma = builtin("B", r=Fraction(1, 2))
    hom = homology_over_valuation(trefoil_complex(), sigma)
    with pytest.raises(NotACycle):
        hom[0].class_coords([sigma.apply(ONE)])
    with pytest.raises(NotACycle):
        hom[0].free_coefficient([sigma.apply(ONE)])


def test_free_generator_lift_is_a_cycle_with_nonzero_class():
    sigma = builtin("B", r=Fraction(1, 2))
    hom = homology_over_valuation(trefoil_complex(), sigma)
    lift = hom[1].free_generator_lift()
    assert not hom[1].class_coords(lift)[1][0].is_zero()
    # it generates the free part: its free coefficient is a unit
    assert sigma.weight.ord_rf(hom[1].free_coefficient(lift)).is_zero()


class _EntrywiseSigma:
    """Sends each Laurent entry through a table: no ring homomorphism."""

    def __init__(self, table):
        self.table = table
        self.weight = builtin("B", r=Fraction(1, 2)).weight

    def image(self, e):
        return self.table[e]


def test_a_base_change_that_breaks_d_squared_is_an_integrity_error():
    # (L*P, L) then (1, P)^T squares to zero over BN, but not entry by entry
    c = ChainComplex(BN, {0: 1, 1: 2, 2: 1}, {1: ((L() * P(BN), L()),),
                                              2: ((ONE,), (P(BN),))})
    sigma = _EntrywiseSigma({L() * P(BN): series_poly("x"), L(): series_poly("x"),
                             ONE: series_poly("1"), P(BN): series_poly("u")})
    with pytest.raises(IntegrityError, match="d\\^2 != 0 after sigma"):
        homology_over_valuation(c, sigma)


# -- serialization ------------------------------------------------------------------------

def test_json_round_trip():
    c = trefoil_complex()
    cyc = DistinguishedCycle(1, (ZERO, ONE), 1, 0, UNKNOT_TO_K)
    data = complex_to_json(c, cycle=cyc, name="trefoil", signature=-2)
    name, c2, cyc2, sig = complex_from_json(data)
    assert (name, sig) == ("trefoil", -2)
    assert c2 == c
    assert cyc2 == cyc


def test_json_round_trip_without_cycle():
    c = left_trefoil_complex()
    name, c2, cyc2, sig = complex_from_json(complex_to_json(c))
    assert name is None and sig is None and cyc2 is None
    assert c2 == c


def test_malformed_json_raises_usage_error():
    with pytest.raises(UsageError):
        complex_from_json({"ring": "BN"})
    with pytest.raises(UsageError):
        complex_from_json({"ring": "nope", "ranks": {"0": 1}})
