"""One Smith form per differential against the two-pass reference.

The reference is the older method, kept here verbatim in substance: per
degree it diagonalizes the outgoing map with all four transforms, rewrites
the incoming generators in the kernel basis and diagonalizes them again.
Both must agree on free ranks, torsion ords, the ord of a cycle's free
coefficient and the ord of a cofunctional on a lift of the free generator.
The generators themselves may differ by units, so only ords are compared.
"""

import random
from fractions import Fraction

import pytest

from concordia import catalog
from concordia.basechange import SERIES_VARS, builtin
from concordia.errors import NotACycle
from concordia.field2 import RationalFunction
from concordia.homalg import (
    K_TO_UNKNOT,
    UNKNOT_TO_K,
    ChainComplex,
    DistinguishedCycle,
    change_basis,
    change_basis_cycle,
    homology_over_valuation,
    identity,
    mat_mul,
    tensor,
    tensor_generators,
)
from concordia.invariants import as_forward
from concordia.laurent import LaurentElement, Ring
from property_suites import random_laurent

SIGMAS = {
    "A": ("A",),
    "B(1/8)": ("B", Fraction(1, 8)),
    "B(1/3)": ("B", Fraction(1, 3)),
    "B(1/2)": ("B", Fraction(1, 2)),
    "B(1)": ("B", Fraction(1)),
    "C": ("C",),
    "D": ("D",),
}
MODELS = ("unknot", "trefoil", "trefoil_left", "exampleE")


# -- the two-pass reference -------------------------------------------------------------

def _smith_with_inverses(matrix, weight, one, zero, ncols=None):
    """(diagonal, L, L^-1, R, R^-1) by min-ord pivoting on the whole matrix."""
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if a else (ncols or 0)
    left, left_inv = [list(map(list, identity(m, one, zero))) for _ in range(2)]
    right, right_inv = [list(map(list, identity(n, one, zero))) for _ in range(2)]

    def row_add(dst, src, f):
        for c in range(n):
            a[dst][c] = a[dst][c] + f * a[src][c]
        for c in range(m):
            left[dst][c] = left[dst][c] + f * left[src][c]
        for r in range(m):
            left_inv[r][src] = left_inv[r][src] + f * left_inv[r][dst]

    def col_add(dst, src, f):
        for r in range(m):
            a[r][dst] = a[r][dst] + f * a[r][src]
        for r in range(n):
            right[r][dst] = right[r][dst] + f * right[r][src]
        for c in range(n):
            right_inv[src][c] = right_inv[src][c] + f * right_inv[dst][c]

    diagonal = []
    for s in range(min(m, n)):
        cells = [(weight.ord_rf(a[i][j]), i, j) for i in range(s, m) for j in range(s, n)
                 if not a[i][j].is_zero()]
        if not cells:
            break
        _, i, j = min(cells, key=lambda c: c[0])   # first in row-major order on ties
        a[s], a[i] = a[i], a[s]
        left[s], left[i] = left[i], left[s]
        for row in left_inv:
            row[s], row[i] = row[i], row[s]
        for row in a + right:
            row[s], row[j] = row[j], row[s]
        right_inv[s], right_inv[j] = right_inv[j], right_inv[s]
        pivot = a[s][s]
        for r in range(s + 1, m):
            if not a[r][s].is_zero():
                row_add(r, s, a[r][s] / pivot)
        for c in range(s + 1, n):
            if not a[s][c].is_zero():
                col_add(c, s, a[s][c] / pivot)
        diagonal.append(pivot)
    return diagonal, left, left_inv, right, right_inv


class _TwoPass:
    """One degree's homology by the kernel-basis rewrite and a second pass."""

    def __init__(self, complex, applied, weight, d):
        one, zero = RationalFunction.one(SERIES_VARS), RationalFunction.zero(SERIES_VARS)
        n = complex.rank(d)
        out_mat = applied.get(d + 1) or [[zero] * complex.rank(d + 1) for _ in range(n)]
        in_mat = applied.get(d) or []
        diag_out, left_out, left_inv_out, _, _ = _smith_with_inverses(
            out_mat, weight, one, zero, ncols=complex.rank(d + 1))
        self.rank_out = len(diag_out)
        self.kernel_basis = left_out[self.rank_out:]
        self.left_inv_out = left_inv_out
        self.zero = zero
        coords = [self._kernel_coords(row) for row in in_mat]
        k = n - self.rank_out
        diag_in, _, _, self.rprime, self.rprime_inv = _smith_with_inverses(
            coords, weight, one, zero, ncols=k)
        self.rank_in = len(diag_in)
        self.free_rank = k - self.rank_in
        ords = (weight.ord_rf(x) for x in diag_in)
        self.torsion_ords = tuple(sorted((o for o in ords if not o.is_zero()), reverse=True))

    def _kernel_coords(self, vec):
        full = mat_mul((tuple(vec),), self.left_inv_out, self.zero)[0]
        if any(not c.is_zero() for c in full[:self.rank_out]):
            raise NotACycle("not a cycle")
        return full[self.rank_out:]

    def free_coefficient(self, vec):
        y = mat_mul((self._kernel_coords(vec),), self.rprime, self.zero)[0]
        free = y[self.rank_in:]
        return free[0] if free and not free[0].is_zero() else None

    def free_generator_lift(self):
        return mat_mul((self.rprime_inv[self.rank_in],), self.kernel_basis, self.zero)[0]


# -- comparison ---------------------------------------------------------------------------

def _pairing(phi, vec):
    acc = None
    for a, b in zip(phi, vec):
        acc = a * b if acc is None else acc + a * b
    return acc


def _ord_or_none(weight, x):
    return None if x is None or x.is_zero() else weight.ord_rf(x)


def _applied(complex, sigma):
    return {k: [[sigma.apply(e) for e in row] for row in m] for k, m in complex.maps.items()}


def _compare(complex, cycle, sigma):
    """Assert agreement; True when the cycle degree has free rank 1, so that
    the free coefficient or the lift was compared too."""
    new = homology_over_valuation(complex, sigma)
    applied = _applied(complex, sigma)
    w = sigma.weight
    ref = {d: _TwoPass(complex, applied, w, d) for d in complex.degrees()}
    for d in complex.degrees():
        assert (new[d].free_rank, new[d].torsion_ords) == (ref[d].free_rank,
                                                           ref[d].torsion_ords)
    d = cycle.degree
    if new[d].free_rank != 1:
        return False
    vec = [sigma.apply(e) for e in cycle.vector]
    if cycle.direction == UNKNOT_TO_K:
        got, want = new[d].free_coefficient(vec), ref[d].free_coefficient(vec)
    else:
        got = _pairing(vec, new[d].free_generator_lift())
        want = _pairing(vec, ref[d].free_generator_lift())
    assert _ord_or_none(w, got) == _ord_or_none(w, want)
    return True


def _tensor_vector(m1, m2):
    """The tensor of the two distinguished vectors at the sum of their degrees."""
    d1, d2 = m1.cycle.degree, m2.cycle.degree
    zero = LaurentElement.zero(m1.ring)
    vec = tuple(m1.cycle.vector[i] * m2.cycle.vector[j] if p == d1 else zero
                for p, i, j in tensor_generators(m1.complex, m2.complex, d1 + d2))
    return DistinguishedCycle(d1 + d2, vec, 0, 0, m1.cycle.direction)


@pytest.mark.parametrize("sigma_args", list(SIGMAS.values()), ids=list(SIGMAS))
@pytest.mark.parametrize("name", MODELS)
def test_catalog_models_match_the_two_pass_reference(name, sigma_args):
    model = catalog.get_model(name)
    assert _compare(model.complex, model.cycle, builtin(*sigma_args))


@pytest.mark.parametrize("sigma_args", [SIGMAS["B(1/3)"], SIGMAS["C"]], ids=["B(1/3)", "C"])
@pytest.mark.parametrize("pair", [
    ("trefoil", "trefoil"),
    ("trefoil", "trefoil_left"),
    ("trefoil_left", "trefoil_left"),
    ("unknot", "trefoil"),
    ("exampleE", "exampleE"),
], ids="#".join)
def test_tensor_complexes_match_the_two_pass_reference(pair, sigma_args):
    m1, m2 = (catalog.get_model(n) for n in pair)
    if m1.cycle.direction != m2.cycle.direction:
        m1, m2 = as_forward(m1), as_forward(m2)
    complex = tensor(m1.complex, m2.complex)
    assert _compare(complex, _tensor_vector(m1, m2), builtin(*sigma_args))


def _three_term(rng, direction):
    """(x, y, 0) then (y, x, 0)^T, with a free third generator in the middle,
    in a random unimodular basis of the middle degree; the distinguished
    vector mixes the free generator with the boundary direction."""
    ring = Ring.BN
    one, zero = LaurentElement.one(ring), LaurentElement.zero(ring)
    x, y = (random_laurent(rng, ring, nonzero=True) for _ in range(2))
    c = ChainComplex(ring, {0: 1, 1: 3, 2: 1}, {1: ((x, y, zero),),
                                                2: ((y,), (x,), (zero,))})
    a = a_inv = identity(3, one, zero)
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        e = [list(row) for row in identity(3, one, zero)]
        e[i][j] = random_laurent(rng, ring, max_terms=2, max_exp=1)
        a, a_inv = mat_mul(e, a, zero), mat_mul(a_inv, e, zero)   # e is an involution
    s = random_laurent(rng, ring, max_terms=2, max_exp=1)
    t = random_laurent(rng, ring, max_terms=2, nonzero=True)
    if direction == UNKNOT_TO_K:
        cyc = DistinguishedCycle(1, (s * x, s * y, t), 0, 0, UNKNOT_TO_K)
    else:
        cyc = DistinguishedCycle(1, (s * y, s * x, t), 0, 0, K_TO_UNKNOT)
    return change_basis(c, 1, a, a_inv), change_basis_cycle(cyc, 1, a, a_inv, ring)


@pytest.mark.parametrize("direction", [UNKNOT_TO_K, K_TO_UNKNOT])
def test_three_term_complexes_match_the_two_pass_reference(direction):
    rng = random.Random(4711 if direction == UNKNOT_TO_K else 4712)
    compared = 0
    for _ in range(12):
        complex, cycle = _three_term(rng, direction)
        for args in (SIGMAS["B(1/3)"], SIGMAS["B(1)"], SIGMAS["C"], SIGMAS["D"]):
            compared += _compare(complex, cycle, builtin(*args))
    assert compared >= 40


def test_both_methods_reject_a_non_cycle():
    complex, _ = _three_term(random.Random(5), UNKNOT_TO_K)
    sigma = builtin("B", Fraction(1, 2))
    out = complex.map_into(2)
    i = next(i for i, row in enumerate(out) if not row[0].is_zero())
    one, zero = LaurentElement.one(Ring.BN), LaurentElement.zero(Ring.BN)
    bad = [sigma.apply(one if k == i else zero) for k in range(3)]
    with pytest.raises(NotACycle):
        homology_over_valuation(complex, sigma)[1].free_coefficient(bad)
    with pytest.raises(NotACycle):
        _TwoPass(complex, _applied(complex, sigma), sigma.weight, 1).free_coefficient(bad)
