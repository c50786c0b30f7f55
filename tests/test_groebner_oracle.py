"""The Groebner engine against sympy, and the heap reducer against a linear scan."""

import itertools
import random

import pytest

from concordia.field2 import Poly2, divides, grevlex_key
from concordia.ideals import buchberger, poly_reduce

XYZ = ("x", "y", "z")


def _random_poly(rng, max_terms=4, max_deg=3):
    monomials = [t for t in itertools.product(range(max_deg + 1), repeat=3)
                 if sum(t) <= max_deg]
    terms = set()
    for _ in range(rng.randint(1, max_terms)):
        terms ^= {rng.choice(monomials)}
    return Poly2(XYZ, terms or {(0, 0, 0)})


def _random_sets(seed, count=100):
    rng = random.Random(seed)
    for _ in range(count):
        gens = [_random_poly(rng) for _ in range(rng.randint(2, 3))]
        yield gens, _random_poly(rng, max_terms=6, max_deg=4)


def _scan_reduce(p, basis):
    """The reduction step by step as a linear scan for the leading term."""
    lts = [(g.leading_term(), g.terms) for g in basis]
    rest = set(p.terms)
    out = set()
    while rest:
        lt = max(rest, key=grevlex_key)
        for glt, gterms in lts:
            if divides(glt, lt):
                shift = tuple(a - b for a, b in zip(lt, glt))
                rest ^= {tuple(a + b for a, b in zip(shift, t)) for t in gterms}
                break
        else:
            rest.discard(lt)
            out.add(lt)
    return Poly2(p.vars, out)


def test_heap_reduction_matches_a_linear_scan_for_any_divisor_list():
    # the divisors are not a Groebner basis, so the result depends on which
    # divisor each step picks; the two must pick alike
    for gens, f in _random_sets(7):
        assert poly_reduce(f, gens) == _scan_reduce(f, gens)


def test_buchberger_and_poly_reduce_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x, y, z = syms = sympy.symbols("x y z")

    def to_expr(p):
        return sympy.Add(*(x ** a * y ** b * z ** c for a, b, c in p.terms))

    def to_terms(expr):
        poly = sympy.Poly(expr, *syms, modulus=2)
        return frozenset() if poly.is_zero else frozenset(poly.monoms())

    for gens, f in _random_sets(53):
        basis = buchberger(gens)
        oracle = sympy.groebner([to_expr(g) for g in gens], *syms,
                                modulus=2, order="grevlex")
        assert {g.terms for g in basis} == {to_terms(e) for e in oracle.exprs}
        _, remainder = oracle.reduce(to_expr(f))
        assert poly_reduce(f, basis).terms == to_terms(remainder)
