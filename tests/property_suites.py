"""Randomized property-suite drivers shared by the property and acceptance tests.

Each driver takes a seeded Random and a case count and returns a list of
failure descriptions (empty means the suite passed).  Cases are kept small
so a thousand of each run in seconds; every check is exact.
"""

import random
from fractions import Fraction

from concordia.basechange import builtin
from concordia.field2 import Poly2, RationalFunction
from concordia.homalg import (
    ChainComplex,
    ChainMap,
    dualize,
    is_zero,
    mapping_cone,
    mat_mul,
    smith_diagonalize,
    tensor,
)
from concordia.ideals import buchberger
from concordia.laurent import LaurentElement, Ring
from concordia.valuation import MonomialWeight, Order

WVARS = ("x", "y", "u")


def random_poly(rng, vars=WVARS, max_terms=4, max_exp=3, nonzero=False):
    """Random F2 polynomial with a few small-exponent terms."""
    n = rng.randint(1 if nonzero else 0, max_terms)
    terms = {
        tuple(rng.randint(0, max_exp) for _ in vars) for _ in range(n)
    }
    return Poly2(vars, terms)


def random_weight(rng):
    """Random strictly positive weight table, rational or lexicographic."""
    if rng.random() < 0.5:
        table = {v: Fraction(rng.randint(1, 6), rng.randint(1, 6)) for v in WVARS}
        return MonomialWeight.rational(table)
    table = {
        v: (Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3)))
        for v in WVARS
    }
    # lex weights must stay strictly positive
    table = {
        v: (a if (a, b) > (0, 0) else Fraction(1), b)
        for v, (a, b) in table.items()
    }
    return MonomialWeight.lex(table)


def random_laurent(rng, ring, max_terms=3, max_exp=2, nonzero=False):
    """Random Laurent element with exponents in [-max_exp, max_exp]."""
    n = rng.randint(1 if nonzero else 0, max_terms)
    start = 1 if ring is Ring.BN else 0
    terms = set()
    for _ in range(n):
        t = [0, 0, 0, 0]
        for i in range(start, 4):
            t[i] = rng.randint(-max_exp, max_exp)
        terms.add(tuple(t))
    return LaurentElement(ring, terms)


def suite_valuation_axioms(rng, cases):
    """ord(pq) = ord(p) + ord(q) and the ultrametric inequality for sums."""
    failures = []
    for i in range(cases):
        w = random_weight(rng)
        p = random_poly(rng, nonzero=True)
        q = random_poly(rng, nonzero=True)
        op, oq = w.ord_poly(p), w.ord_poly(q)
        if w.ord_poly(p * q) != op + oq:
            failures.append(f"case {i}: ord({p} * {q}) != {op} + {oq}")
        s = p + q
        if not s.is_zero():
            os = w.ord_poly(s)
            if os < min(op, oq):
                failures.append(f"case {i}: ord({p} + {q}) = {os} below min")
            if op != oq and os != min(op, oq):
                failures.append(f"case {i}: strict ultrametric failed on {p}, {q}")
    return failures


def suite_leading_form(rng, cases):
    """leading_form(pq) = leading_form(p) * leading_form(q)."""
    failures = []
    for i in range(cases):
        w = random_weight(rng)
        p = random_poly(rng, nonzero=True)
        q = random_poly(rng, nonzero=True)
        if w.leading_form(p * q) != w.leading_form(p) * w.leading_form(q):
            failures.append(f"case {i}: leading form not multiplicative on {p}, {q}")
    return failures


def suite_apply_homomorphism(rng, cases):
    """Base-change application preserves sums and products."""
    failures = []
    names = ("A", "B", "C", "Cprime", "D")
    for i in range(cases):
        name = names[rng.randrange(len(names))]
        sigma = builtin(name, "1/2") if name == "B" else builtin(name)
        ring = Ring.FULL if rng.random() < 0.5 else Ring.BN
        a = random_laurent(rng, ring)
        b = random_laurent(rng, ring)
        if sigma.apply(a + b) != sigma.apply(a) + sigma.apply(b):
            failures.append(f"case {i}: {name} not additive on {a}, {b}")
        if sigma.apply(a * b) != sigma.apply(a) * sigma.apply(b):
            failures.append(f"case {i}: {name} not multiplicative on {a}, {b}")
    return failures


def _random_two_step(rng, ring):
    """Random complex 0 -> C_0 -> C_1 -> 0 (any single map squares to zero)."""
    r0 = rng.randint(1, 2)
    r1 = rng.randint(1, 2)
    m = tuple(
        tuple(random_laurent(rng, ring, max_terms=2, max_exp=1) for _ in range(r1))
        for _ in range(r0)
    )
    return ChainComplex(ring, {0: r0, 1: r1}, {1: m})


def _square_is_zero(c):
    for k in c.degrees():
        if not is_zero(mat_mul(c.map_into(k), c.map_into(k + 1), c.zero)):
            return False
    return True


def suite_differential_squares_to_zero(rng, cases):
    """Cone, tensor, and dual of valid complexes stay complexes."""
    failures = []
    for i in range(cases):
        ring = Ring.FULL if rng.random() < 0.5 else Ring.BN
        a = _random_two_step(rng, ring)
        b = _random_two_step(rng, ring)
        t = tensor(a, b)
        if not _square_is_zero(t):
            failures.append(f"case {i}: tensor differential does not square to zero")
        if not _square_is_zero(dualize(t)):
            failures.append(f"case {i}: dual differential does not square to zero")
        # scalar multiples of the identity always commute with the differential
        g = random_laurent(rng, ring, max_terms=2, max_exp=1)
        blocks = {
            k: tuple(
                tuple(g if r == c else LaurentElement.zero(ring)
                      for c in range(a.rank(k)))
                for r in range(a.rank(k))
            )
            for k in a.degrees()
        }
        cone = mapping_cone(ChainMap(a, a, blocks))
        if not _square_is_zero(cone):
            failures.append(f"case {i}: cone differential does not square to zero")
    return failures


def _random_fraction_matrix(rng, rows, cols):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            num = random_poly(rng, max_terms=2, max_exp=2)
            row.append(RationalFunction(num))
        out.append(tuple(row))
    return tuple(out)


def _divisor_ords(matrix, weight, ncols):
    one = RationalFunction.one(WVARS)
    zero = RationalFunction.zero(WVARS)
    form = smith_diagonalize(matrix, weight, one, zero, ncols=ncols)
    return sorted(weight.ord_rf(d).vec for d in form.diagonal)


def suite_elementary_divisors(rng, cases):
    """Unit row/column operations leave the divisor ords unchanged."""
    failures = []
    one = RationalFunction.one(WVARS)
    for i in range(cases):
        w = random_weight(rng)
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = [list(r) for r in _random_fraction_matrix(rng, rows, cols)]
        before = _divisor_ords(m, w, cols)
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(4)
            if op == 0 and rows > 1:
                r1, r2 = rng.sample(range(rows), 2)
                f = RationalFunction(random_poly(rng, max_terms=2, max_exp=1))
                for c in range(cols):
                    m[r1][c] = m[r1][c] + f * m[r2][c]
            elif op == 1 and cols > 1:
                c1, c2 = rng.sample(range(cols), 2)
                f = RationalFunction(random_poly(rng, max_terms=2, max_exp=1))
                for r in range(rows):
                    m[r][c1] = m[r][c1] + f * m[r][c2]
            elif op == 2:
                # multiply a row by an ord-zero unit of the valuation ring
                n1 = one + RationalFunction(random_poly(rng, max_terms=1))
                d1 = one + RationalFunction(random_poly(rng, max_terms=1))
                if n1.is_zero() or d1.is_zero():
                    continue
                unit = n1 / d1
                if w.ord_rf(unit) == w.zero():
                    r1 = rng.randrange(rows)
                    for c in range(cols):
                        m[r1][c] = unit * m[r1][c]
            else:
                r1, r2 = rng.sample(range(rows), 2) if rows > 1 else (0, 0)
                m[r1], m[r2] = m[r2], m[r1]
        after = _divisor_ords(m, w, cols)
        if before != after:
            failures.append(f"case {i}: divisors changed from {before} to {after}")
    return failures


def suite_groebner_determinism(rng, cases):
    """The reduced basis does not depend on generator order."""
    failures = []
    vars = ("a", "b")
    for i in range(cases):
        gens = [
            random_poly(rng, vars=vars, max_terms=3, max_exp=2, nonzero=True)
            for _ in range(rng.randint(2, 3))
        ]
        basis = buchberger(gens)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        if buchberger(shuffled) != basis:
            failures.append(f"case {i}: basis depends on order for {gens}")
    return failures


ALL_SUITES = (
    ("valuation axioms", suite_valuation_axioms),
    ("leading-form multiplicativity", suite_leading_form),
    ("base-change homomorphism", suite_apply_homomorphism),
    ("differential squares to zero", suite_differential_squares_to_zero),
    ("elementary-divisor invariance", suite_elementary_divisors),
    ("Groebner determinism", suite_groebner_determinism),
)
