"""The packed Poly2 kernel against a tuple reference, and its degree limit.

The reference below is the exponent-tuple arithmetic Poly2 used before its
monomials were packed: term sets of tuples ordered by `grevlex_key`,
multiplied by `term_product`, divided with `divides`, and the same
subresultant gcd.  Integer-scaled valuations are compared with the
`Fraction` formula ord = min over terms of sum(e_v * w_v).
"""

import random
from fractions import Fraction

import pytest

from concordia import cli
from concordia.errors import ConcordiaError, DegreeOverflow
from concordia.field2 import (
    MAX_DEGREE,
    Poly2,
    RationalFunction,
    divides,
    gcd,
    grevlex_key,
    poly_div,
    term_product,
)
from concordia.valuation import MonomialWeight

VARS = ("q1", "q2", "x", "y", "z", "u")
N = len(VARS)
ONE = frozenset({(0,) * N})


# -- the tuple reference ------------------------------------------------------------

def ref_lead(a):
    return max(a, key=grevlex_key)


def ref_degree(a):
    return max((sum(t) for t in a), default=0)


def ref_div(num, den):
    if not num:
        return frozenset()
    lt_d = ref_lead(den)
    rest, quot = set(num), set()
    while rest:
        lt = ref_lead(rest)
        if not divides(lt_d, lt):
            return None
        shift = tuple(x - y for x, y in zip(lt, lt_d))
        quot ^= {shift}
        rest ^= {tuple(x + y for x, y in zip(shift, t)) for t in den}
    return frozenset(quot)


def ref_str(a):
    if not a:
        return "0"
    parts = []
    for t in sorted(a, key=grevlex_key, reverse=True):
        factors = [f"{v}^{e}" if e != 1 else v for v, e in zip(VARS, t) if e]
        parts.append("*".join(factors) if factors else "1")
    return " + ".join(parts)


def _uni(a, vi):
    out = {}
    for t in a:
        out.setdefault(t[vi], set()).add(t[:vi] + (0,) + t[vi + 1:])
    return {d: frozenset(c) for d, c in out.items()}


def _uni_add(a, b):
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, frozenset()) ^ c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _uni_scale(a, c, shift):
    out = {}
    for d, coeff in a.items():
        p = frozenset(term_product(coeff, c))
        if p:
            out[d + shift] = p
    return out


def _ref_pow(a, e):
    out = ONE
    for _ in range(e):
        out = frozenset(term_product(out, a))
    return out


def _prem(a, b):
    db = max(b)
    lb = b[db]
    r = dict(a)
    e = max(a) - db + 1
    while r and max(r) >= db:
        dr = max(r)
        r = _uni_add(_uni_scale(r, lb, 0), _uni_scale(b, r[dr], dr - db))
        e -= 1
    if r and e > 0:
        r = _uni_scale(r, _ref_pow(lb, e), 0)
    return r


def _content(coeffs):
    g = None
    for c in sorted(coeffs.values(), key=lambda c: (len(c), ref_degree(c))):
        g = c if g is None else ref_gcd(g, c)
        if g == ONE:
            break
    return g


def ref_gcd(a, b):
    if not a:
        return b
    if not b:
        return a
    if ONE in (a, b):
        return ONE
    if a == b:
        return a
    if len(a) == 1 or len(b) == 1:
        return frozenset({tuple(min(t[i] for t in a | b) for i in range(N))})
    da, db = ref_degree(a), ref_degree(b)
    if db <= da and ref_div(a, b) is not None:
        return b
    if da <= db and ref_div(b, a) is not None:
        return a
    vi, best = None, None
    for i in range(N):
        d = max(t[i] for t in a | b)
        if d and (best is None or d < best):
            vi, best = i, d
    ua, ub = _uni(a, vi), _uni(b, vi)
    ca, cb = _content(ua), _content(ub)
    cont = ref_gcd(ca, cb)
    pa = {d: ref_div(c, ca) for d, c in ua.items()}
    pb = {d: ref_div(c, cb) for d, c in ub.items()}
    if max(pa) < max(pb):
        pa, pb = pb, pa
    g = h = ONE
    while True:
        delta = max(pa) - max(pb)
        r = _prem(pa, pb)
        if not r:
            break
        if max(r) == 0:
            pb = r
            break
        divisor = frozenset(term_product(g, _ref_pow(h, delta)))
        r = {d: ref_div(c, divisor) for d, c in r.items()}
        pa, pb = pb, r
        g = pa[max(pa)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = ref_div(_ref_pow(g, delta), _ref_pow(h, delta - 1))
    if max(pb) == 0:
        return cont
    cpb = _content(pb)
    prim = set()
    for d, c in pb.items():
        prim |= {t[:vi] + (d,) + t[vi + 1:] for t in ref_div(c, cpb)}
    return frozenset(term_product(cont, prim))


# -- random inputs ------------------------------------------------------------------

def rand_terms(rng, nterms, maxexp):
    return frozenset(
        tuple(rng.randrange(maxexp + 1) for _ in VARS)
        for _ in range(rng.randrange(nterms + 1))
    )


def rand_pair(rng):
    """Two polynomials, built from a common factor half of the time."""
    a, b = rand_terms(rng, 4, 2), rand_terms(rng, 4, 2)
    if rng.random() < 0.5:
        c = rand_terms(rng, 3, 1)
        a, b = frozenset(term_product(a, c)), frozenset(term_product(b, c))
    return a, b


@pytest.mark.parametrize("seed", range(4))
def test_packed_arithmetic_matches_the_tuple_reference(seed):
    rng = random.Random(1000 + seed)
    for _ in range(60):
        a, b = rand_pair(rng)
        pa, pb = Poly2(VARS, a), Poly2(VARS, b)
        assert pa.terms == a and pb.terms == b
        assert (pa + pb).terms == a ^ b
        product = frozenset(term_product(a, b))
        assert (pa * pb).terms == product
        assert pa.square().terms == frozenset(tuple(2 * e for e in t) for t in a)
        assert str(pa * pb) == ref_str(product)
        if a:
            assert pa.leading_term() == ref_lead(a)
        if b:
            q = poly_div(pa, pb)
            expected = ref_div(a, b)
            assert (q is None) == (expected is None)
            if q is not None:
                assert q.terms == expected
            assert poly_div(pa * pb, pb).terms == a
        assert gcd(pa, pb).terms == ref_gcd(a, b)


# -- integer-scaled valuations against the Fraction formula ------------------------------

def ref_ord(weights, kind, t):
    zero = (Fraction(0),) * kind
    total = zero
    for v, e in zip(VARS, t):
        w = weights.get(v, zero)
        total = tuple(s + e * c for s, c in zip(total, w))
    return total


WEIGHTS = {
    # rational, denominators 7 and 4 mixed
    "rational": (1, {"x": (Fraction(3, 7),), "y": (Fraction(1, 4),), "u": (Fraction(5, 4),),
                     "z": (Fraction(2, 7),)}),
    # two weighted variables, like the B(r) base changes
    "rational, two variables": (1, {"x": (Fraction(1, 4),), "u": (Fraction(3, 28),)}),
    "lex": (2, {"x": (Fraction(1, 4), Fraction(0)), "y": (Fraction(0), Fraction(1, 4))}),
    "lex, negative second entries": (
        2, {"x": (Fraction(1, 3), Fraction(-2, 7)), "y": (Fraction(0), Fraction(3, 4)),
            "u": (Fraction(2, 7), Fraction(-5, 4))}),
}


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_integer_scaled_ords_match_the_fraction_formula(name):
    kind, table = WEIGHTS[name]
    weight = (MonomialWeight.rational({v: w[0] for v, w in table.items()}) if kind == 1
              else MonomialWeight.lex(table))
    rng = random.Random(name)
    for _ in range(150):
        a, b = rand_terms(rng, 5, 3), rand_terms(rng, 5, 3)
        if not a or not b:
            continue
        pa, pb = Poly2(VARS, a), Poly2(VARS, b)
        lo_a = min(ref_ord(table, kind, t) for t in a)
        lo_b = min(ref_ord(table, kind, t) for t in b)
        assert weight.ord_poly(pa).vec == lo_a
        assert weight.leading_form(pa).terms == {t for t in a if ref_ord(table, kind, t) == lo_a}
        f = RationalFunction(pa, pb)
        # f is reduced, but ord(num) - ord(den) does not depend on the representative
        assert weight.ord_rf(f).vec == tuple(x - y for x, y in zip(lo_a, lo_b))


# -- the packed degree limit ------------------------------------------------------------

def test_a_product_past_the_packed_width_raises_a_typed_error():
    top = Poly2.var(VARS, "x", MAX_DEGREE)
    assert top.total_degree() == MAX_DEGREE
    half = Poly2.var(VARS, "y", MAX_DEGREE // 2)
    assert (half * Poly2.var(VARS, "u", MAX_DEGREE - MAX_DEGREE // 2)).total_degree() == MAX_DEGREE
    for overflow in (lambda: top * Poly2.var(VARS, "y"), lambda: top.square(),
                     lambda: (half + Poly2.one(VARS)) ** 3):
        with pytest.raises(DegreeOverflow, match=str(MAX_DEGREE)):
            overflow()
    assert issubclass(DegreeOverflow, ConcordiaError)
    with pytest.raises(DegreeOverflow):
        Poly2(VARS, [(0, 0, MAX_DEGREE, 1, 0, 0)])


def test_the_cli_reports_a_degree_past_the_limit_without_a_traceback(capsys):
    code = cli.main(["membership", "--ring", "BN", "--ideal", "L, P",
                     "--element", "T1^20000*T2^20000 + 1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("DegreeOverflow:") and str(MAX_DEGREE) in err
    assert "Traceback" not in err
