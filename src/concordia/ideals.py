"""Fractional ideals over the Laurent rings and valuation rings.

Over a valuation ring every finitely generated fractional ideal is
principal, so an ideal is one generator and its ord, and ideals compare by
ord.  Over S_BN or R the ideal keeps its generator list and membership is
decided exactly: clear denominators, adjoin inverse variables U_i with relations
T_i*U_i + 1 (characteristic 2) to saturate away T-monomials, compute a
Groebner basis under graded reverse lexicographic order with the T-variables
before the U-variables, and reduce.

The reduced Groebner basis is unique for a given monomial order, which makes
ideal computations deterministic regardless of generator order; the four
most recently used bases are cached per generator set.  Reduction takes each
leading term from a heap, and Buchberger hands its kept leading terms to
the reducer.  A g-region computes one basis for its whole box and makes one
short reduction per cell, walking normal forms from cell to cell; every
membership query on an ideal reads the basis of its cleared generators.
The environment variable CONCORDIA_GB_MAXDEG caps the degree of any new
basis element so a pathological input aborts with a diagnostic instead of
running unbounded.
"""

from __future__ import annotations

import heapq
import operator
import os
import re
from collections import OrderedDict
from dataclasses import dataclass

from .errors import (
    GroebnerDegreeCap,
    RingMismatch,
    UnsupportedPresentation,
    UsageError,
    ZeroElement,
)
from .field2 import Poly2, divides, grevlex_key
from .laurent import (
    L,
    LaurentElement,
    LaurentFraction,
    P,
    Ring,
    V,
    exact_quotient,
    laurent_gcd,
    parse_laurent_fraction,
)

_SAT_VARS = {
    Ring.FULL: ("T0", "T1", "T2", "T3", "U0", "U1", "U2", "U3"),
    Ring.BN: ("T1", "T2", "T3", "U1", "U2", "U3"),
}


def degree_cap():
    return int(os.environ.get("CONCORDIA_GB_MAXDEG", "128"))


def saturation_poly(x: LaurentElement) -> Poly2:
    """Rewrite a Laurent element as a polynomial in T- and U-variables."""
    vars = _SAT_VARS[x.ring]
    half = len(vars) // 2
    slots = range(4) if x.ring is Ring.FULL else range(1, 4)
    terms = set()
    for t in x.terms:
        exps = [0] * len(vars)
        for pos, i in enumerate(slots):
            e = t[i]
            if e >= 0:
                exps[pos] = e
            else:
                exps[half + pos] = -e
        terms.add(tuple(exps))
    return Poly2(vars, terms)


def saturation_relations(ring: Ring):
    """The relations T_i*U_i + 1 presenting the Laurent ring."""
    vars = _SAT_VARS[ring]
    half = len(vars) // 2
    out = []
    for i in range(half):
        t = [0] * len(vars)
        t[i] = 1
        t[half + i] = 1
        out.append(Poly2(vars, (tuple(t), (0,) * len(vars))))
    return out


# -- Groebner engine ----------------------------------------------------------

def _heap_key(t):
    """grevlex_key negated, so the leading term is the heap minimum."""
    return (-sum(t),) + t[::-1]


def _leads(basis):
    """(leading term, terms) of each basis element, in basis order."""
    return [(g.leading_term(), g.terms) for g in basis]


def poly_reduce(p: Poly2, basis) -> Poly2:
    """Full normal form of p modulo the basis (multi-divisor division)."""
    return _reduce(p, _leads(basis))


def _reduce(p: Poly2, lts) -> Poly2:
    """Normal form of p modulo the divisors given as (leading term, terms).

    The first divisor in list order whose leading term divides wins.  The
    terms still to be reduced are a set with a heap of their keys beside
    it.  A term's key is pushed when it enters the set; an entry whose term
    has since cancelled is skipped when it reaches the top.  A reduction step
    only adds terms below the one it removes, so a removed term never returns.
    """
    rest = set(p.terms)
    heap = [(_heap_key(t), t) for t in rest]
    heapq.heapify(heap)
    out = set()
    while heap:
        lt = heapq.heappop(heap)[1]
        if lt not in rest:
            continue
        for glt, gterms in lts:
            if divides(glt, lt):
                shift = tuple(map(operator.sub, lt, glt))
                for t in gterms:
                    m = tuple(map(operator.add, shift, t))
                    if m in rest:
                        rest.discard(m)
                    else:
                        rest.add(m)
                        heapq.heappush(heap, (_heap_key(m), m))
                break
        else:
            rest.discard(lt)
            out.add(lt)
    return Poly2(p.vars, out)


def s_poly(f: Poly2, g: Poly2) -> Poly2:
    lf, lg = f.leading_term(), g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = tuple(a - b for a, b in zip(lcm, lf))
    sg = tuple(a - b for a, b in zip(lcm, lg))
    mf = Poly2(f.vars, (sf,))
    mg = Poly2(g.vars, (sg,))
    return mf * f + mg * g


def buchberger(gens, cap=None) -> tuple:
    """Reduced Groebner basis of the given polynomials, canonically sorted.

    Pair management follows Gebauer-Moller: a new element retires old pairs
    whose lcm it strictly covers, candidate pairs are pruned to the minimal
    lcms (preferring coprime representatives, which the product criterion
    then deletes), and elements whose lead the new lead divides stop forming
    pairs.  The pruned pairs all have S-polynomials that reduce to zero, so
    the final interreduction still yields the unique reduced basis.
    """
    if cap is None:
        cap = degree_cap()
    seed = [g for g in gens if not g.is_zero()]
    if not seed:
        return ()
    basis = []      # append-only store
    lead = []       # leading term per index
    alive = []      # indices still forming pairs and reducing
    pairs = set()   # surviving candidate pairs (i, j) with i < j

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(lead[i], lead[j]))

    def coprime(i, j):
        return all(min(a, b) == 0 for a, b in zip(lead[i], lead[j]))

    def add(h):
        t = len(basis)
        basis.append(h)
        lead.append(h.leading_term())
        # old pairs strictly covered by the new lead are redundant
        pairs.difference_update([
            (i, j) for (i, j) in pairs
            if divides(lead[t], lcm(i, j))
            and lcm(i, t) != lcm(i, j) and lcm(j, t) != lcm(i, j)
        ])
        # keep only minimal candidate lcms; coprime ones win ties so the
        # product criterion can delete the whole equal-lcm group
        cand = {g: lcm(g, t) for g in alive}
        kept = []
        order = sorted(cand, key=lambda g: (grevlex_key(cand[g]), not coprime(g, t), g))
        for g in order:
            if not any(divides(cand[k], cand[g]) for k in kept):
                kept.append(g)
        pairs.update((g, t) for g in kept if not coprime(g, t))
        alive[:] = [g for g in alive if not divides(lead[t], lead[g])]
        alive.append(t)

    def divisors(indices):
        return [(lead[a], basis[a].terms) for a in indices]

    for g in seed:
        r = _reduce(g, divisors(alive))
        if not r.is_zero():
            add(r)
    while pairs:
        i, j = min(pairs, key=lambda p: (grevlex_key(lcm(*p)), p))
        pairs.discard((i, j))
        r = _reduce(s_poly(basis[i], basis[j]), divisors(alive))
        if r.is_zero():
            continue
        if r.total_degree() > cap:
            raise GroebnerDegreeCap(
                f"basis element of degree {r.total_degree()} exceeds "
                f"CONCORDIA_GB_MAXDEG={cap}"
            )
        add(r)
    # minimalize: drop elements whose leading term another one divides
    final = sorted(alive, key=lambda a: grevlex_key(lead[a]))
    minimal = []
    for a in final:
        if not any(divides(lead[b], lead[a]) for b in minimal):
            minimal.append(a)
    # tail-reduce to the unique reduced basis; no other lead divides a
    # minimal element's lead, so reduction keeps it
    lts = divisors(minimal)
    reduced = []
    for idx, a in enumerate(minimal):
        g = _reduce(basis[a], lts[:idx] + lts[idx + 1:])
        if not g.is_zero():
            reduced.append((lead[a], g))
    reduced.sort(key=lambda lg: (grevlex_key(lg[0]), sorted(lg[1].terms)))
    return tuple(g for _, g in reduced)


# The most recently used bases, least recent first.  A report reads one basis
# and a g-region deck reads a basis again at most two others after building
# it, so four keeps every re-read.
_GB_CACHE = OrderedDict()
_GB_CACHE_SIZE = 4


def groebner_for(ring: Ring, cleared_gens) -> tuple:
    """Cached reduced basis of <cleared gens> + saturation relations."""
    polys = [saturation_poly(g) for g in cleared_gens if not g.is_zero()]
    key = (ring, frozenset(p.terms for p in polys))
    hit = _GB_CACHE.get(key)
    if hit is None:
        hit = buchberger(polys + saturation_relations(ring))
        _GB_CACHE[key] = hit
        if len(_GB_CACHE) > _GB_CACHE_SIZE:
            _GB_CACHE.popitem(last=False)
    else:
        _GB_CACHE.move_to_end(key)
    return hit


def laurent_member(x: LaurentElement, gens, ring: Ring) -> bool:
    """Is x in the Laurent ideal generated by gens (all denominators cleared)."""
    if x.is_zero():
        return True
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return False
    if len(nonzero) == 1:
        # principal case: membership is exact divisibility, decided by one
        # exact division (no gcd)
        return exact_quotient(x, nonzero[0]) is not None
    basis = groebner_for(ring, nonzero)
    return poly_reduce(saturation_poly(x), basis).is_zero()


# -- fractional ideals ----------------------------------------------------------

def _as_fraction(x) -> LaurentFraction:
    if isinstance(x, LaurentFraction):
        return x
    if isinstance(x, LaurentElement):
        return LaurentFraction(x)
    raise TypeError(f"expected a Laurent element or fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class FractionalIdeal:
    """Finitely generated submodule of the fraction field of S_BN or R."""

    ring: Ring
    gens: tuple

    @classmethod
    def from_gens(cls, ring: Ring, gens):
        fracs = tuple(_as_fraction(g) for g in gens)
        for g in fracs:
            if g.ring is not ring:
                raise RingMismatch("generator over the wrong ring")
        nonzero = tuple(g for g in fracs if not g.is_zero())
        if not nonzero:
            raise ZeroElement("a fractional ideal needs a nonzero generator")
        return cls(ring, nonzero)

    @classmethod
    def unit(cls, ring: Ring):
        return cls.from_gens(ring, [LaurentElement.one(ring)])

    def _cleared(self):
        """D, the product of the generator denominators, and the generators
        times D: x is in the ideal iff x * D is in the Laurent ideal of the
        cleared generators."""
        dens = [g.den for g in self.gens]
        prod_all = LaurentElement.one(self.ring)
        for d in dens:
            prod_all = prod_all * d
        cleared = []
        for i, g in enumerate(self.gens):
            rest = LaurentElement.one(self.ring)
            for j, d in enumerate(dens):
                if j != i:
                    rest = rest * d
            cleared.append(g.num * rest)
        return prod_all, cleared

    def contains(self, x) -> bool:
        x = _as_fraction(x)
        if x.ring is not self.ring:
            raise RingMismatch("membership test across rings")
        if x.is_zero():
            return True
        # x * D must be a Laurent element before the generators' basis can
        # decide, so x = a / b needs b to divide a * D.
        prod_all, cleared = self._cleared()
        scaled = exact_quotient(x.num * prod_all, x.den)
        if scaled is None:
            return False
        return laurent_member(scaled, cleared, self.ring)

    def is_subset(self, other) -> bool:
        return all(other.contains(g) for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        return self.is_subset(other) and other.is_subset(self)

    def __hash__(self):
        # In these factorial rings {d : d*I is integral} is the principal ideal
        # of the lcm D of the reduced denominators, so D is fixed by the ideal
        # up to a unit, and so are D*I and its reduced Groebner basis.
        lcd = LaurentElement.one(self.ring)
        for g in self.gens:
            den = g.reduced().den
            lcd = LaurentFraction(lcd * den, laurent_gcd(lcd, den)).as_laurent()
        cleared = [(LaurentFraction(lcd) * g).as_laurent() for g in self.gens]
        return hash((self.ring, groebner_for(self.ring, cleared)))


@dataclass(frozen=True)
class ValuationIdeal:
    """Fractional ideal of a valuation ring: principal, known by its ord."""

    generator: object     # RationalFunction over the series variables
    order: object         # its ord, an Order

    def __eq__(self, other):
        if not isinstance(other, ValuationIdeal):
            return NotImplemented
        return self.order == other.order

    def __hash__(self):
        return hash(self.order)


def module_quotient_rank1(relation, ring: Ring) -> FractionalIdeal:
    """Realize S^2 / <a1*e1 + a2*e2> as the fractional ideal <a2, a1>.

    The map e1 -> a2, e2 -> a1 kills the relation in characteristic 2
    (a1*a2 + a2*a1 = 0) and is an isomorphism onto <a2, a1> modulo torsion.
    Presentations with more than two generators or more than one relation
    are routed through a valuation context instead.
    """
    rel = tuple(relation)
    if len(rel) != 2:
        raise UnsupportedPresentation(
            f"rank-1 realization supports exactly two generators, got {len(rel)}"
        )
    a1, a2 = rel
    return FractionalIdeal.from_gens(ring, [a2, a1])


def quotient_embedding_image(relation, vector, ring: Ring) -> LaurentFraction:
    """Image of a class vector under the rank-1 embedding e1 -> a2, e2 -> a1."""
    rel = tuple(relation)
    if len(rel) != 2 or len(tuple(vector)) != 2:
        raise UnsupportedPresentation("rank-1 embedding needs length-2 data")
    a1, a2 = (_as_fraction(a) for a in rel)
    v1, v2 = (_as_fraction(v) for v in vector)
    return v1 * a2 + v2 * a1


def g_region(ideal: FractionalIdeal, g_max: int, d_max: int) -> set:
    """All (g, delta) in the box with P^g * V^delta in the ideal (L in BN).

    With D the product of the generator denominators, P^g * V^delta is in
    the ideal iff D * P^g * V^delta is in the Laurent ideal of the cleared
    generators.  One basis serves the whole box.  The saturated ideal holds
    every T_i*U_i + 1, so the saturation of a product and the product of the
    saturations agree modulo it, and the reduced basis gives each class one
    normal form.  So the walk keeps the normal form of D * P^g down the rows,
    steps along a row by multiplying by the saturation of V and reducing, and
    a cell is in the ideal iff its normal form is 0.
    """
    if g_max < 0 or d_max < 0:
        raise UsageError("g-region bounds must be nonnegative")
    ring = ideal.ring
    prod_all, cleared = ideal._cleared()
    lts = _leads(groebner_for(ring, cleared))
    p = saturation_poly(P(ring))
    v = saturation_poly(V() if ring is Ring.FULL else L())
    out = set()
    row = _reduce(saturation_poly(prod_all), lts)
    for g in range(g_max + 1):
        if g:
            row = _reduce(p * row, lts)
        cell = row
        for d in range(d_max + 1):
            if d:
                cell = _reduce(v * cell, lts)
            if cell.is_zero():
                out.add((g, d))
    return out


def render_g_region(region: set, g_max: int, d_max: int) -> str:
    """ASCII grid: rows g = 0..g_max (top to bottom), cols delta = 0..d_max."""
    lines = ["g\\d " + " ".join(str(d) for d in range(d_max + 1))]
    for g in range(g_max + 1):
        cells = ("#" if (g, d) in region else "." for d in range(d_max + 1))
        lines.append(f"{g:>3} " + " ".join(cells))
    return "\n".join(lines)


# -- generator parsing ------------------------------------------------------------

_AE_MACROS_RE = re.compile(r"\b([uw])\b")


def parse_generators(text: str, ring: Ring):
    """Parse a comma-separated generator list.

    Accepts the usual Laurent grammar plus the comparison macros u and w
    (u expands to V, or L over the reduced ring; w expands to P), used to
    enter ideals quoted in the u/w generator convention.
    """
    subs = {"u": "V" if ring is Ring.FULL else "L", "w": "P"}
    gens = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        chunk = _AE_MACROS_RE.sub(lambda m: subs[m.group(1)], chunk)
        gens.append(parse_laurent_fraction(chunk, ring))
    return gens
