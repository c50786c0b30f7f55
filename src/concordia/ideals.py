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
most recently used bases are cached per generator set.  The engine works on
packed monomials (`field2.Packing`, which lives in field2 as the package's
one monomial encoding and is re-exported here): one Python int per monomial,
whose int order is grevlex order, so a product is an int sum and
divisibility is one masked subtraction.  It reads Poly2's packed ints as
they are, in Poly2's fields, whenever those hold the largest degree a call
can reach: twice the larger of the input degree and the degree cap in
Buchberger, and the degree of the box's largest product in a g-region.  Only
a call that reaches further packs its terms again, in wider fields.
`buchberger` returns the canonically sorted Poly2 elements, and the basis
keeps its packed divisors for the queries that reuse it.  Reduction takes
each leading term from a heap, and Buchberger takes each pair from a heap
ordered by (lcm, i, j), skipping pairs the Gebauer-Moller criteria retired
after they were queued.  A g-region computes one basis for its whole box
and makes one short reduction per cell, walking normal forms from cell to
cell; a principal ideal needs no basis, and each of its cells, like each
principal membership query, is one exact division.  Every other membership
query on an ideal reads the basis of its cleared generators.  A unit does
not change membership, so an element is first divided by the monomial gcd of
its terms.  The environment variable CONCORDIA_GB_MAXDEG caps the degree of
any new basis element so a pathological input aborts with a diagnostic
instead of running unbounded; a value that is not an integer is a
UsageError.
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
from .field2 import MAX_DEGREE, Packing, Poly2, packing
from .field2 import packed_divides as _divides
from .field2 import packed_product as _product
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
    text = os.environ.get("CONCORDIA_GB_MAXDEG", "128")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"CONCORDIA_GB_MAXDEG must be an integer, got {text!r}") from None


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

def _packing(n, degree) -> Packing:
    """Poly2's packing when its fields hold `degree`, else one wide enough."""
    return packing(n) if degree <= MAX_DEGREE else Packing(n, degree)


def _poly(vars, pk, terms) -> Poly2:
    """The Poly2 of terms packed by pk: unpacked and packed again only when
    pk is wider than Poly2's packing."""
    own = packing(len(vars))
    if pk.w == own.w:
        return Poly2._make(vars, own, terms)
    return Poly2(vars, map(pk.unpack, terms))


def _reduce(terms, divisors, guard) -> list:
    """Packed terms of the normal form of the packed terms modulo the
    divisors, given as (leading term, tail) pairs; leading term first.

    The first divisor in list order whose leading term divides wins.  The
    terms still to be reduced are a set with a heap of their negated ints
    beside it.  A term is pushed when it enters the set; an entry whose term
    has since cancelled is skipped when it reaches the top.  A reduction step
    only adds terms below the one it removes, so a removed term never returns.
    """
    rest = set(terms)
    heap = [-m for m in rest]
    heapq.heapify(heap)
    out = []
    while heap:
        lt = -heapq.heappop(heap)
        if lt not in rest:
            continue
        rest.discard(lt)
        probe = lt | guard
        for glt, tail in divisors:
            if (probe - glt) & guard == guard:
                shift = lt - glt
                for t in tail:
                    m = shift + t
                    if m in rest:
                        rest.discard(m)
                    else:
                        rest.add(m)
                        heapq.heappush(heap, -m)
                break
        else:
            out.append(lt)
    return out


class Basis(tuple):
    """Polynomials to divide by, and their terms packed for the reducer.

    `buchberger` returns one that keeps the packing it computed in, so the
    cached basis of an ideal is packed once for all its queries.
    """

    def __new__(cls, polys=(), packed=None):
        self = super().__new__(cls, polys)
        self._packed = packed
        return self

    def divisors(self, n, degree):
        """(packing, divisors as (leading term, tail)) whose fields hold every
        degree up to `degree`; packed again, wider, only when they do not."""
        if self._packed is None or self._packed[0].n != n or degree > self._packed[0].capacity:
            pk = _packing(n, max([degree] + [g.total_degree() for g in self]))
            terms = [pk.poly(g) for g in self]
            self._packed = pk, [(t[0], tuple(t[1:])) for t in terms]
        return self._packed


def poly_reduce(p: Poly2, basis) -> Poly2:
    """Full normal form of p modulo the basis (multi-divisor division)."""
    if not isinstance(basis, Basis):
        basis = Basis(basis)
    pk, divisors = basis.divisors(len(p.vars), p.total_degree())
    return _poly(p.vars, pk, _reduce(pk.poly(p), divisors, pk.guard))


def s_poly(f, g, lcm) -> set:
    """S-polynomial of two packed polynomials given as (leading term, tail),
    whose leading terms have the packed lcm `lcm`: the leading terms cancel,
    so it is the two shifted tails."""
    sf, sg = lcm - f[0], lcm - g[0]
    terms = {sf + t for t in f[1]}
    terms.symmetric_difference_update([sg + t for t in g[1]])
    return terms


def buchberger(gens, cap=None) -> Basis:
    """Reduced Groebner basis of the given polynomials, canonically sorted.

    Pair management follows Gebauer-Moller: a new element retires old pairs
    whose lcm it strictly covers, candidate pairs are pruned to the minimal
    lcms (preferring coprime representatives, which the product criterion
    then deletes), and elements whose lead the new lead divides stop forming
    pairs.  The pruned pairs all have S-polynomials that reduce to zero, so
    the final interreduction still yields the unique reduced basis.  Pairs
    wait in a heap ordered by (lcm, i, j); a retired pair stays there and is
    skipped when popped.

    Monomials are packed (see `Packing`).  A basis element has degree at
    most max(input degree, cap), so an lcm, and every term of an
    S-polynomial and its reduction, has at most twice that.  Poly2's own
    packing holds that for any cap up to MAX_DEGREE / 2, so the inputs are
    read as they are; a larger cap packs them again in wider fields.
    """
    if cap is None:
        cap = degree_cap()
    seed = [g for g in gens if not g.is_zero()]
    if not seed:
        return Basis()
    vars = seed[0].vars
    pk = _packing(len(vars), 2 * max([cap] + [g.total_degree() for g in seed]))
    guard = pk.guard
    basis = []      # append-only store of (leading term, tail)
    alive = []      # indices still forming pairs and reducing
    pairs = {}      # surviving candidate pairs (i, j), i < j -> lcm of their leads
    queue = []      # heap of (lcm, i, j) over pairs, retired ones included

    def add(terms):
        t = len(basis)
        lt = terms[0]
        basis.append((lt, tuple(terms[1:])))
        # old pairs strictly covered by the new lead are redundant
        for (i, j), l in list(pairs.items()):
            if (_divides(lt, l, guard) and pk.lcm(basis[i][0], lt) != l
                    and pk.lcm(basis[j][0], lt) != l):
                del pairs[i, j]
        # keep only minimal candidate lcms; coprime ones (lcm = product) win
        # ties so the product criterion can delete the whole equal-lcm group
        cand = {g: pk.lcm(basis[g][0], lt) for g in alive}
        coprime = {g: cand[g] == basis[g][0] + lt for g in alive}
        kept = []
        for g in sorted(alive, key=lambda g: (cand[g], not coprime[g], g)):
            if not any(_divides(cand[k], cand[g], guard) for k in kept):
                kept.append(g)
        for g in kept:
            if not coprime[g]:
                pairs[g, t] = cand[g]
                heapq.heappush(queue, (cand[g], g, t))
        alive[:] = [g for g in alive if not _divides(lt, basis[g][0], guard)]
        alive.append(t)

    for g in seed:
        r = _reduce(pk.poly(g), [basis[a] for a in alive], guard)
        if r:
            add(r)
    while queue:
        lcm, i, j = heapq.heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue
        r = _reduce(s_poly(basis[i], basis[j], lcm), [basis[a] for a in alive], guard)
        if not r:
            continue
        if pk.degree(r[0]) > cap:
            raise GroebnerDegreeCap(
                f"basis element of degree {pk.degree(r[0])} exceeds "
                f"CONCORDIA_GB_MAXDEG={cap}"
            )
        add(r)
    # Every element was reduced by the alive ones when it was added, and
    # adding it retired those whose lead its own divides, so no alive lead
    # divides another: the alive elements form a minimal basis.  Sorted by
    # lead they are in canonical order, and tail reduction keeps each lead.
    minimal = [basis[a] for a in sorted(alive, key=lambda a: basis[a][0])]
    reduced = [
        _reduce((lead,) + tail, minimal[:idx] + minimal[idx + 1:], guard)
        for idx, (lead, tail) in enumerate(minimal)
    ]
    return Basis((_poly(vars, pk, terms) for terms in reduced),
                 (pk, [(terms[0], tuple(terms[1:])) for terms in reduced]))


# The most recently used bases, least recent first.  A report reads one basis
# and a g-region deck reads a basis again at most two others after building
# it, so four keeps every re-read.
_GB_CACHE = OrderedDict()
_GB_CACHE_SIZE = 4


def groebner_for(ring: Ring, cleared_gens) -> tuple:
    """Cached reduced basis of <cleared gens> + saturation relations."""
    polys = [saturation_poly(g) for g in cleared_gens if not g.is_zero()]
    key = (ring, frozenset(p.mons for p in polys))
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
    # a monomial is a unit: dividing x by the monomial gcd of its terms keeps
    # membership and leaves the smallest polynomial to saturate
    low = [min(col) for col in zip(*x.terms)]
    if any(low):
        x = LaurentElement(x.ring, (tuple(map(operator.sub, t, low)) for t in x.terms))
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
    generators.  One cleared generator decides each cell by one exact
    division.  Otherwise one basis serves the whole box.  The saturated ideal
    holds every T_i*U_i + 1, so the saturation of a product and the product
    of the saturations agree modulo it, and the reduced basis gives each
    class one normal form.  So the walk keeps the normal form of D * P^g down
    the rows, steps along a row by multiplying by the saturation of V and
    reducing, and a cell is in the ideal iff its normal form is 0.
    """
    if g_max < 0 or d_max < 0:
        raise UsageError("g-region bounds must be nonnegative")
    ring = ideal.ring
    prod_all, cleared = ideal._cleared()
    v_elt = V() if ring is Ring.FULL else L()
    if len(cleared) == 1:
        # principal: each cell is one exact division, no basis
        out = set()
        row = prod_all
        for g in range(g_max + 1):
            if g:
                row = row * P(ring)
            cell = row
            for d in range(d_max + 1):
                if d:
                    cell = cell * v_elt
                if laurent_member(cell, cleared, ring):
                    out.add((g, d))
        return out
    basis = groebner_for(ring, cleared)
    p, v, start = (saturation_poly(x) for x in (P(ring), v_elt, prod_all))
    # a cell's normal form has at most the degree of the product it reduces
    reach = start.total_degree() + g_max * p.total_degree() + d_max * v.total_degree()
    pk, divisors = basis.divisors(len(p.vars), reach)
    p, v = pk.poly(p), pk.poly(v)
    out = set()
    row = _reduce(pk.poly(start), divisors, pk.guard)
    for g in range(g_max + 1):
        if g:
            row = _reduce(_product(p, row), divisors, pk.guard)
        cell = row
        for d in range(d_max + 1):
            if d:
                cell = _reduce(_product(v, cell), divisors, pk.guard)
            if not cell:
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
