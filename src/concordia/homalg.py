"""Finite free chain complexes over the Laurent rings and their homology.

Conventions.  A complex stores ranks per degree (a contiguous span) and one
matrix per adjacent pair of degrees.  The matrix stored under key k is the
differential between degrees k-1 and k, written with rows indexed by the
source (degree k-1) generators and columns by the target (degree k)
generators; a vector of coordinates is a row vector and the differential
acts as v |-> v * M.  Degrees ascend in the direction of the differential,
matching the usual presentation 'S -> S + S, 1 |-> (L, P)' of the stock
models, so homology at degree d is ker(M_{d+1}) / im(M_d).

The distinguished vector of a model is either a cycle (direction
unknot-to-K: it must be killed by the outgoing differential) or a
cofunctional (direction K-to-unknot: it must kill the incoming boundaries,
the condition for inducing a map on homology).

Homology after a base change is computed over the valuation ring by exact
diagonalization: the pivot is the entry of minimal ord (ties broken at the
lowest (row, col) in row-major order), and the recorded transforms stay
invertible over the valuation ring because every multiplier has nonnegative
ord.  The elimination is fraction-free (Bareiss): row i is polynomials over
delta_i * p_(s-1), its entries' cleared denominators times the previous
pivot, and each step divides exactly by p_(s-1), so entries stay the size of
minors and no gcd runs.

The computation is one pass per complex.  Each boundary entry goes through
sigma's memo of images, which depends only on sigma's images of T0..T3, so
a family of base changes that varies only the weight (B(r) over r) applies
sigma once per distinct entry.  One Smith form then runs per stored
differential.  Over a valuation ring the kernel of the outgoing map is a
direct summand, so a degree's homology is read from the Smith forms of its
two maps alone: the torsion is the incoming map's nonunit diagonal, the free
rank is n - rank_in - rank_out, and the kernel is never rewritten in a basis
of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    IntegrityError,
    NotAChainMap,
    NotACycle,
    NotInvertible,
    RingMismatch,
    UsageError,
)
from .field2 import Poly2, RationalFunction, poly_div
from .laurent import (
    LaurentElement,
    Ring,
    format_laurent_pretty,
    parse_laurent,
)

UNKNOT_TO_K = "unknot-to-K"
K_TO_UNKNOT = "K-to-unknot"


# -- matrix helpers ------------------------------------------------------------------
#
# One family for both entry kinds: Laurent elements in the complexes and
# rational functions after a base change; zero is the zero of the entries'
# ring.  They read rows given as tuples or lists and return tuples of tuples,
# which is what ChainComplex maps hold and what equality checks compare.

def zeros(rows, cols, zero):
    return tuple((zero,) * cols for _ in range(rows))


def identity(n, one, zero):
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a, b, zero):
    if not a or not b:
        return zeros(len(a), len(b[0]) if b else 0, zero)
    n_mid = len(b)
    out = []
    for row in a:
        if len(row) != n_mid:
            raise RingMismatch("matrix shapes do not compose")
        acc = [zero] * len(b[0])
        for k, entry in enumerate(row):
            if entry.is_zero():
                continue
            for j, other in enumerate(b[k]):
                if not other.is_zero():
                    acc[j] = acc[j] + entry * other
        out.append(tuple(acc))
    return tuple(out)


def is_zero(m):
    return all(e.is_zero() for row in m for e in row)


def transpose(m):
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


# -- complexes ---------------------------------------------------------------------

@dataclass
class ChainComplex:
    """Free complex over R or S_BN; maps[k] runs from degree k-1 to degree k."""

    ring: Ring
    ranks: dict
    maps: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.ranks:
            raise UsageError("a complex needs at least one degree")
        degs = sorted(self.ranks)
        if degs != list(range(degs[0], degs[-1] + 1)):
            raise UsageError(f"degrees {degs} are not contiguous")
        for d, r in self.ranks.items():
            if r < 0:
                raise UsageError(f"negative rank at degree {d}")
        self.maps = {k: tuple(tuple(row) for row in m) for k, m in self.maps.items()}
        for k, m in self.maps.items():
            rows, cols = self.rank(k - 1), self.rank(k)
            if len(m) != rows or any(len(r) != cols for r in m):
                raise UsageError(f"map into degree {k} has shape "
                                 f"{(len(m), len(m[0]) if m else 0)}, wanted {(rows, cols)}")
            for row in m:
                for e in row:
                    if e.ring is not self.ring:
                        raise RingMismatch("matrix entry over the wrong ring")
        for k in list(self.maps):
            nxt = self.maps.get(k + 1)
            if nxt is not None and not is_zero(mat_mul(self.maps[k], nxt, self.zero)):
                raise IntegrityError(f"differential squared is nonzero at degree {k}")

    @property
    def zero(self):
        return LaurentElement.zero(self.ring)

    def rank(self, d):
        return self.ranks.get(d, 0)

    def degrees(self):
        return sorted(self.ranks)

    def map_into(self, k):
        """Matrix of the differential from degree k-1 to degree k (zero if absent)."""
        m = self.maps.get(k)
        if m is not None:
            return m
        return zeros(self.rank(k - 1), self.rank(k), self.zero)

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self.ring is not other.ring or self.ranks != other.ranks:
            return False
        for k in set(self.maps) | set(other.maps):
            if self.map_into(k) != other.map_into(k):
                return False
        return True


@dataclass(frozen=True)
class DistinguishedCycle:
    """Cycle (unknot-to-K) or cofunctional (K-to-unknot) plus cobordism data."""

    degree: int
    vector: tuple
    genus: int
    dplus: int
    direction: str

    def __post_init__(self):
        if self.direction not in (UNKNOT_TO_K, K_TO_UNKNOT):
            raise UsageError(f"unknown direction {self.direction!r}")
        if self.genus < 0 or self.dplus < 0:
            raise UsageError("genus and dplus must be nonnegative")


def validate_cycle(complex: ChainComplex, cycle: DistinguishedCycle):
    """Check the ring-level cycle/cofunctional condition."""
    n = complex.rank(cycle.degree)
    if len(cycle.vector) != n:
        raise NotACycle(f"vector length {len(cycle.vector)} != rank {n} in degree {cycle.degree}")
    zero = complex.zero
    # an absent differential is zero and passes either test
    if cycle.direction == UNKNOT_TO_K:
        out = complex.maps.get(cycle.degree + 1, ())
        image = mat_mul((tuple(cycle.vector),), out, zero)
        if not is_zero(image):
            raise NotACycle("distinguished vector is not killed by the differential")
    else:
        incoming = complex.maps.get(cycle.degree, ())
        pairing = mat_mul(incoming, transpose((tuple(cycle.vector),)), zero)
        if not is_zero(pairing):
            raise NotACycle("cofunctional does not vanish on boundaries")


# -- constructions -------------------------------------------------------------------

@dataclass
class ChainMap:
    """Degree-preserving map of complexes; blocks[k]: source C_k -> target D_k."""

    source: ChainComplex
    target: ChainComplex
    blocks: dict

    def __post_init__(self):
        if self.source.ring is not self.target.ring:
            raise RingMismatch("chain map between different rings")
        self.blocks = {k: tuple(tuple(row) for row in b) for k, b in self.blocks.items()}
        for k, b in self.blocks.items():
            if len(b) != self.source.rank(k) or any(len(r) != self.target.rank(k) for r in b):
                raise NotAChainMap(f"block at degree {k} has the wrong shape")
        zero = self.source.zero
        degs = set(self.source.ranks) | set(self.target.ranks)
        for k in degs:
            left = mat_mul(self.block(k), self.target.map_into(k + 1), zero)
            right = mat_mul(self.source.map_into(k + 1), self.block(k + 1), zero)
            if left != right:
                raise NotAChainMap(f"blocks do not commute with differentials at degree {k}")

    def block(self, k):
        b = self.blocks.get(k)
        if b is not None:
            return b
        return zeros(self.source.rank(k), self.target.rank(k), self.source.zero)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of f: A -> B with Cone_k = A_{k+1} (+) B_k and d(a, b) = (da, f(a) + db)."""
    a, b = f.source, f.target
    degs = sorted(
        {d - 1 for d in a.ranks if a.rank(d) > 0} | {d for d in b.ranks if b.rank(d) > 0}
    )
    if not degs:
        raise UsageError("cone of a map between empty complexes")
    span = range(degs[0], degs[-1] + 1)
    ranks = {k: a.rank(k + 1) + b.rank(k) for k in span}
    maps = {}
    for k in span:
        if k - 1 not in ranks:
            continue
        rows = []
        ua = a.map_into(k + 1)        # A_k -> A_{k+1}
        fb = f.block(k)               # A_k -> B_k
        for i in range(a.rank(k)):
            rows.append(tuple(ua[i]) + tuple(fb[i]))
        ub = b.map_into(k)            # B_{k-1} -> B_k
        za = (a.zero,) * a.rank(k + 1)
        for i in range(b.rank(k - 1)):
            rows.append(za + tuple(ub[i]))
        maps[k] = tuple(rows)
    return ChainComplex(a.ring, ranks, maps)


def tensor_generators(c: ChainComplex, d: ChainComplex, n: int):
    """Ordered generator labels (p, i, j) of (C (x) D)_n."""
    out = []
    for p in c.degrees():
        q = n - p
        if c.rank(p) and d.rank(q):
            for i in range(c.rank(p)):
                for j in range(d.rank(q)):
                    out.append((p, i, j))
    return out


def tensor(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Tensor product complex; no signs in characteristic 2."""
    if c.ring is not d.ring:
        raise RingMismatch("tensor of complexes over different rings")
    ring = c.ring
    lo = min(c.degrees()) + min(d.degrees())
    hi = max(c.degrees()) + max(d.degrees())
    ranks = {}
    gens = {}
    for n in range(lo, hi + 1):
        g = tensor_generators(c, d, n)
        gens[n] = g
        ranks[n] = len(g)
    maps = {}
    zero = c.zero
    for n in range(lo + 1, hi + 1):
        src, tgt = gens[n - 1], gens[n]
        if not src or not tgt:
            continue
        index = {lab: col for col, lab in enumerate(tgt)}
        rows = []
        for (p, i, j) in src:
            q = n - 1 - p
            row = [zero] * len(tgt)
            uc = c.maps.get(p + 1)
            if uc is not None:
                for i2 in range(c.rank(p + 1)):
                    col = index.get((p + 1, i2, j))
                    if col is not None and not uc[i][i2].is_zero():
                        row[col] = row[col] + uc[i][i2]
            ud = d.maps.get(q + 1)
            if ud is not None:
                for j2 in range(d.rank(q + 1)):
                    col = index.get((p, i, j2))
                    if col is not None and not ud[j][j2].is_zero():
                        row[col] = row[col] + ud[j][j2]
            rows.append(tuple(row))
        maps[n] = tuple(rows)
    return ChainComplex(ring, ranks, maps)


def dualize(c: ChainComplex) -> ChainComplex:
    """Transpose the differentials and negate the grading."""
    ranks = {-d: r for d, r in c.ranks.items()}
    maps = {}
    for k, m in c.maps.items():
        # m: degree k-1 -> k dualizes to degree -k -> -(k-1), stored at -(k-1).
        maps[-(k - 1)] = transpose(m)
    return ChainComplex(c.ring, ranks, maps)


def shift(c: ChainComplex, s: int) -> ChainComplex:
    return ChainComplex(c.ring, {d + s: r for d, r in c.ranks.items()},
                        {k + s: m for k, m in c.maps.items()})


def change_basis(c: ChainComplex, degree: int, a, a_inv) -> ChainComplex:
    """Replace the degree's basis by the rows of a (new basis in old coordinates).

    a_inv is the inverse of a; the product a * a_inv must be the identity.
    """
    n = c.rank(degree)
    a, a_inv = (tuple(tuple(row) for row in m) for m in (a, a_inv))
    if any(len(m) != n or any(len(r) != n for r in m) for m in (a, a_inv)):
        raise NotInvertible(f"basis-change matrices must be {n}x{n}")
    if mat_mul(a, a_inv, c.zero) != identity(n, LaurentElement.one(c.ring), c.zero):
        raise NotInvertible("the basis change times its given inverse is not the identity")
    maps = dict(c.maps)
    if c.rank(degree - 1):
        maps[degree] = mat_mul(c.map_into(degree), a_inv, c.zero)
    if c.rank(degree + 1):
        maps[degree + 1] = mat_mul(a, c.map_into(degree + 1), c.zero)
    return ChainComplex(c.ring, dict(c.ranks), maps)


def change_basis_cycle(cycle: DistinguishedCycle, degree: int, a, a_inv, ring) -> DistinguishedCycle:
    """Rewrite the distinguished vector in the new basis."""
    if cycle.degree != degree:
        return cycle
    row = (tuple(cycle.vector),)
    zero = LaurentElement.zero(ring)
    if cycle.direction == UNKNOT_TO_K:
        new = mat_mul(row, a_inv, zero)[0]
    else:
        # functional phi pulls back along the basis change: phi' = phi * a^T
        new = mat_mul(row, transpose(a), zero)[0]
    return DistinguishedCycle(cycle.degree, tuple(new), cycle.genus, cycle.dplus,
                              cycle.direction)


# -- homology over a valuation ring ----------------------------------------------------

@dataclass
class SmithForm:
    """L * M * R = D diagonal; L, R invertible over the valuation ring.

    The rows of L past rank span ker M; in the coordinates v * R the image
    of M is spanned by diagonal[i] * e_i for i < rank.
    """

    diagonal: list        # the rank many nonzero diagonal entries
    rank: int
    left: list            # L
    right: list           # R


def _exact(num, den):
    """num / den, exact at every Bareiss step; a remainder is an IntegrityError."""
    q = num if den.is_one() else poly_div(num, den)
    if q is None:
        raise IntegrityError("an exact division of the fraction-free elimination left a remainder")
    return q


def _multiple(d, e):
    """A common multiple of d and e: d or e when exact division shows that
    one divides the other, their product otherwise."""
    if e.is_one() or poly_div(d, e) is not None:
        return d
    return e if d.is_one() or poly_div(e, d) is not None else d * e


def smith_diagonalize(matrix, weight, one, zero, ncols=None) -> SmithForm:
    """Exact valuation-ring diagonalization with min-ord pivoting.

    matrix entries are RationalFunctions; the pivot at each stage is the
    entry of minimal ord in the remaining block (ties: lowest (row, col) in
    row-major order), so every elimination multiplier has ord >= 0 and the
    accumulated transforms are invertible over the valuation ring.  A
    matrix with no rows carries no width of its own; ncols supplies it.

    The elimination is fraction-free (Bareiss) and runs no gcd.  At stage s
    row i holds polynomials N_ij for the true entries N_ij / (delta_i *
    p_(s-1)): delta_i clears the row's entry denominators, each multiplied
    in unless exact division shows it redundant, and p_(s-1) is the previous
    pivot N_(s-1,s-1), 1 at stage 0.  A step sets row r to (p_s * N_r +
    N_rs * N_s) / p_(s-1), an exact division (the result is a minor of the
    row-cleared matrix; a remainder raises IntegrityError), and the diagonal
    entry is d_s = p_s / (delta_s * p_(s-1)).  L goes through the same steps
    as the identity columns of N = [A | I], its row r being N_r,n+c *
    delta_c / (delta_r * p) for the row's last p and original row c's
    delta_c.  R, which undoes the column operations that clear the pivot
    rows, is their back substitution, column c over p_(k-1) for
    k = min(c, rank).  An entry's ord is kept until a step changes its true
    value.  Entries are returned as unreduced pairs.
    """
    m = len(matrix)
    n = len(matrix[0]) if matrix else (ncols or 0)
    pone, pzero = Poly2.one(one.vars), Poly2.zero(one.vars)
    N, delta = [], []                      # N is [A | I] with A's rows cleared
    for i, row in enumerate(matrix):
        d = pone
        for x in row:
            if not x.is_zero():
                d = _multiple(d, x.raw_den)
        N.append([x.raw_num if x.is_zero() or x.raw_den == d
                  else x.raw_num * poly_div(d, x.raw_den) for x in row]
                 + [pone if k == i else pzero for k in range(m)])
        delta.append(d)
    delta_of_column = list(delta)          # L's column c belongs to original row c
    cols = list(range(n))                  # the original column at each position
    ords = [[None] * n for _ in range(m)]  # ord of the true entry; None until computed
    diagonal, den = [], []                 # den: each frozen row's delta_s * p_(s-1)
    prev = pone                            # p_(s-1)
    for s in range(min(m, n)):
        best = best_ord = None
        for i in range(s, m):
            Ni, oi, d = N[i], ords[i], delta[i] * prev
            for j in range(s, n):
                if not Ni[j].mons:
                    continue
                o = oi[j]
                if o is None:
                    o = oi[j] = weight.ord_rf(RationalFunction(Ni[j], d))
                if best_ord is None or o < best_ord:
                    best, best_ord = (i, j), o
        if best is None:
            break
        i, j = best
        delta[s], delta[i] = delta[i], delta[s]
        cols[s], cols[j] = cols[j], cols[s]
        for rows in (N, ords):
            rows[s], rows[i] = rows[i], rows[s]
            for row in rows:
                row[s], row[j] = row[j], row[s]
        Ns, p = N[s], N[s][s]
        den.append(delta[s] * prev)
        # the first pivot is an entry of the matrix as given, in its own terms
        diagonal.append(RationalFunction(p, den[s]) if s else matrix[i][j])
        for r in range(s + 1, m):
            Nr, orow, f = N[r], ords[r], N[r][s]
            for c in range(s + 1, n + m):
                x, y = Nr[c], Ns[c]
                if f.mons and y.mons:
                    Nr[c] = _exact(p * x + f * y, prev)
                    if c < n:
                        orow[c] = None
                elif x.mons:
                    Nr[c] = _exact(p * x, prev)   # the same true entry
        prev = p
    den += [delta[r] * prev for r in range(len(den), m)]
    left = [[RationalFunction(b * delta_of_column[c], den[r]) if b.mons else zero
             for c, b in enumerate(N[r][n:])] for r in range(m)]
    # by Cramer's rule column c of R is k x k minors of the row-cleared
    # matrix over p_(k-1), so every back-substitution step divides exactly
    rank, right = len(diagonal), [[zero] * n for _ in range(n)]
    for c in range(n):
        k = min(c, rank)
        top = N[k - 1][k - 1] if k else pone
        rho = {c: top, k - 1: N[k - 1][c]} if k else {c: top}
        for s in range(k - 2, -1, -1):
            acc = pzero
            for t, v in rho.items():
                if N[s][t].mons:
                    acc = acc + N[s][t] * v
            rho[s] = _exact(acc, N[s][s])
        for t, v in rho.items():
            if v.mons:
                right[cols[t]][c] = RationalFunction(v, top)
    return SmithForm(diagonal, rank, left, right)


@dataclass
class HomologySummary:
    """Homology of one degree after a base change, with class-reduction data.

    Over a valuation ring the cycles Z = ker(M_out) form a direct summand
    of the degree's module, and so contain the saturation of the boundaries.
    In the coordinates y = v * R_in of the incoming map's Smith form the
    boundaries are the y with y_i in (d_i) for i < rank_in and y_i = 0
    beyond: the first rank_in coordinates are the torsion coordinates, and
    the rest project v onto R^(n - rank_in), where the image of Z is a pure
    submodule of rank free_rank.  At free rank 1 that image is spanned by a
    vector with a unit coordinate, so a cycle's coordinate of least ord there
    is its free coefficient up to a unit.
    """

    degree: int
    free_rank: int
    torsion_ords: tuple      # descending Orders
    _weight: object
    _divisors: list          # nonzero diagonal of the incoming map's Smith form
    _right_in: list          # its R; None (the identity) when no map is stored
    _outgoing: object        # the outgoing map, None when none is stored
    _kernel: list            # rows spanning ker(outgoing) over the valuation ring;
                             # None (the unit vectors) when no map is stored
    _zero_elt: object

    def class_coords(self, vec):
        """(torsion coordinates, free coordinates) of the class of vec."""
        if self._outgoing is not None and not is_zero(
                mat_mul((tuple(vec),), self._outgoing, self._zero_elt)):
            raise NotACycle("vector is not a cycle after the base change")
        return self._split(vec)

    def _split(self, vec):
        y = tuple(vec) if self._right_in is None else mat_mul(
            (tuple(vec),), self._right_in, self._zero_elt)[0]
        rank_in = len(self._divisors)
        return y[:rank_in], y[rank_in:]

    def _least_ord(self, coords):
        """(entry, ord) of the nonzero entry of least ord, the first on ties."""
        best = best_ord = None
        for c in coords:
            if not c.is_zero():
                o = self._weight.ord_rf(c)
                if best_ord is None or o < best_ord:
                    best, best_ord = c, o
        return best, best_ord

    def free_coefficient(self, vec):
        """At free rank 1, vec's free coefficient up to a unit; None for torsion."""
        return self._least_ord(self.class_coords(vec)[1])[0]

    def free_generator_lift(self):
        """At free rank 1, a cycle whose class generates the free part.

        The kernel rows span Z, so one of them projects to a unit multiple of
        the generator of Z's image: the row whose projection has least ord.
        """
        rows = self._kernel
        if rows is None:
            one = type(self._zero_elt).one(self._zero_elt.vars)
            n = len(self._divisors) + self.free_rank
            rows = (tuple(one if i == j else self._zero_elt for j in range(n)) for i in range(n))
        best = best_ord = None
        for row in rows:
            _, o = self._least_ord(self._split(row)[1])
            if o is not None and (best_ord is None or o < best_ord):
                best, best_ord = row, o
        return best


def homology_over_valuation(complex: ChainComplex, sigma) -> dict:
    """Per-degree free rank, descending torsion ords, and reduction transforms.

    sigma.image gives each boundary entry's image from sigma's memo.  One
    Smith form per stored differential serves both degrees it joins: the
    torsion of H_d is read off the incoming map's nonunit diagonal, and the
    free rank is n - rank_in - rank_out.
    """
    from .basechange import SERIES_VARS

    weight = sigma.weight
    one = RationalFunction.one(SERIES_VARS)
    zero = RationalFunction.zero(SERIES_VARS)
    applied = {k: [[sigma.image(e) for e in row] for row in m]
               for k, m in complex.maps.items()}
    forms = {k: smith_diagonalize(applied[k], weight, one, zero, ncols=complex.rank(k))
             for k in sorted(applied)}

    def form(k):
        # an absent map is zero, and so is its own Smith form; its L and R
        # are identities, left as None rather than allocated
        return forms.get(k) or SmithForm([], 0, None, None)

    out = {}
    for d in complex.degrees():
        n = complex.rank(d)
        into, outof = form(d), form(d + 1)
        if into.rank + outof.rank > n:
            raise IntegrityError("rank bookkeeping mismatch between presentations")
        if d in forms and d + 1 in forms and not is_zero(
                mat_mul(applied[d], applied[d + 1], zero)):
            raise IntegrityError("boundary escapes the kernel; d^2 != 0 after sigma")
        ords = (weight.ord_rf(x) for x in into.diagonal)
        out[d] = HomologySummary(
            degree=d,
            free_rank=n - into.rank - outof.rank,
            torsion_ords=tuple(sorted((o for o in ords if not o.is_zero()), reverse=True)),
            _weight=weight,
            _divisors=into.diagonal,
            _right_in=into.right,
            _outgoing=applied.get(d + 1),
            _kernel=None if outof.left is None else outof.left[outof.rank:],
            _zero_elt=zero,
        )
        if out[d].free_rank + len(out[d].torsion_ords) > n:
            raise IntegrityError("free rank plus torsion exceeds the ambient rank")
    return out


def kunneth(h1: dict, h2: dict) -> dict:
    """Homology of C (x) D over a valuation ring from the homology of C and D.

    h1 and h2 map a degree to (free rank, torsion ords); so does the result,
    with descending ords, keyed by the degrees that carry homology.  A free
    complex over a valuation ring splits into free summands R and two-term
    pieces R --a--> R with homology R/(a) at the target degree, so the rules
    are R (x) R = R, R (x) R/(a) = R/(a), R/(a) (x) R/(b) = R/(min ord) and
    Tor(R/(a), R/(b)) = R/(min ord).  The differentials raise degree, so the
    Tor term of H_p (x) H_q sits in degree p + q - 1.
    """
    free = {}
    torsion = {}
    for p, (f1, t1) in h1.items():
        for q, (f2, t2) in h2.items():
            n = p + q
            free[n] = free.get(n, 0) + f1 * f2
            tors = torsion.setdefault(n, [])
            tors.extend(a for a in t1 for _ in range(f2))
            tors.extend(b for b in t2 for _ in range(f1))
            mins = [min(a, b) for a in t1 for b in t2]
            tors.extend(mins)
            if mins:
                torsion.setdefault(n - 1, []).extend(mins)
    out = {}
    for n in sorted(set(free) | set(torsion)):
        f, tors = free.get(n, 0), torsion.get(n, [])
        if f or tors:
            out[n] = (f, tuple(sorted(tors, reverse=True)))
    return out


# -- serialization -----------------------------------------------------------------------

def complex_to_json(complex: ChainComplex, cycle=None, name=None, signature=None) -> dict:
    data = {}
    if name is not None:
        data["name"] = name
    data["ring"] = complex.ring.value
    data["degrees"] = complex.degrees()
    data["ranks"] = {str(d): r for d, r in sorted(complex.ranks.items())}
    data["boundaries"] = {
        str(k): [[format_laurent_pretty(e) for e in row] for row in m]
        for k, m in sorted(complex.maps.items())
        if not is_zero(m)
    }
    if cycle is not None:
        data["cycle"] = {
            "degree": cycle.degree,
            "vector": [format_laurent_pretty(e) for e in cycle.vector],
            "genus": cycle.genus,
            "dplus": cycle.dplus,
            "direction": cycle.direction,
        }
    if signature is not None:
        data["signature"] = signature
    return data


def complex_from_json(data: dict):
    """Returns (name, ChainComplex, DistinguishedCycle-or-None, signature).

    Input of the wrong shape (a missing key, a list where an object belongs,
    a rank that is not a number) is a UsageError.
    """
    try:
        if not isinstance(data, dict):
            raise TypeError(f"expected an object, got {type(data).__name__}")
        ring = Ring(data["ring"])
        ranks = {int(d): int(r) for d, r in data["ranks"].items()}
        maps = {
            int(k): tuple(
                tuple(parse_laurent(e, ring) for e in row) for row in m
            )
            for k, m in data.get("boundaries", {}).items()
        }
        fields = None
        if "cycle" in data:
            c = data["cycle"]
            fields = (int(c["degree"]), tuple(parse_laurent(e, ring) for e in c["vector"]),
                      int(c["genus"]), int(c["dplus"]), c["direction"])
        signature = data.get("signature")
        if signature is not None and not isinstance(signature, int):
            raise TypeError(f"signature {signature!r} is not an integer")
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise UsageError(f"malformed complex JSON: {exc}") from exc
    complex = ChainComplex(ring, ranks, maps)
    cycle = None
    if fields is not None:
        cycle = DistinguishedCycle(*fields)
        validate_cycle(complex, cycle)
    return data.get("name"), complex, cycle, signature


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=False)
