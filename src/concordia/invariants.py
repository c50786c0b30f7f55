"""The invariant pipeline: from a knot model and a base change to numbers.

A knot model is a chain complex with a distinguished vector and cobordism
bookkeeping (genus g, positive double points dplus).  The vector either
represents a cycle carried from the unknot to the knot, or a functional
carried the other way; the two directions use mirror formulas:

  unknot-to-K:  znat = sigma(P)^g * sigma(V)^dplus * <c^-1>, where c is the
                free-part coefficient of the cycle class in homology;
  K-to-unknot:  znat = sigma(P)^-g * sigma(V)^-dplus * <phi(free generator)>.

Over a valuation ring znat is principal and f_sigma is its ord.  Over S_BN
(no valuation) the same construction runs through an exact rank-1 module
realization when the presentation has a single relation; the result is a
generator-list fractional ideal compared by Groebner containment.

Every f_sigma, whether for a report, a sum, a profile or verify, takes one
route: _homology, then _znat.  A model is evaluated as a connected sum of
its factors, a plain model as a sum of one.  Each distinct factor's
homology is computed once and the results are folded by the Kunneth
formula, and the free coefficient of the sum's cycle class is the product
of the factors' coefficients, so a sum costs linear time in its number of
factors apart from the lists of torsion ords it reports.  The tensor
complex itself is built only when something reads it (the JSON form, a
one-relation BN presentation); the report takes its ranks and the zero
pattern of its differentials from the factors.  A profile evaluates r ->
f_r under one family of base changes B(r) (basechange.b_family), so sigma
is applied once per element whatever the number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .basechange import BaseChange, b_family, builtin
from .errors import (
    CycleInTorsion,
    DirectionMismatch,
    IntegrityError,
    MissingSignature,
    NonIntegral,
    NotNonorientableValid,
    RankNotOne,
    RingMismatch,
    UnsupportedPresentation,
    UsageError,
    ValueGroupMismatch,
)
from .homalg import (
    ChainComplex,
    DistinguishedCycle,
    UNKNOT_TO_K,
    complex_from_json,
    complex_to_json,
    homology_over_valuation,
    is_zero,
    kunneth,
    tensor,
    tensor_generators,
    validate_cycle,
)
from .ideals import (
    FractionalIdeal,
    ValuationIdeal,
    laurent_member,
    module_quotient_rank1,
    quotient_embedding_image,
)
from .laurent import (
    L,
    LaurentElement,
    LaurentFraction,
    P,
    Ring,
    V,
    exact_quotient,
    format_laurent_pretty,
    laurent_gcd,
)
from .valuation import Order


@dataclass(eq=False)
class KnotModel:
    """Chain complex + distinguished vector + cobordism metadata.

    factors lists the summands of a connected sum (a ConnectedSum), and is
    empty for any other model.  Models are equal when their name, complex,
    cycle, signature and expected ideal are, so a connected sum equals the
    plain model read back from its JSON form.
    """

    name: str
    complex: ChainComplex
    cycle: DistinguishedCycle
    signature: int = None
    expected_ideal: FractionalIdeal = None

    factors = ()

    def __post_init__(self):
        validate_cycle(self.complex, self.cycle)

    def __eq__(self, other):
        if not isinstance(other, KnotModel):
            return NotImplemented
        return ((self.name, self.complex, self.cycle, self.signature, self.expected_ideal)
                == (other.name, other.complex, other.cycle, other.signature,
                    other.expected_ideal))

    @property
    def ring(self):
        return self.complex.ring

    @property
    def ranks(self):
        """{degree: rank} of the complex."""
        return self.complex.ranks

    @property
    def nonzero_maps(self):
        """The degrees k whose incoming differential, from k - 1, is nonzero."""
        return {k for k, m in self.complex.maps.items() if not is_zero(m)}

    def to_json(self) -> dict:
        return complex_to_json(self.complex, self.cycle, self.name, self.signature)

    @classmethod
    def from_json(cls, data: dict) -> "KnotModel":
        name, complex, cycle, signature = complex_from_json(data)
        if cycle is None:
            raise UsageError("knot model JSON lacks a distinguished cycle")
        return cls(name or "user-model", complex, cycle, signature)


# -- elementary cobordism accounting ---------------------------------------------

def adjusted_genus(chi: int, c_plus: int, c_minus: int) -> Fraction:
    """(-chi + c_plus - c_minus) / 2 for a cobordism surface."""
    if c_plus < 0 or c_minus < 0:
        raise UsageError("double-point counts must be nonnegative")
    return Fraction(-chi + c_plus - c_minus, 2)


def eta(g_a, delta: int, nu: int) -> int:
    """g_a + delta/2 - nu/4; the combination must come out an integer."""
    val = Fraction(g_a) + Fraction(delta, 2) - Fraction(nu, 4)
    if val.denominator != 1:
        raise NonIntegral(f"eta = {val} is not an integer; inconsistent surface data")
    return int(val)


# -- valuation-level pipeline -----------------------------------------------------

def _check_sigma(model: KnotModel, sigma: BaseChange):
    if not sigma.reduced_valid():
        raise UsageError(
            f"base change {sigma.describe()} does not identify sigma(T0) and "
            "sigma(T1); it does not induce coefficients for these models"
        )


def _sigma_vector(sigma: BaseChange, vec):
    return [sigma.image(e) for e in vec]


class SumHomology:
    """Homology of a model at one degree, folded from its factors.

    torsion_ords descend; parts pairs each factor with its homology summaries
    over the same valuation ring, and the class of the sum's cycle is read
    from them.  A plain class: a dataclass would add a millisecond to every
    import of the package.
    """

    __slots__ = ("degree", "free_rank", "torsion_ords", "parts")

    def __init__(self, degree, free_rank, torsion_ords, parts):
        self.degree = degree
        self.free_rank = free_rank
        self.torsion_ords = torsion_ords
        self.parts = parts


def _homology(model: KnotModel, sigma: BaseChange) -> dict:
    """Per-degree homology of the model over sigma's valuation ring.

    The model is evaluated factor by factor, a plain model as its own one
    factor, each distinct factor (by identity) once however often it
    repeats, and folded by Kunneth; the folded ranks are audited against the
    model's ranks, degree by degree and by Euler characteristic, without
    building a tensor complex.
    """
    factors = model.factors or (model,)
    distinct = {}
    for f in factors:
        if id(f) not in distinct:
            distinct[id(f)] = homology_over_valuation(f.complex, sigma)
    parts = tuple((f, distinct[id(f)]) for f in factors)
    folded = {0: (1, ())}
    for _, summaries in parts:
        folded = kunneth(folded, {d: (s.free_rank, s.torsion_ords)
                                  for d, s in summaries.items()})
    ranks = model.ranks
    out = {}
    for d in sorted(set(ranks) | set(folded)):
        free, torsion = folded.get(d, (0, ()))
        if free + len(torsion) > ranks.get(d, 0):
            raise IntegrityError("free rank plus torsion exceeds the ambient rank")
        out[d] = SumHomology(d, free, torsion, parts)
    if (sum((-1) ** d * s.free_rank for d, s in out.items())
            != sum((-1) ** d * r for d, r in ranks.items())):
        raise IntegrityError("Euler characteristic of the folded homology "
                             "differs from the complex's")
    return out


def znat_valuation(model: KnotModel, sigma: BaseChange) -> ValuationIdeal:
    """The principal ideal znat over the valuation ring of sigma."""
    _check_sigma(model, sigma)
    return _znat(model, sigma, _homology(model, sigma))


def _free_coefficients(sigma: BaseChange, summary: SumHomology):
    """Free coefficients of the cycle's class; their product is its coefficient.

    For a connected sum, [v1 (x) v2] maps to [v1] (x) [v2] in the free
    quotient of the homology, so each factor contributes the coefficient of
    its own cycle, computed once per distinct factor, and sigma is never
    applied to the tensor cycle.
    """
    distinct = {}
    for f, part in summary.parts:
        if id(f) not in distinct:
            distinct[id(f)] = part[f.cycle.degree].free_coefficient(
                _sigma_vector(sigma, f.cycle.vector))
    coeffs = [distinct[id(f)] for f, _ in summary.parts]
    if any(c is None for c in coeffs):
        raise CycleInTorsion("distinguished class has no free part")
    return coeffs


def _znat(model: KnotModel, sigma: BaseChange, summaries: dict) -> ValuationIdeal:
    """znat from _homology's summaries over sigma's valuation ring.

    The one path behind znat_valuation, f_sigma, f_plus, the profiles and
    the report; each caller computes the summaries once and passes them in.
    """
    pi, lam = sigma.pi_lambda()
    g, dplus = model.cycle.genus, model.cycle.dplus
    summary = summaries[model.cycle.degree]
    if summary.free_rank != 1:
        raise RankNotOne(
            f"homology at degree {model.cycle.degree} has free rank "
            f"{summary.free_rank}, need 1"
        )
    shift = sigma.sigma_P() ** g * sigma.sigma_V() ** dplus
    shift_ord = pi.scale(g) + lam.scale(dplus)
    if model.cycle.direction == UNKNOT_TO_K:
        order = shift_ord
        c = None
        for ci in _free_coefficients(sigma, summary):
            order = order - sigma.weight.ord_rf(ci)
            c = ci if c is None else c * ci
        return ValuationIdeal(shift / c, order)
    # a K-to-unknot model is never a connected sum: its one part is itself
    [(_, part)] = summary.parts
    lift = part[model.cycle.degree].free_generator_lift()
    val = None
    for a, b in zip(_sigma_vector(sigma, model.cycle.vector), lift):
        term = a * b
        val = term if val is None else val + term
    if val is None or val.is_zero():
        raise CycleInTorsion("functional vanishes on the free generator")
    return ValuationIdeal(val / shift, sigma.weight.ord_rf(val) - shift_ord)


def f_sigma(model: KnotModel, sigma: BaseChange) -> Order:
    return znat_valuation(model, sigma).order


def f_plus(model: KnotModel) -> Fraction:
    """Second lex coordinate of f under the two-variable lex base change."""
    o = f_sigma(model, builtin("C"))
    if o.vec[0] != 0:
        raise IntegrityError(
            f"first lex component of f is {o.vec[0]}, expected 0; "
            "refusing to truncate"
        )
    return o.vec[1]


# -- BN-level pipeline --------------------------------------------------------------

def _single_relation(model: KnotModel):
    """The in-map row at the cycle degree, for 1-relation presentations."""
    d = model.cycle.degree
    if d + 1 in model.nonzero_maps:
        raise UnsupportedPresentation(
            "cycle degree has an outgoing differential; not a cokernel presentation"
        )
    n_in = model.ranks.get(d - 1, 0)
    if n_in == 0:
        return None
    if n_in > 1:
        raise UnsupportedPresentation(
            f"{n_in} relations at the cycle degree; use a valuation context"
        )
    return model.complex.map_into(d)[0]


def znat_bn(model: KnotModel) -> FractionalIdeal:
    """znat as a generator-list fractional ideal (no valuation involved)."""
    ring = model.ring
    g, dplus = model.cycle.genus, model.cycle.dplus
    v_elt = V() if ring is Ring.FULL else L()
    shift = LaurentFraction(P(ring) ** g * v_elt ** dplus)
    if model.cycle.direction == UNKNOT_TO_K:
        relation = _single_relation(model)
        if relation is None:
            if model.ranks.get(model.cycle.degree, 0) != 1:
                raise UnsupportedPresentation(
                    "free presentation of rank > 1 has no canonical rank-1 image"
                )
            ideal = FractionalIdeal.unit(ring)
            z = LaurentFraction(model.cycle.vector[0])
        else:
            ideal = module_quotient_rank1(relation, ring)
            z = quotient_embedding_image(relation, model.cycle.vector, ring)
        if z.is_zero():
            raise CycleInTorsion("distinguished class maps to zero in the ideal")
        gens = [(shift * g_ / z).reduced() for g_ in ideal.gens]
        return FractionalIdeal.from_gens(ring, gens)
    # K-to-unknot: phi applied to the kernel generator of the out-column
    d = model.cycle.degree
    c = model.complex
    if not is_zero(c.maps.get(d, ())):
        raise UnsupportedPresentation(
            "functional models with incoming differentials need a valuation context"
        )
    if c.rank(d) == 2 and c.rank(d + 1) == 1:
        out = c.map_into(d + 1)
        a, b = out[0][0], out[1][0]
        h = laurent_gcd(a, b)
        gen = (
            LaurentFraction(b, h).as_laurent(),
            LaurentFraction(a, h).as_laurent(),
        )
    elif c.rank(d) == 1 and is_zero(c.maps.get(d + 1, ())):
        gen = (LaurentElement.one(ring),)
    else:
        raise UnsupportedPresentation(
            "kernel generator is only extracted from a single out-column"
        )
    val = LaurentFraction(LaurentElement.zero(ring))
    for a, b in zip(model.cycle.vector, gen):
        val = val + LaurentFraction(a * b)
    if val.is_zero():
        raise CycleInTorsion("functional vanishes on the kernel generator")
    return FractionalIdeal.from_gens(ring, [(val / shift).reduced()])


def describe_bn_ideal(ideal: FractionalIdeal) -> str:
    parts = []
    for g in ideal.gens:
        r = g.reduced()
        if r.is_integral():
            parts.append(format_laurent_pretty(r.as_laurent()))
        else:
            parts.append(str(r))
    return "<" + ", ".join(parts) + ">"


# -- profiles ----------------------------------------------------------------------

@dataclass
class ProfileSegment:
    lo: Fraction
    hi: Fraction
    intercept: Fraction
    slope: Fraction

    def value_at(self, r: Fraction) -> Fraction:
        return self.intercept + self.slope * r

    def formula(self) -> str:
        if self.slope == 0:
            return str(self.intercept)
        s = "r" if self.slope == 1 else f"{self.slope}*r"
        if self.intercept == 0:
            return s
        return f"{self.intercept} + {s}"


@dataclass
class ProfileReport:
    samples: list           # (r, f_r) pairs, exact Fractions
    segments: list          # ProfileSegment, ordered
    breakpoints: list       # confirmed interior breakpoints
    unresolved: list        # (lo, hi) intervals the fit could not settle

    def csv(self) -> str:
        lines = ["r,f_r"]
        for r, f in self.samples:
            lines.append(f"{r},{f}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        lines = []
        for seg in self.segments:
            lines.append(f"f_r = {seg.formula()} on [{seg.lo}, {seg.hi}]")
        for b in self.breakpoints:
            lines.append(f"breakpoint at r = {b}")
        for lo, hi in self.unresolved:
            lines.append(f"unresolved between r = {lo} and r = {hi}")
        return "\n".join(lines)


def f_profile(model: KnotModel, samples, depth: int = 6) -> ProfileReport:
    """Evaluate r -> f_r on the samples and fit exact affine segments.

    Every B(r) comes from one family, so sigma meets each element once, and
    each r is evaluated once.
    """
    rs = [Fraction(r) for r in samples]
    if sorted(set(rs)) != rs or not rs:
        raise UsageError("samples must be distinct and sorted ascending")
    if rs[0] <= 0 or rs[-1] > 1:
        raise UsageError("samples must lie in (0, 1]")

    family = b_family(rs[0])
    values = {}

    def evaluate(r: Fraction) -> Fraction:
        if r not in values:
            values[r] = f_sigma(model, b_family(r, family)).as_fraction()
        return values[r]

    pts = [(r, evaluate(r)) for r in rs]
    if len(pts) == 1:
        return ProfileReport(pts, [], [], [])

    # maximal collinear runs, each starting at the previous run's last sample
    runs = []
    i = 0
    while i < len(pts) - 1:
        (r0, f0), (r1, f1) = pts[i], pts[i + 1]
        slope = (f1 - f0) / (r1 - r0)
        intercept = f0 - slope * r0
        j = i + 1
        while j + 1 < len(pts) and pts[j + 1][1] == intercept + slope * pts[j + 1][0]:
            j += 1
        runs.append([i, j, intercept, slope])
        i = j
    merged = [runs[0]]
    for run in runs[1:]:
        if (run[2], run[3]) == (merged[-1][2], merged[-1][3]):
            merged[-1][1] = run[1]
        else:
            merged.append(run)

    # A two-point run carries no corroboration (any two points are collinear);
    # check one midpoint before trusting it, and drop it otherwise.
    segments = []
    unresolved = []
    for i0, j0, a, b in merged:
        seg = ProfileSegment(pts[i0][0], pts[j0][0], a, b)
        if j0 - i0 >= 2:
            segments.append(seg)
            continue
        mid = (seg.lo + seg.hi) / 2
        if evaluate(mid) == seg.value_at(mid):
            segments.append(seg)

    breakpoints = []
    for s1, s2 in zip(segments, segments[1:]):
        if s1.slope == s2.slope:
            unresolved.append((s1.hi, s2.lo))
            continue
        r_star = (s2.intercept - s1.intercept) / (s1.slope - s2.slope)
        if s1.hi <= r_star <= s2.lo and evaluate(r_star) == s1.value_at(r_star):
            breakpoints.append(r_star)
            s1.hi = r_star
            s2.lo = r_star
            continue
        # bisect toward the point where f leaves the left line
        lo, hi = s1.hi, s2.lo
        for _ in range(depth):
            mid = (lo + hi) / 2
            fm = evaluate(mid)
            if fm == s1.value_at(mid):
                lo = mid
            elif fm == s2.value_at(mid):
                hi = mid
            else:
                break
        s1.hi = lo
        s2.lo = hi
        unresolved.append((lo, hi))
    if segments:
        if segments[0].lo > rs[0]:
            unresolved.insert(0, (rs[0], segments[0].lo))
        if segments[-1].hi < rs[-1]:
            unresolved.append((segments[-1].hi, rs[-1]))
    else:
        unresolved.append((rs[0], rs[-1]))
    return ProfileReport(pts, segments, breakpoints, unresolved)


# -- bounds ------------------------------------------------------------------------

# Each bound takes f, the value f_sigma already computed.  Under a lex value
# group f / pi has no value: Order.as_fraction raises ValueGroupMismatch.

def slice_genus_bound(f: Order, sigma: BaseChange) -> Fraction:
    pi, _ = sigma.pi_lambda()
    return f.as_fraction() / pi.as_fraction()


def eta_bound(f: Order, sigma: BaseChange) -> Fraction:
    if not sigma.nonorientable_valid():
        raise NotNonorientableValid(
            f"{sigma.describe()} does not send T0 to 1; nonorientable bounds unavailable"
        )
    return slice_genus_bound(f, sigma)


def gordon_litherland_bound(f: Order, sigma: BaseChange, signature) -> Fraction:
    base = eta_bound(f, sigma)
    if signature is None:
        raise MissingSignature("the Gordon-Litherland row needs a declared signature")
    return base + Fraction(signature, 2)


# -- unknotting --------------------------------------------------------------------

@dataclass
class UnknottingReport:
    tau: Order
    bound: object            # Fraction, or int for lex value groups
    annihilation: list       # (degree, n, verdict string)
    move_label: str = "L,P"

    def render(self) -> str:
        lines = [f"tau (max torsion ord) = {self.tau}",
                 f"unknotting bound (reduced-model) = {self.bound}"]
        for degree, n, verdict in self.annihilation:
            lines.append(
                f"annihilation <{self.move_label}>^{n} at degree {degree}: {verdict}"
            )
        return "\n".join(lines)


def _move_ideal_gens(ring: Ring):
    if ring is Ring.FULL:
        return [P(Ring.FULL), V()], "V,P"
    return [P(Ring.BN), L()], "L,P"


def unknotting_bound(model: KnotModel, sigma: BaseChange) -> UnknottingReport:
    """tau / lambda, plus the move-ideal annihilation check per cyclic degree."""
    _check_sigma(model, sigma)
    _, lam = sigma.pi_lambda()
    summaries = _homology(model, sigma)
    tau = None
    for s in summaries.values():
        for o in s.torsion_ords:
            if tau is None or o > tau:
                tau = o
    move, move_label = _move_ideal_gens(model.ring)
    if tau is None:
        zero = lam - lam
        return UnknottingReport(zero, Fraction(0), [], move_label)
    if len(tau.vec) == 1:
        bound = tau.as_fraction() / lam.as_fraction()
        n = -(-bound.numerator // bound.denominator)  # ceil for the move test
    else:
        n = bound = lex_ceiling(tau, lam)
    annihilation = []
    ranks = model.ranks
    for d in sorted(summaries):
        if not summaries[d].torsion_ords:
            continue
        if ranks.get(d, 0) != 1 or ranks.get(d - 1, 0) == 0:
            annihilation.append((d, n, "skipped (cokernel not presented cyclically)"))
            continue
        column = [row[0] for row in model.complex.map_into(d)]
        ok = all(
            laurent_member(_power_product(move, picks, model.ring), column, model.ring)
            for picks in _compositions(n, len(move))
        )
        annihilation.append((d, n, "pass" if ok else "FAIL"))
    return UnknottingReport(tau, bound, annihilation, move_label)


def lex_ceiling(tau: Order, lam: Order) -> int:
    """The least n >= 0 with n*lam >= tau in the lex order of the value group."""
    if tau <= tau - tau:
        return 0
    # n*lam vanishes before lam's first nonzero entry i, so tau must too, and
    # tau > 0 then needs lam[i] > 0; the ceiling of tau[i]/lam[i] meets tau
    # at entry i, and one more multiple exceeds it there if the tail falls short.
    i = next((k for k, a in enumerate(lam.vec) if a), None)
    if i is None or lam.vec[i] < 0 or any(tau.vec[:i]):
        raise IntegrityError("no integer multiple of lambda dominates tau")
    n = math.ceil(tau.vec[i] / lam.vec[i])
    return n if lam.scale(n) >= tau else n + 1


def _compositions(n, k):
    """All k-tuples of nonnegative integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _power_product(gens, powers, ring):
    out = LaurentElement.one(ring)
    for g, e in zip(gens, powers):
        out = out * g ** e
    return out


# -- connected sums -----------------------------------------------------------------

class ConnectedSum(KnotModel):
    """k1 # k2: the factors, with the tensor complex and cycle built on demand.

    A report reads only what the factors give: the ranks of the tensor
    complex are the convolution of theirs, its differential into degree
    p + q + 1 is nonzero exactly where one factor's differential out of p
    (or q) meets a nonzero rank of the other at q (or p), and the cycle's
    degree, genus and dplus are sums.  The tensor complex and cycle are
    built on the first read of .complex, .cycle.vector or to_json, and need
    no check of their own: d^2 = 0 and the cycle condition hold on a tensor
    of checked factors by the Leibniz rule in characteristic 2.
    """

    def __init__(self, k1: KnotModel, k2: KnotModel):
        self.name = f"{k1.name} # {k2.name}"
        self.signature = None
        if k1.signature is not None and k2.signature is not None:
            self.signature = k1.signature + k2.signature
        self.expected_ideal = None
        self.factors = (k1.factors or (k1,)) + (k2.factors or (k2,))
        self.cycle = _SumCycle(self, k1.cycle, k2.cycle)
        self._operands = (k1, k2)
        self._tensor = None
        r1, r2 = k1.ranks, k2.ranks
        n1, n2 = k1.nonzero_maps, k2.nonzero_maps
        self._ranks = {}
        self._nonzero_maps = set()
        for p, a in r1.items():
            for q, b in r2.items():
                self._ranks[p + q] = self._ranks.get(p + q, 0) + a * b
                if (p + 1 in n1 and b) or (a and q + 1 in n2):
                    self._nonzero_maps.add(p + q + 1)

    def __repr__(self):
        return f"ConnectedSum({self.name!r})"

    @property
    def ring(self):
        return self.factors[0].ring

    @property
    def ranks(self):
        return self._ranks

    @property
    def nonzero_maps(self):
        return self._nonzero_maps

    @property
    def complex(self):
        return self._built()[0]

    def _built(self):
        """(tensor complex, tensor cycle), built on the first call."""
        if self._tensor is None:
            k1, k2 = self._operands
            c1, c2 = k1.complex, k2.complex
            v1, v2 = k1.cycle.vector, k2.cycle.vector
            d1, degree = k1.cycle.degree, self.cycle.degree
            zero = LaurentElement.zero(self.ring)
            vec = tuple(v1[i] * v2[j] if p == d1 else zero
                        for p, i, j in tensor_generators(c1, c2, degree))
            self._tensor = (tensor(c1, c2), DistinguishedCycle(
                degree, vec, self.cycle.genus, self.cycle.dplus, UNKNOT_TO_K))
        return self._tensor


class _SumCycle:
    """A connected sum's cycle: degree, genus and dplus now, the vector on first read."""

    direction = UNKNOT_TO_K

    def __init__(self, total: ConnectedSum, c1: DistinguishedCycle, c2: DistinguishedCycle):
        self._total = total
        self.degree = c1.degree + c2.degree
        self.genus = c1.genus + c2.genus
        self.dplus = c1.dplus + c2.dplus

    @property
    def vector(self):
        return self._total._built()[1].vector

    def __eq__(self, other):
        return self._total._built()[1] == other


def connected_sum(k1: KnotModel, k2: KnotModel) -> KnotModel:
    """The connected sum k1 # k2 of two unknot-to-K models, as a ConnectedSum.

    It keeps the factors and builds no tensor complex: over a valuation ring
    the sum is evaluated factor by factor by the Kunneth formula, and the
    tensor complex and cycle are built only when read.
    """
    if k1.ring is not k2.ring:
        raise RingMismatch("connected sum across rings")
    if k1.cycle.direction != UNKNOT_TO_K or k2.cycle.direction != UNKNOT_TO_K:
        raise DirectionMismatch(
            "connected sum needs both models in the unknot-to-K direction"
        )
    return ConnectedSum(k1, k2)


def as_forward(model: KnotModel) -> KnotModel:
    """Convert a K-to-unknot model to an equivalent unknot-to-K model.

    The functional data determines a cycle with the same f_sigma at every
    base change: scale the kernel generator tau by P^{2g} V^{2dplus} / phi(tau).
    Only single-out-column presentations are convertible.
    """
    if model.cycle.direction == UNKNOT_TO_K:
        return model
    ring = model.ring
    d = model.cycle.degree
    c = model.complex
    if c.rank(d) != 2 or c.rank(d + 1) != 1 or not is_zero(c.maps.get(d, ())):
        raise DirectionMismatch(
            "cannot convert this functional model to the unknot-to-K direction"
        )
    out = c.map_into(d + 1)
    a, b = out[0][0], out[1][0]
    h = laurent_gcd(a, b)
    tau = (LaurentFraction(b, h).as_laurent(), LaurentFraction(a, h).as_laurent())
    phi_val = model.cycle.vector[0] * tau[0] + model.cycle.vector[1] * tau[1]
    if phi_val.is_zero():
        raise DirectionMismatch("functional vanishes on the kernel generator")
    g, dplus = model.cycle.genus, model.cycle.dplus
    v_elt = V() if ring is Ring.FULL else L()
    scale = P(ring) ** (2 * g) * v_elt ** (2 * dplus)
    entries = []
    for t in tau:
        e = exact_quotient(scale * t, phi_val)
        if e is None:
            raise DirectionMismatch(
                "conversion scale is not integral for this model"
            )
        entries.append(e)
    cycle = DistinguishedCycle(d, tuple(entries), g, dplus, UNKNOT_TO_K)
    return KnotModel(model.name, c, cycle, model.signature)


# -- reports -----------------------------------------------------------------------

# The report line for a bound that raised, by the error it raised.
_NOT_AVAILABLE = {
    NotNonorientableValid: "n/a (base change is not nonorientable-valid)",
    ValueGroupMismatch: "n/a under a lex value group",
    MissingSignature: "n/a (no declared signature)",
}


def invariant_report(model: KnotModel, sigma: BaseChange) -> str:
    """Deterministic plain-text report of the full pipeline for one model."""
    lines = [
        f"knot: {model.name}",
        f"ring: {model.ring.value}",
        f"direction: {model.cycle.direction}",
        f"genus g = {model.cycle.genus}, dplus = {model.cycle.dplus}",
        f"base change: {sigma.describe()}",
    ]
    pi, lam = sigma.pi_lambda()
    lines.append(f"(pi, lambda) = ({pi}, {lam})")
    summaries = _homology(model, sigma)
    lines.append("homology over the valuation ring:")
    for d in sorted(summaries):
        s = summaries[d]
        tors = ", ".join(str(o) for o in s.torsion_ords) if s.torsion_ords else "-"
        lines.append(f"  degree {d}: free rank {s.free_rank}, torsion ords: {tors}")
    _check_sigma(model, sigma)
    z = _znat(model, sigma, summaries)
    lines.append(f"znat (valuation): ord {z.order}")
    lines.append(f"f_sigma = {z.order}")
    if sigma.name == "B":
        lines.append(f"f_r = {z.order}")
    try:
        bn = znat_bn(model)
        lines.append(f"znat (BN level): {describe_bn_ideal(bn)}")
    except UnsupportedPresentation as exc:
        lines.append(f"znat (BN level): unavailable ({exc})")
    # f_plus is also the clasp bound: compute it once, for both lines.
    try:
        fp = f_plus(model)
        lines.append(f"f_plus = {fp}")
    except (RankNotOne, CycleInTorsion, IntegrityError) as exc:
        fp = None
        lines.append(f"f_plus: unavailable ({exc})")
    lines.append("bounds:")
    f = z.order
    try:
        lines.append(f"  slice genus >= {slice_genus_bound(f, sigma)}")
        lines.append(f"  surface constraint: g*{pi} + dplus*{lam} >= {f}")
    except ValueGroupMismatch:
        lines.append(f"  slice genus: {_NOT_AVAILABLE[ValueGroupMismatch]}")
    if fp is None:
        lines.append("  clasp number: n/a for this model")
    else:
        lines.append(f"  clasp number c_plus >= {fp}")
    for label, bound in (
        ("eta", lambda: eta_bound(f, sigma)),
        ("b1 (Gordon-Litherland)",
         lambda: gordon_litherland_bound(f, sigma, model.signature)),
    ):
        try:
            lines.append(f"  {label} >= {bound()}")
        except tuple(_NOT_AVAILABLE) as exc:
            lines.append(f"  {label}: {_NOT_AVAILABLE[type(exc)]}")
    return "\n".join(lines) + "\n"
