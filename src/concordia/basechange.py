"""Base changes: substituting power-series values for the marking variables.

A base change sigma sends each of T0..T3 to a rational function in the
series/parameter variables (q1, q2, q3, x, y, u) and carries a monomial
weight on those variables.  The induced data downstream is entirely
captured by pi = ord sigma(P) and lambda = ord sigma(V), computed in the
weight's value group.

Builtins (parameter variables q1..q3 always have weight 0):

    A       T1,T2,T3 -> 1 + q_i x, T0 = T1-image;     ord x = 1/4
    B(r)    T0=T1 -> 1 + q1 u, T2=T3 -> 1 + q2 x;     ord u = r/4, ord x = 1/4
    C       T0=T1 -> 1 + y, T2=T3 -> 1 + x;           lex, ord x = (1/4, 0), ord y = (0, 1/4)
    Cprime  T0=T1 -> 1 + y, T2=T3 -> 1;               ord y = 1/4 (degenerate: sigma(P) = 0)
    D       T0=T1 -> 1, T2=T3 -> 1 + x;               ord x = 1/4

apply gives sigma(x) in lowest terms without a general gcd.  The image
factors (numerators and denominators of the images, other than 1) are known
in advance: the terms are summed over the least power of each that they
need, with powers built by squaring, and each factor of that denominator is
then stripped from the numerator, by exact division when it is known to be
irreducible.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DegenerateBaseChange,
    InvalidParameter,
    MissingParameter,
    RingMismatch,
    UnknownExample,
    UsageError,
)
from .field2 import Poly2, RationalFunction, _to_univar, gcd, poly_div
from .laurent import LaurentElement, LaurentFraction, P, Ring, V
from .valuation import MonomialWeight, Order

SERIES_VARS = ("q1", "q2", "q3", "x", "y", "u")

_ONE = Poly2.one(SERIES_VARS)
_ZERO = Poly2.zero(SERIES_VARS)


def series_poly(text: str) -> RationalFunction:
    """Parse a polynomial in the series/parameter variables."""
    return RationalFunction(Poly2.parse(SERIES_VARS, text))


def _series_one() -> RationalFunction:
    return RationalFunction(_ONE)


def _known_irreducible(f: Poly2) -> bool:
    """f = a*v + b for a variable v, with a and b free of v and gcd(a, b) = 1.

    Such an f has degree 1 in v and content 1 over the other variables, so by
    Gauss's lemma it is irreducible.  Every builtin image qualifies.
    """
    for v in range(len(f.vars)):
        coeffs = _to_univar(f, v)
        if max(coeffs) == 1 and gcd(coeffs[1], coeffs.get(0, _ZERO)).is_one():
            return True
    return False


@dataclass(eq=False)
class BaseChange:
    """Substitution data for the four marking variables plus a weight.

    image(x) is sigma(x) for a Laurent element, applied once and kept in a
    memo keyed by the element; sigma(P) and sigma(V) are read through it and
    (pi, lambda) is kept too.  The memo depends only on the images of
    T0..T3, so a B(r) derived from another B by b_family shares it: across
    a family that varies only r, sigma meets each element once.  A memo
    lives as long as the base changes holding it, one command.  The image
    factors and their irreducibility flags are computed once, when the
    base change is built, and a b_family member shares them too.
    """

    name: str
    images: tuple  # sigma(T0), sigma(T1), sigma(T2), sigma(T3)
    weight: MonomialWeight
    params: dict = field(default_factory=dict)
    degenerate: bool = False
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _pi_lambda: tuple = field(default=None, init=False, repr=False)
    _factors: tuple = field(default=(), init=False, repr=False)  # (f_j, irreducible)
    _slots: tuple = field(default=(), init=False, repr=False)    # T_i -> (num j, den j)

    def __post_init__(self):
        if len(self.images) != 4:
            raise InvalidParameter("a base change needs images for all of T0..T3")
        for img in self.images:
            if img.is_zero():
                raise InvalidParameter("base-change images must be nonzero")
        # the image factors f_j with their irreducibility flags; T_i's image
        # is f_(num j) / f_(den j), a None index standing for 1
        polys = []

        def index(p):
            if p.is_one():
                return None
            if p not in polys:
                polys.append(p)
            return polys.index(p)

        self._slots = tuple((index(img.num), index(img.den)) for img in self.images)
        self._factors = tuple((p, _known_irreducible(p)) for p in polys)
        if not self.degenerate and self.sigma_P().is_zero():
            # Auto-flag rather than reject: degenerate contexts stay usable
            # for element evaluation, only pi/lambda are refused.
            self.degenerate = True

    # -- flags ---------------------------------------------------------------

    def reduced_valid(self) -> bool:
        """Factors through S_BN exactly when T0 and T1 share an image."""
        return self.images[0] == self.images[1]

    def nonorientable_valid(self) -> bool:
        """sigma(T0) = 1, the condition for unoriented cobordism bounds."""
        return self.images[0] == _series_one()

    # -- evaluation ------------------------------------------------------------

    def apply(self, x) -> RationalFunction:
        """Evaluate a LaurentElement or LaurentFraction under sigma."""
        if isinstance(x, LaurentFraction):
            den = self.apply(x.den)
            if den.is_zero():
                raise DegenerateBaseChange("denominator maps to zero under sigma")
            return self.apply(x.num) / den
        if not isinstance(x, LaurentElement):
            raise TypeError(f"cannot apply base change to {type(x).__name__}")
        if x.ring is Ring.BN and not self.reduced_valid():
            raise RingMismatch(
                "base change does not factor through the reduced ring (sigma(T0) != sigma(T1))"
            )
        if not x.terms:
            return RationalFunction.zero(SERIES_VARS)
        # Each term's image is a product of powers of the image factors f_j.
        # Sum the terms over the least power of each f_j they need, then
        # strip each f_j of that denominator from the numerator in turn:
        # together the strips remove exactly gcd(numerator, denominator),
        # so the result is in lowest terms and no general gcd runs on the
        # assembled numerator.
        factors, slots = self._factors, self._slots
        nets = []
        for term in x.terms:
            net = [0] * len(factors)
            for (nj, dj), e in zip(slots, term):
                if nj is not None:
                    net[nj] += e
                if dj is not None:
                    net[dj] -= e
            nets.append(net)
        low = [min(0, *column) for column in zip(*nets)]
        powers = {}

        def product(exps):
            # Poly2 powers square, one shift of the terms per step, so a
            # power past MAX_DEGREE raises DegreeOverflow within log2(e) steps
            prod = _ONE
            for j, e in enumerate(exps):
                if e:
                    p = powers.get((j, e))
                    if p is None:
                        p = powers[j, e] = factors[j][0] ** e
                    prod = p if prod is _ONE else prod * p
            return prod

        acc = set()
        for net in nets:
            acc ^= product([e - lo for e, lo in zip(net, low)]).mons
        if not acc:
            return RationalFunction.zero(SERIES_VARS)
        num = Poly2._make(_ONE.vars, _ONE.pk, acc)
        den_exps = [-lo for lo in low]
        den_rest = []
        for j, (f, irreducible) in enumerate(factors):
            for _ in range(den_exps[j]):
                if irreducible:
                    q = poly_div(num, f)
                    if q is None:
                        break
                    num = q
                else:
                    h = gcd(num, f)
                    if h.is_one():
                        break
                    num = poly_div(num, h)
                    if h != f:
                        den_rest.append(poly_div(f, h))
                den_exps[j] -= 1
        den = product(den_exps)
        for f in den_rest:
            den = f if den is _ONE else den * f
        return RationalFunction._coprime(num, den)

    def image(self, x: LaurentElement) -> RationalFunction:
        """sigma(x), applied on the first request for x and kept in the memo."""
        value = self._memo.get(x)
        if value is None:
            value = self._memo[x] = self.apply(x)
        return value

    def ord_of(self, x) -> Order:
        return self.weight.ord_rf(self.apply(x))

    def sigma_P(self) -> RationalFunction:
        return self.image(P(Ring.FULL))

    def sigma_V(self) -> RationalFunction:
        return self.image(V())

    def pi_lambda(self):
        """(pi, lambda) = (ord sigma(P), ord sigma(V)); refuses degenerate data."""
        if self._pi_lambda is None:
            sp = self.sigma_P()
            sv = self.sigma_V()
            if self.degenerate or sp.is_zero() or sv.is_zero():
                raise DegenerateBaseChange(f"sigma(P) or sigma(V) vanishes for {self.name}")
            self._pi_lambda = self.weight.ord_rf(sp), self.weight.ord_rf(sv)
        return self._pi_lambda

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k} = {v}" for k, v in sorted(self.params.items()))
        return f"{self.name} ({inner})"


BUILTIN_NAMES = ("A", "B", "C", "Cprime", "D")


def builtin(name: str, r=None) -> BaseChange:
    """Construct one of the builtin base changes (B needs the rational r)."""
    quarter = Fraction(1, 4)
    if name == "A":
        t1, t2, t3 = (series_poly(f"1 + q{i}*x") for i in (1, 2, 3))
        return BaseChange("A", (t1, t1, t2, t3), MonomialWeight.rational({"x": quarter}))
    if name == "B":
        if r is None:
            raise MissingParameter("builtin B needs the rational parameter r")
        return b_family(r)
    if name == "C":
        t1 = series_poly("1 + y")
        t2 = series_poly("1 + x")
        weight = MonomialWeight.lex({"x": (quarter, 0), "y": (0, quarter)})
        return BaseChange("C", (t1, t1, t2, t2), weight)
    if name == "Cprime":
        t1 = series_poly("1 + y")
        one = _series_one()
        weight = MonomialWeight.rational({"y": quarter})
        return BaseChange("Cprime", (t1, t1, one, one), weight, degenerate=True)
    if name == "D":
        one = _series_one()
        t2 = series_poly("1 + x")
        return BaseChange("D", (one, one, t2, t2), MonomialWeight.rational({"x": quarter}))
    raise UnknownExample(f"no builtin base change named {name!r} (have {BUILTIN_NAMES})")


def b_family(r, family: BaseChange = None) -> BaseChange:
    """B(r); given family, another B(r'), the result shares its images and memo.

    Only the weight depends on r, so sigma applied under one member of the
    family is not applied again under another.
    """
    r = Fraction(r)
    if not 0 < r <= 1:
        raise InvalidParameter(f"B requires r in (0, 1], got {r}")
    quarter = Fraction(1, 4)
    weight = MonomialWeight.rational({"u": r * quarter, "x": quarter})
    if family is None:
        t1 = series_poly("1 + q1*u")
        t2 = series_poly("1 + q2*x")
        return BaseChange("B", (t1, t1, t2, t2), weight, params={"r": r})
    member = copy.copy(family)    # shares images and the memo; post-init checks already ran
    member.weight, member.params, member._pi_lambda = weight, {"r": r}, None
    return member


def custom(substs: dict, weights: dict, lex_pairs: bool = False) -> BaseChange:
    """Build a base change from CLI-style text tables.

    substs maps 'T0'..'T3' to polynomial expressions in the series
    variables (missing entries default to 1); weights maps series variables
    to rationals, or to (a, b) pairs when lex_pairs is set.
    """
    images = []
    for t in ("T0", "T1", "T2", "T3"):
        text = substs.get(t)
        images.append(series_poly(text) if text is not None else _series_one())
    for key in substs:
        if key not in ("T0", "T1", "T2", "T3"):
            raise UsageError(f"substitution target {key!r} is not one of T0..T3")
    weight = MonomialWeight.lex(weights) if lex_pairs else MonomialWeight.rational(weights)
    return BaseChange("custom", tuple(images), weight)
