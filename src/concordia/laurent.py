"""Char-2 Laurent rings in the four marking variables and the reduced quotient.

The full ring R is F2[T0^+-, T1^+-, T2^+-, T3^+-]; elements are term sets of
exponent 4-tuples (coefficients are all 1).  The reduced quotient S_BN is
R/(T0 - T1): we store BN elements on the same 4-tuple shape with the T0 slot
identically zero, and the quotient map folds the T0 exponent into T1 (with
char-2 cancellation).

Named constants:

    P = T1*T2*T3 + T1*T2^-1*T3^-1 + T2*T1^-1*T3^-1 + T3*T1^-1*T2^-1
    Q = sum_j (Tj^2 + Tj^-2)
    V = P + T0^2 + T0^-2          (full ring)
    L = P + T1^2 + T1^-2          (image of V in S_BN)
"""

from __future__ import annotations

import operator
from enum import Enum

from .errors import DivisionByZero, RingMismatch, UsageError
from .field2 import Poly2, gcd, parse_term_list, poly_div, term_product

VARS_FULL = ("T0", "T1", "T2", "T3")
VARS_BN = ("T1", "T2", "T3")


class Ring(Enum):
    FULL = "FULL"
    BN = "BN"

    def poly_vars(self):
        return VARS_FULL if self is Ring.FULL else VARS_BN


class LaurentElement:
    """Element of R or S_BN as a set of exponent 4-tuples."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        ts = frozenset(tuple(t) for t in terms)
        for t in ts:
            if len(t) != 4:
                raise ValueError(f"exponent tuple {t} is not length 4")
            if ring is Ring.BN and t[0] != 0:
                raise RingMismatch("BN element with nonzero T0 exponent")
        self.terms = ts

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def one(cls, ring):
        return cls(ring, ((0, 0, 0, 0),))

    @classmethod
    def monomial(cls, ring, e0=0, e1=0, e2=0, e3=0):
        return cls(ring, ((e0, e1, e2, e3),))

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0, 0, 0, 0)}

    def is_unit(self):
        """Units of a Laurent ring over F2 are exactly the monomials."""
        return len(self.terms) == 1

    def _check(self, other):
        if not isinstance(other, LaurentElement):
            raise TypeError(f"expected LaurentElement, got {type(other).__name__}")
        if self.ring is not other.ring:
            raise RingMismatch(f"mixing {self.ring.value} and {other.ring.value} elements")

    def __add__(self, other):
        self._check(other)
        return LaurentElement(self.ring, self.terms ^ other.terms)

    __sub__ = __add__

    def __mul__(self, other):
        self._check(other)
        return LaurentElement(self.ring, term_product(self.terms, other.terms))

    def __pow__(self, n):
        if n < 0:
            if not self.is_unit():
                raise DivisionByZero("negative power of a non-unit Laurent element")
            (t,) = self.terms
            return LaurentElement(self.ring, (tuple(n * e for e in t),))
        result = LaurentElement.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = LaurentElement(base.ring, (tuple(2 * e for e in t) for t in base.terms))
        return result

    def inverse(self):
        return self ** -1

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElement)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_laurent(self)

    __repr__ = __str__


# -- named constants -----------------------------------------------------------

def P(ring=Ring.FULL):
    return LaurentElement(ring, (
        (0, 1, 1, 1),
        (0, 1, -1, -1),
        (0, -1, 1, -1),
        (0, -1, -1, 1),
    ))


def Q(ring=Ring.FULL):
    full = LaurentElement(Ring.FULL, (
        (2, 0, 0, 0), (-2, 0, 0, 0),
        (0, 2, 0, 0), (0, -2, 0, 0),
        (0, 0, 2, 0), (0, 0, -2, 0),
        (0, 0, 0, 2), (0, 0, 0, -2),
    ))
    return full if ring is Ring.FULL else quotient_to_BN(full)


def V():
    return P(Ring.FULL) + LaurentElement(Ring.FULL, ((2, 0, 0, 0), (-2, 0, 0, 0)))


def L():
    return quotient_to_BN(V())


def quotient_to_BN(x: LaurentElement) -> LaurentElement:
    """Quotient map R -> S_BN = R/(T0 - T1); folds T0 exponents into T1."""
    if x.ring is Ring.BN:
        return x
    acc = set()
    for t in x.terms:
        m = (0, t[0] + t[1], t[2], t[3])
        if m in acc:
            acc.discard(m)
        else:
            acc.add(m)
    return LaurentElement(Ring.BN, acc)


# -- clearing denominators -------------------------------------------------------

def clear_denominators(x: LaurentElement):
    """Write x = p / m with p polynomial and m the minimal clearing monomial.

    Returns (p, m): p is a Poly2 over the ring's T-variables and m is a
    monomial LaurentElement, minimal in the sense that every variable's
    exponent in m is exactly the worst negative exponent appearing in x.
    """
    vars = x.ring.poly_vars()
    slots = (0, 1, 2, 3) if x.ring is Ring.FULL else (1, 2, 3)
    shift = [0, 0, 0, 0]
    for i in slots:
        worst = min((t[i] for t in x.terms), default=0)
        if worst < 0:
            shift[i] = -worst
    poly = Poly2(vars, (tuple(t[i] + shift[i] for i in slots) for t in x.terms))
    m = LaurentElement.monomial(x.ring, *shift)
    return poly, m


def from_poly(p: Poly2, ring: Ring) -> LaurentElement:
    """Embed a polynomial over the ring's T-variables back as a Laurent element."""
    if p.vars != ring.poly_vars():
        raise RingMismatch(f"polynomial vars {p.vars} do not match ring {ring.value}")
    if ring is Ring.FULL:
        return LaurentElement(ring, p.terms)
    return LaurentElement(ring, ((0,) + t for t in p.terms))


def exact_quotient(a: LaurentElement, b: LaurentElement):
    """a / b when b divides a in the Laurent ring, else None.

    Monomials are units, so b divides a iff b's polynomial part, divided by
    the largest monomial that divides it, divides a's polynomial part: one
    exact division and no gcd.  This is the one divisibility test of the
    package; integrality and principal membership both decide by it.
    """
    if b.is_unit():
        return a * b.inverse()
    pa, ma = clear_denominators(a)
    pb, mb = clear_denominators(b)
    low = tuple(min(col) for col in zip(*pb.terms))
    q = poly_div(pa, Poly2(pb.vars, (tuple(map(operator.sub, t, low)) for t in pb.terms)))
    if q is None:
        return None
    unit = ma * from_poly(Poly2(pb.vars, (low,)), a.ring)
    return from_poly(q, a.ring) * mb * unit.inverse()


class LaurentFraction:
    """Fraction-field element num/den of Laurent elements over one ring."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = LaurentElement.one(num.ring)
        num._check(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        if self.den == other.den:
            return LaurentFraction(self.num + other.num, self.den)
        return LaurentFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __sub__ = __add__

    def __mul__(self, other):
        return LaurentFraction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise DivisionByZero("division by zero")
        return LaurentFraction(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return LaurentFraction(self.den, self.num)

    def __eq__(self, other):
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        r = self.reduced()
        return hash((r.num, r.den))

    def reduced(self):
        """Remove the common polynomial factor and push units into the numerator."""
        if self.num.is_zero():
            return LaurentFraction(LaurentElement.zero(self.ring))
        pn, mn = clear_denominators(self.num)
        pd, md = clear_denominators(self.den)
        g = gcd(pn, pd)
        if not g.is_one():
            pn = poly_div(pn, g)
            pd = poly_div(pd, g)
        # canonical pair: the denominator keeps only its polynomial part and
        # every unit migrates into the numerator, so equal fractions reduce
        # to identical pairs
        num = from_poly(pn, self.ring) * md * mn.inverse()
        den = from_poly(pd, self.ring)
        if den.is_unit():
            return LaurentFraction(num * den.inverse())
        return LaurentFraction(num, den)

    def is_integral(self):
        return exact_quotient(self.num, self.den) is not None

    def as_laurent(self) -> LaurentElement:
        q = exact_quotient(self.num, self.den)
        if q is None:
            raise DivisionByZero(f"{self} is not integral")
        return q

    def __str__(self):
        if self.den.is_one():
            return format_laurent(self.num)
        return f"({format_laurent(self.num)})/({format_laurent(self.den)})"

    __repr__ = __str__


# -- parsing and printing ---------------------------------------------------------

def _macros(ring):
    if ring is Ring.FULL:
        return {"P": P(Ring.FULL), "Q": Q(Ring.FULL), "V": V()}
    # In the reduced quotient the macro V denotes its image L.
    return {"P": P(Ring.BN), "Q": Q(Ring.BN), "L": L(), "V": L()}


_VAR_SLOT = {"T0": 0, "T1": 1, "T2": 2, "T3": 3}


def parse_laurent_fraction(text, ring) -> LaurentFraction:
    """Parse sums of products of T-powers and macro powers (P, Q, V, L).

    Macro exponents may be negative, producing fraction-field elements, e.g.
    'P^2*L^-1'.  T-variables are units, so their exponents stay integral.
    """
    macros = _macros(ring)
    one = LaurentElement.one(ring)
    total = LaurentFraction(LaurentElement.zero(ring))
    for factors in parse_term_list(text):
        num, den = one, one
        zero_term = False
        for name, exp in factors:
            if name == "0":
                zero_term = True
            elif name == "1":
                continue
            elif name in _VAR_SLOT:
                slot = _VAR_SLOT[name]
                if ring is Ring.BN and slot == 0:
                    raise UsageError("T0 is not a variable of the reduced ring")
                args = [0, 0, 0, 0]
                args[slot] = exp
                num = num * LaurentElement.monomial(ring, *args)
            elif name in macros:
                if exp >= 0:
                    num = num * macros[name] ** exp
                else:
                    den = den * macros[name] ** (-exp)
            else:
                raise UsageError(f"unknown name {name!r} in Laurent expression")
        if not zero_term:
            total = total + LaurentFraction(num, den)
    return total


def parse_laurent(text, ring) -> LaurentElement:
    frac = parse_laurent_fraction(text, ring)
    q = exact_quotient(frac.num, frac.den)
    if q is None:
        raise UsageError(f"{text!r} is not integral over {ring.value}")
    return q


def format_laurent(x: LaurentElement) -> str:
    if x.is_zero():
        return "0"
    names = VARS_FULL
    parts = []
    for t in sorted(x.terms, reverse=True):
        factors = [
            names[i] if t[i] == 1 else f"{names[i]}^{t[i]}"
            for i in range(4)
            if t[i]
        ]
        parts.append("*".join(factors) if factors else "1")
    return " + ".join(parts)


def format_laurent_pretty(x: LaurentElement) -> str:
    """Prefer a macro name when the element is exactly a named constant."""
    table = {
        LaurentElement.zero(x.ring): "0",
        LaurentElement.one(x.ring): "1",
        P(x.ring): "P",
        Q(x.ring): "Q",
    }
    if x.ring is Ring.FULL:
        table[V()] = "V"
        table[V() ** 3] = "V^3"
    else:
        table[L()] = "L"
        table[L() + P(Ring.BN)] = "L + P"
        table[L() ** 3] = "L^3"
    return table.get(x, format_laurent(x))


def laurent_gcd(a: LaurentElement, b: LaurentElement) -> LaurentElement:
    """A gcd in the Laurent ring, normalised to have polynomial support."""
    pa, _ = clear_denominators(a)
    pb, _ = clear_denominators(b)
    return from_poly(gcd(pa, pb), a.ring)
