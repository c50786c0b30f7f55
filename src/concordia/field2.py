"""Sparse multivariate polynomial arithmetic over the two-element field.

A polynomial over F2 is a finite set of monomials: since every coefficient
is 1, we store only the support.  Inside the package a monomial is one
Python int (`Packing`): the high fields hold the total degree and the
prefix sums of the exponents, so int order is grevlex order, and the low
fields hold the exponents under guard bits, so a product is an int sum and
divisibility is one masked subtraction.  Every Poly2 packs its monomials in
fields of FIELD_BITS bits, so it holds total degrees up to MAX_DEGREE; a
product or square past that raises DegreeOverflow.  Exponent tuples, aligned
with the variable names each polynomial carries, are the API edge: the
validating constructor takes them and `Poly2.terms` gives them back.
Addition is symmetric difference of supports; the Frobenius identity
(a+b)^2 = a^2 + b^2 holds on the nose and squaring doubles every field.

A rational function is a fraction of such polynomials, reduced only when its
numerator or denominator is read: sums, products, zero tests and ords never
need lowest terms.  Because the only unit of F2[x1..xn] is 1, the reduced
pair is canonical; printing and hashing read it, equality cross-multiplies.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import reduce

from .errors import DegreeOverflow, DivisionByZero, RingMismatch, UsageError

Term = tuple  # exponent tuple, aligned with Poly2.vars


def grevlex_key(exps):
    """Sort key realising graded reverse lexicographic order (bigger = later)."""
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def divides(a, b):
    """Monomial divisibility: does exponent tuple a divide b."""
    return all(x <= y for x, y in zip(a, b))


def term_product(xs, ys):
    """Support of the product of two F2 term sets: every sum of an exponent
    tuple from xs and one from ys, with sums that occur twice cancelling."""
    acc = set()
    for a in xs:
        for b in ys:
            t = tuple(map(operator.add, a, b))
            if t in acc:
                acc.discard(t)
            else:
                acc.add(t)
    return acc


# -- packed monomials ------------------------------------------------------------

class Packing:
    """Monomials in n variables packed into ints, for total degrees up to
    `capacity`.

    Every field is w + 1 bits wide, where 2^w exceeds the degree bound given.
    The low n fields hold the exponents e_1, ..., e_n (e_1 lowest), each
    under a guard bit that stays 0.  The high n fields hold s_1, ..., s_n,
    where s_k = e_1 + ... + e_k, so the top field is the total degree.  An
    int comparison reads (deg, s_{n-1}, ..., s_1) first, which is graded
    reverse lexicographic order, so a polynomial's leading term is its
    largest int.  The product of two monomials is the sum of their ints, and
    a divides b iff ((b | G) - a) & G == G for the mask G of the guard bits:
    a field of a bigger than b's borrows from its guard bit.  No field may
    exceed the capacity, or it would carry into its neighbour; every field
    is at most the total degree, so bounding the degree bounds them all.
    """

    def __init__(self, n, degree):
        w = max(degree, 1).bit_length()
        self.n = n
        self.w = w
        self.capacity = (1 << w) - 1
        self.shifts = tuple(k * (w + 1) for k in range(n))
        self.ones = sum(1 << s for s in self.shifts)
        self.guard = self.ones << w
        self.half = n * (w + 1)
        self.low = (1 << self.half) - 1
        self.top = self.half + self.shifts[-1]
        # units[i] is the packed monomial of variable i alone
        self.units = tuple(self._with_sums(1 << s) for s in self.shifts)

    def _with_sums(self, low):
        # times ones, field k collects e_1 + ... + e_k; no sum exceeds the
        # degree, so nothing carries
        return (low * self.ones & self.low) << self.half | low

    def pack(self, t) -> int:
        if sum(t) > self.capacity:
            raise DegreeOverflow(
                f"monomial {t} has degree {sum(t)}, past the packed limit {self.capacity}")
        low = 0
        for e, s in zip(t, self.shifts):
            low |= e << s
        return self._with_sums(low)

    def unpack(self, m) -> tuple:
        return tuple((m >> s) & self.capacity for s in self.shifts)

    def degree(self, m) -> int:
        return m >> self.top

    def _a_at_least_b(self, a, b) -> int:
        """All ones on the exponent fields where a's is at least b's."""
        # such a field keeps its guard bit; spread each kept guard bit over
        # its field
        return ((((a | self.guard) - b) & self.guard) >> self.w) * self.capacity

    def lcm(self, a, b) -> int:
        a &= self.low
        b &= self.low
        mask = self._a_at_least_b(a, b)
        return self._with_sums((a & mask) | (b & ~mask))

    def gcd(self, a, b) -> int:
        a &= self.low
        b &= self.low
        mask = self._a_at_least_b(a, b)
        return self._with_sums((b & mask) | (a & ~mask))

    def poly(self, p) -> list:
        """The packed terms of p, leading term first."""
        if p.pk.w == self.w:
            return sorted(p.mons, reverse=True)
        return sorted(map(self.pack, p.terms), reverse=True)


def packed_divides(a, b, guard) -> bool:
    return ((b | guard) - a) & guard == guard


def packed_product(xs, ys) -> set:
    """Packed terms of the product of two packed polynomials."""
    acc = set()
    for a in xs:
        for b in ys:
            m = a + b
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
    return acc


# Bits per field of a Poly2 monomial, its guard bit included.
FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_PACKINGS = {}


def packing(n) -> Packing:
    """The packing of every Poly2 in n variables."""
    pk = _PACKINGS.get(n)
    if pk is None:
        pk = _PACKINGS[n] = Packing(n, MAX_DEGREE)
    return pk


def _overflow(degree):
    return DegreeOverflow(
        f"a product of degree {degree} is past the packed limit {MAX_DEGREE} (MAX_DEGREE)")


_ONE = frozenset((0,))


class Poly2:
    """Polynomial over F2 with a fixed variable tuple.

    `mons` is the frozenset of packed monomials in `pk = packing(len(vars))`.
    """

    __slots__ = ("vars", "pk", "mons")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        n = len(self.vars)
        self.pk = pk = packing(n)
        mons = set()
        for t in terms:
            t = tuple(t)
            if len(t) != n or any(e < 0 for e in t):
                raise ValueError(f"bad exponent tuple {t} for vars {self.vars}")
            mons.add(pk.pack(t))
        self.mons = frozenset(mons)

    @classmethod
    def _make(cls, vars, pk, mons):
        """Internal: wrap packed monomials of `pk` without checking them."""
        self = object.__new__(cls)
        self.vars = vars
        self.pk = pk
        self.mons = frozenset(mons)
        return self

    @property
    def terms(self):
        """The exponent tuples of the support."""
        return frozenset(map(self.pk.unpack, self.mons))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        vars = tuple(vars)
        return cls._make(vars, packing(len(vars)), ())

    @classmethod
    def one(cls, vars):
        vars = tuple(vars)
        return cls._make(vars, packing(len(vars)), _ONE)

    @classmethod
    def var(cls, vars, name, power=1):
        i = tuple(vars).index(name)
        t = [0] * len(vars)
        t[i] = power
        return cls(vars, (tuple(t),))

    @classmethod
    def from_exps(cls, vars, exps_dicts):
        """Build from an iterable of {var: exp} dicts (repeated terms cancel)."""
        vars = tuple(vars)
        idx = {v: i for i, v in enumerate(vars)}
        terms = set()
        for d in exps_dicts:
            t = [0] * len(vars)
            for v, e in d.items():
                t[idx[v]] += e
            terms ^= {tuple(t)}
        return cls(vars, terms)

    @classmethod
    def parse(cls, vars, text):
        """Parse a '+'-separated product-of-powers expression over F2."""
        terms = []
        for factors in parse_term_list(text):
            d = {}
            keep = True
            for name, exp in factors:
                if name == "1":
                    continue
                if name == "0":
                    keep = False
                    continue
                if name not in vars:
                    raise UsageError(f"unknown variable {name!r} (have {vars})")
                if exp < 0:
                    raise UsageError(f"negative exponent on {name} in a polynomial")
                d[name] = d.get(name, 0) + exp
            if keep:
                terms.append(d)
        return cls.from_exps(vars, terms)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.mons

    def is_one(self):
        return self.mons == _ONE

    def total_degree(self):
        return max(self.mons) >> self.pk.top if self.mons else 0

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly2):
            raise TypeError(f"expected Poly2, got {type(other).__name__}")
        if self.vars != other.vars:
            raise RingMismatch(f"variable universes differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        self._check(other)
        return Poly2._make(self.vars, self.pk, self.mons ^ other.mons)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        self._check(other)
        a, b = self.mons, other.mons
        if a and b:
            # the product of the leading terms leads the product
            degree = (max(a) + max(b)) >> self.pk.top
            if degree > MAX_DEGREE:
                raise _overflow(degree)
        return Poly2._make(self.vars, self.pk, packed_product(a, b))

    def square(self):
        degree = 2 * self.total_degree()
        if degree > MAX_DEGREE:
            raise _overflow(degree)
        return Poly2._make(self.vars, self.pk, [m << 1 for m in self.mons])

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base.square()
        return Poly2.one(self.vars) if result is None else result

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.vars == other.vars and self.mons == other.mons

    def __hash__(self):
        return hash((self.vars, self.mons))

    def __bool__(self):
        return bool(self.mons)

    # -- leading data / division ---------------------------------------------

    def leading_term(self):
        """Leading monomial under grevlex, as an exponent tuple; raises on zero."""
        if not self.mons:
            raise DivisionByZero("leading term of the zero polynomial")
        return self.pk.unpack(max(self.mons))

    def sorted_terms(self):
        return [self.pk.unpack(m) for m in sorted(self.mons, reverse=True)]

    def __str__(self):
        if not self.mons:
            return "0"
        parts = []
        for t in self.sorted_terms():
            factors = [
                f"{v}^{e}" if e != 1 else v
                for v, e in zip(self.vars, t)
                if e
            ]
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    __repr__ = __str__


def poly_div(num, den):
    """Exact division num/den, or None when den does not divide num.

    Single-divisor reduction under grevlex: if num = q*den the remainder of
    the division loop is forced to zero, so this doubles as a divisibility
    test.
    """
    num._check(den)
    if den.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if num.is_zero():
        return num
    guard = num.pk.guard
    terms = den.mons
    lt_d = max(terms)
    rest = set(num.mons)
    quot = []
    while rest:
        lt = max(rest)
        if not packed_divides(lt_d, lt, guard):
            return None
        shift = lt - lt_d
        quot.append(shift)
        for t in terms:
            m = shift + t
            if m in rest:
                rest.discard(m)
            else:
                rest.add(m)
    return Poly2._make(num.vars, num.pk, quot)


# -- gcd via subresultant remainder sequences ----------------------------------

def _to_univar(p, vi):
    """Split p as a univariate in variable index vi with Poly2 coefficients."""
    pk = p.pk
    s, cap, unit = pk.shifts[vi], pk.capacity, pk.units[vi]
    coeffs = {}
    for m in p.mons:
        d = (m >> s) & cap
        coeffs.setdefault(d, []).append(m - d * unit)
    return {d: Poly2._make(p.vars, pk, ms) for d, ms in coeffs.items()}


def _from_univar(coeffs, vars, vi):
    pk = packing(len(vars))
    unit = pk.units[vi]
    return Poly2._make(vars, pk, [m + d * unit for d, c in coeffs.items() for m in c.mons])


def _uni_add(a, b):
    out = dict(a)
    for d, c in b.items():
        s = out.get(d)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(d, None)
        else:
            out[d] = s
    return out


def _uni_scale(a, c, shift):
    """Multiply a univariate rep by c * v^shift."""
    out = {}
    for d, coeff in a.items():
        p = coeff * c
        if not p.is_zero():
            out[d + shift] = p
    return out


def _prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b (char 2, no signs)."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    e = max(a) - db + 1
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        # lb*r + lr*v^(dr-db)*b kills the degree-dr head exactly.
        r = _uni_add(_uni_scale(r, lb, 0), _uni_scale(b, lr, dr - db))
        if r and max(r) >= dr:
            raise AssertionError("pseudo-division failed to drop degree")
        e -= 1
    if r and e > 0:
        r = _uni_scale(r, lb**e, 0)
    return r


def _content(coeffs):
    # smallest coefficients first: the chain usually hits 1 immediately
    g = None
    for c in sorted(coeffs.values(), key=lambda c: (len(c.mons), c.total_degree())):
        g = c if g is None else gcd(g, c)
        if g.is_one():
            break
    return g


def gcd(a, b):
    """Greatest common divisor over F2[vars] (monic by construction).

    Subresultant remainder sequence on the variable of smallest degree; the
    tracked factor g*h^delta divides each pseudo-remainder exactly, which
    keeps coefficients resultant-sized instead of swelling exponentially.
    """
    a._check(b)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.is_one() or b.is_one():
        return Poly2.one(a.vars)
    if a == b:
        return a
    if len(a.mons) == 1 or len(b.mons) == 1:
        # against a monomial only the common monomial part survives
        return Poly2._make(a.vars, a.pk, (reduce(a.pk.gcd, a.mons | b.mons),))
    # trial division: when one operand divides the other it is the gcd
    da, db = a.total_degree(), b.total_degree()
    if db <= da and poly_div(a, b) is not None:
        return b
    if da <= db and poly_div(b, a) is not None:
        return a
    pk = a.pk
    both = a.mons | b.mons
    vi = None
    best = None
    for i, s in enumerate(pk.shifts):
        d = max((m >> s) & pk.capacity for m in both)
        if d and (best is None or d < best):
            vi, best = i, d
    if vi is None:
        return Poly2.one(a.vars)  # both are 1
    ua, ub = _to_univar(a, vi), _to_univar(b, vi)
    ca, cb = _content(ua), _content(ub)
    cont = gcd(ca, cb)
    pa = {d: poly_div(c, ca) for d, c in ua.items()}
    pb = {d: poly_div(c, cb) for d, c in ub.items()}
    if max(pa) < max(pb):
        pa, pb = pb, pa
    g = h = Poly2.one(a.vars)
    while True:
        delta = max(pa) - max(pb)
        r = _prem(pa, pb)
        if not r:
            break
        if max(r) == 0:
            pb = r
            break
        divisor = g * h**delta
        r = {d: poly_div(c, divisor) for d, c in r.items()}
        pa, pb = pb, r
        g = pa[max(pa)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = poly_div(g**delta, h ** (delta - 1))
    if max(pb) == 0:
        return cont
    cpb = _content(pb)
    pb = {d: poly_div(c, cpb) for d, c in pb.items()}
    return cont * _from_univar(pb, a.vars, vi)


class RationalFunction:
    """Fraction of F2 polynomials over a shared variable tuple, reduced when read.

    `raw_num`/`raw_den` is the pair as built; arithmetic never takes a gcd:
    `+` adds numerators over an equal denominator and cross-multiplies
    otherwise, `*` multiplies.  A zero test reads the numerator, an ord the
    pair as it is.  The first read of `num` or `den` (`str` and `hash` read
    them) reduces the pair in place; `==` cross-multiplies.
    """

    __slots__ = ("raw_num", "raw_den", "_lowest")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly2.one(num.vars)
        num._check(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        self.raw_num, self.raw_den, self._lowest = num, den, den.is_one()

    @classmethod
    def _make(cls, num, den, lowest):
        self = object.__new__(cls)
        self.raw_num, self.raw_den, self._lowest = num, den, lowest
        return self

    @classmethod
    def zero(cls, vars):
        return cls(Poly2.zero(vars))

    @classmethod
    def one(cls, vars):
        return cls(Poly2.one(vars))

    @classmethod
    def _coprime(cls, num, den):
        """Internal: the caller guarantees gcd(num, den) = 1."""
        return cls._make(num, den, True)

    def _lowest_terms(self):
        if not self._lowest:
            num, den = self.raw_num, self.raw_den
            g = gcd(num, den)  # den itself when num is 0
            if not g.is_one():
                num, den = poly_div(num, g), poly_div(den, g)
            self.raw_num, self.raw_den, self._lowest = num, den, True
        return self.raw_num, self.raw_den

    num = property(lambda self: self._lowest_terms()[0], doc="The numerator in lowest terms.")
    den = property(lambda self: self._lowest_terms()[1], doc="The denominator in lowest terms.")

    @property
    def vars(self):
        return self.raw_num.vars

    def is_zero(self):
        return not self.raw_num.mons

    def __add__(self, other):
        a, b, c, d = self.raw_num, self.raw_den, other.raw_num, other.raw_den
        if not a.mons:
            return other
        if not c.mons:
            return self
        if b == d:
            return RationalFunction._make(a + c, b, b.is_one())
        return RationalFunction._make(a * d + c * b, b * d, False)

    __sub__ = __add__

    def __mul__(self, other):
        a, b, c, d = self.raw_num, self.raw_den, other.raw_num, other.raw_den
        if not a.mons:
            return self
        if not c.mons:
            return other
        return RationalFunction._make(a * c, b * d, b.is_one() and d.is_one())

    def __truediv__(self, other):
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return self * other.inverse()

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RationalFunction._make(self.raw_den, self.raw_num, self._lowest)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return RationalFunction.one(self.vars)
        if self.is_zero():
            return self
        return RationalFunction._make(self.raw_num ** n, self.raw_den ** n, self._lowest)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction) or self.vars != other.vars:
            return False
        a, b, c, d = self.raw_num, self.raw_den, other.raw_num, other.raw_den
        if b == d or (self._lowest and other._lowest):
            return a == c and b == d
        return a * d == c * b

    def __hash__(self):
        return hash(self._lowest_terms())

    def __bool__(self):
        return bool(self.raw_num)

    def __str__(self):
        num, den = self._lowest_terms()
        if den.is_one():
            return str(num)
        n = str(num)
        if len(num.mons) > 1:
            n = f"({n})"
        d = str(den)
        if len(den.mons) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    __repr__ = __str__


# -- shared expression tokenizer ----------------------------------------------

_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*|[01])(?:\^(-?\d+))?$")


def parse_term_list(text):
    """Split 'a*b^2 + c' into [[(name, exp), ...], ...].

    The grammar is sums of products of powers; exponents may be negative
    (callers reject them where inappropriate).  The bare factors '0' and '1'
    are passed through with their literal names.
    """
    if not text or not text.strip():
        raise UsageError("empty expression")
    out = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty summand in {text!r}")
        factors = []
        for raw in chunk.split("*"):
            raw = raw.strip()
            m = _FACTOR_RE.match(raw)
            if not m:
                raise UsageError(f"cannot parse factor {raw!r} in {text!r}")
            name, exp = m.group(1), m.group(2)
            factors.append((name, int(exp) if exp is not None else 1))
        out.append(factors)
    return out


def parse_fraction_text(text):
    """Parse an exact rational like '1/3' or '2' into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {text!r}") from exc
