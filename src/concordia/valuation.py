"""Weighted monomial valuations with rational or rank-2 lexicographic values.

A monomial weight assigns each series variable a value-group element; the
value group is either Q or Q x Q ordered lexicographically with the first
entry most significant.  Parameter variables (the q's) default to weight
zero.  ord of a polynomial is the minimum weight over its support, ord of a
fraction is ord(num) - ord(den), and the leading form collects the terms of
minimal weight.  Everything is exact.  An Order holds Fractions, and so does
the weight table a MonomialWeight is built from; inside, a MonomialWeight
keeps integer weights (see its docstring), so an ord is an integer dot
product over a polynomial's packed exponent fields, and Fractions appear
only at the edge, in the one Order built for each result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValueGroupMismatch, ZeroElement
from .field2 import MAX_DEGREE, Poly2, RationalFunction


@dataclass(frozen=True)
class Order:
    """Element of the value group: a length-1 or length-2 Fraction tuple."""

    vec: tuple

    def __post_init__(self):
        object.__setattr__(self, "vec", tuple(Fraction(v) for v in self.vec))
        if len(self.vec) not in (1, 2):
            raise ValueGroupMismatch(f"unsupported value-group rank {len(self.vec)}")

    @classmethod
    def rational(cls, a):
        return cls((Fraction(a),))

    @classmethod
    def lex(cls, a, b):
        return cls((Fraction(a), Fraction(b)))

    @classmethod
    def zero(cls, kind):
        return cls((Fraction(0),) * kind)

    @property
    def kind(self):
        return len(self.vec)

    def _check(self, other):
        if not isinstance(other, Order):
            raise TypeError(f"expected Order, got {type(other).__name__}")
        if len(self.vec) != len(other.vec):
            raise ValueGroupMismatch("comparing values from different value groups")

    def __add__(self, other):
        self._check(other)
        return Order(tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other):
        self._check(other)
        return Order(tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self):
        return Order(tuple(-a for a in self.vec))

    def scale(self, n):
        return Order(tuple(Fraction(n) * a for a in self.vec))

    def __lt__(self, other):
        self._check(other)
        return self.vec < other.vec

    def __le__(self, other):
        self._check(other)
        return self.vec <= other.vec

    def __gt__(self, other):
        self._check(other)
        return self.vec > other.vec

    def __ge__(self, other):
        self._check(other)
        return self.vec >= other.vec

    def is_zero(self):
        return all(a == 0 for a in self.vec)

    def as_fraction(self):
        """The scalar value; only meaningful for the rank-1 group."""
        if len(self.vec) != 1:
            raise ValueGroupMismatch("scalar value requested from the lex group")
        return self.vec[0]

    def __str__(self):
        if len(self.vec) == 1:
            return str(self.vec[0])
        return "(" + ", ".join(str(a) for a in self.vec) + ")"

    __repr__ = __str__


class MonomialWeight:
    """Variable-indexed weights generating a monomial valuation.

    The weights are kept as integers: every component is scaled by the LCM
    of all their denominators, and a lex pair (a, b) folds into the one
    integer a*K + b, where K exceeds four times any |b| a monomial of degree
    at most MAX_DEGREE can reach, so integer order is lex order on monomials
    and a difference of two still decodes to its pair.  A monomial's ord is
    then an integer dot product over its packed exponent fields; `Fraction`
    appears only when an Order is built for a result.
    """

    __slots__ = ("weights", "kind", "_scale", "_fold", "_int", "_columns")

    def __init__(self, weights):
        weights = {v: w for v, w in weights.items()}
        kinds = {w.kind for w in weights.values()}
        if len(kinds) > 1:
            raise ValueGroupMismatch("mixed value groups in one weight table")
        self.kind = kinds.pop() if kinds else 1
        zero = Order.zero(self.kind)
        for v, w in weights.items():
            if not w > zero:
                raise ValueGroupMismatch(f"series variable {v} needs strictly positive weight")
        self.weights = weights
        self._scale = math.lcm(*(a.denominator for w in weights.values() for a in w.vec))
        scaled = {v: [int(a * self._scale) for a in w.vec] for v, w in weights.items()}
        if self.kind == 1:
            self._fold = 1
            self._int = {v: c[0] for v, c in scaled.items()}
        else:
            # a difference of two monomials' b-parts stays below K/2
            self._fold = 4 * MAX_DEGREE * max(abs(c[1]) for c in scaled.values()) + 1
            self._int = {v: c[0] * self._fold + c[1] for v, c in scaled.items()}
        self._columns = {}  # vars tuple -> ((field shift, integer weight), ...)

    @classmethod
    def rational(cls, table):
        return cls({v: Order.rational(a) for v, a in table.items()})

    @classmethod
    def lex(cls, table):
        return cls({v: Order.lex(a, b) for v, (a, b) in table.items()})

    def zero(self):
        return Order.zero(self.kind)

    def _order(self, value) -> Order:
        """The Order of an integer-scaled (and, for lex, folded) value."""
        if self.kind == 1:
            return Order((Fraction(value, self._scale),))
        a = (2 * value + self._fold) // (2 * self._fold)  # nearest integer
        return Order((Fraction(a, self._scale), Fraction(value - a * self._fold, self._scale)))

    def _ords(self, p: Poly2):
        """The integer ord of each packed monomial of p, in iteration order."""
        cols = self._columns.get(p.vars)
        if cols is None:
            cols = self._columns[p.vars] = tuple(
                (p.pk.shifts[i], self._int[v]) for i, v in enumerate(p.vars) if v in self._int)
        cap = p.pk.capacity
        return [sum([((m >> s) & cap) * w for s, w in cols]) for m in p.mons]

    def _ord_int(self, p: Poly2) -> int:
        if p.is_zero():
            raise ZeroElement("ord of the zero polynomial")
        return min(self._ords(p))

    def ord_poly(self, p: Poly2) -> Order:
        return self._order(self._ord_int(p))

    def leading_form(self, p: Poly2) -> Poly2:
        """Sub-polynomial of minimal-weight terms; nonzero for nonzero input."""
        lo = self._ord_int(p)
        return Poly2._make(p.vars, p.pk, [m for m, o in zip(p.mons, self._ords(p)) if o == lo])

    def ord_rf(self, f: RationalFunction) -> Order:
        """ord of f, read off the pair as built: no representative needs lowest terms."""
        if f.is_zero():
            raise ZeroElement("ord of the zero rational function")
        return self._order(self._ord_int(f.raw_num) - self._ord_int(f.raw_den))

    def leading_form_rf(self, f: RationalFunction) -> RationalFunction:
        """The leading forms of the pair; they are multiplicative, so any pair serves."""
        if f.is_zero():
            raise ZeroElement("leading form of zero")
        return RationalFunction(self.leading_form(f.raw_num), self.leading_form(f.raw_den))
