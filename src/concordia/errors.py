"""Error hierarchy for the concordia kernel.

Every domain error raised by the library derives from ConcordiaError so the
CLI can map any of them to exit code 1 uniformly.  Usage errors (bad flags,
malformed expressions) are raised as UsageError and map to exit code 2.
"""


class ConcordiaError(Exception):
    """Base class for all domain errors."""


class UsageError(ConcordiaError):
    """Malformed input text, flags, or file contents."""


# -- field2 / laurent ------------------------------------------------------

class DivisionByZero(ConcordiaError):
    """Division by the zero polynomial or zero rational function."""


class RingMismatch(ConcordiaError):
    """Operands live over different rings or variable universes."""


class ZeroElement(ConcordiaError):
    """ord/leading form requested for the zero element."""


class DegreeOverflow(ConcordiaError, ValueError):
    """A monomial's total degree is past what its packed fields hold."""


# -- valuation --------------------------------------------------------------

class ValueGroupMismatch(ConcordiaError):
    """Comparison or arithmetic between different value groups."""


# -- basechange --------------------------------------------------------------

class DegenerateBaseChange(ConcordiaError):
    """pi/lambda requested for a base change with sigma(P) = 0."""


class UnknownExample(ConcordiaError):
    """Base-change builtin name not recognised."""


class MissingParameter(ConcordiaError):
    """A builtin base change needs a parameter that was not supplied."""


class InvalidParameter(ConcordiaError):
    """A base-change parameter is outside its admissible range."""


# -- homalg ------------------------------------------------------------------

class NotAChainMap(ConcordiaError):
    """Blocks fail to commute with the differentials."""


class NotInvertible(ConcordiaError):
    """Basis-change matrix determinant is not a unit."""


class NotACycle(ConcordiaError):
    """Distinguished vector fails its cycle/cofunctional condition."""


# -- ideals ------------------------------------------------------------------

class UnsupportedPresentation(ConcordiaError):
    """Homology presentation shape outside the supported fragment."""


class GroebnerDegreeCap(ConcordiaError):
    """Buchberger exceeded the configured total-degree safety cap."""


# -- invariants ---------------------------------------------------------------

class RankNotOne(ConcordiaError):
    """Free rank of the distinguished homology is not 1."""


class CycleInTorsion(ConcordiaError):
    """Distinguished class has zero free coefficient."""


class DirectionMismatch(ConcordiaError):
    """Connected sum requires both cycles oriented unknot-to-K."""


class NonIntegral(ConcordiaError):
    """A quantity that must be an integer is not."""


class MissingSignature(ConcordiaError):
    """Gordon-Litherland style bound requested without a declared signature."""


class NotNonorientableValid(ConcordiaError):
    """Nonorientable-genus bound requested for an inapplicable base change."""


class IntegrityError(ConcordiaError):
    """An internal cross-check failed (e.g. unexpected lex coordinate)."""


# -- catalog ------------------------------------------------------------------

class UnknownKnot(ConcordiaError):
    """Catalog lookup for a name that is not stocked."""
