"""Exception types shared across the package.

Every error raised by latkit derives from LatticeError, so callers can
catch the whole family at once. The leaf classes are part of the public
contract of the operations that raise them.
"""


class LatticeError(Exception):
    """Base class for all latkit errors."""


# -- construction / validation ------------------------------------------

class DuplicateLabel(LatticeError):
    pass


class UnknownLabel(LatticeError):
    pass


class CycleDetected(LatticeError):
    pass


class NoBounds(LatticeError):
    pass


class NotALattice(LatticeError):
    """The declared order has a pair without a unique glb or lub."""

    def __init__(self, x, y, reason="no unique bound"):
        self.pair = (x, y)
        super().__init__(f"{reason} for pair ({x!r}, {y!r})")


class NotComparable(LatticeError):
    pass


class SizeCapExceeded(LatticeError):
    pass


class UnknownName(LatticeError):
    pass


class BadParam(LatticeError):
    pass


class BadInput(LatticeError):
    """An interchange document that is not JSON or not of the lattice schema."""


# -- partitions and congruences ------------------------------------------

class OverlappingBlocks(LatticeError):
    pass


class CarrierMismatch(LatticeError):
    pass


class EmptySubset(LatticeError):
    pass


class NotACongruence(LatticeError):
    pass


# -- filters and ideals ---------------------------------------------------

class EmptyGeneratorSet(LatticeError):
    pass


class NotAFilter(LatticeError):
    pass


class NotAnIdeal(LatticeError):
    pass


class NotPrime(LatticeError):
    pass


class EmptyFamily(LatticeError):
    pass


# -- sum constructions ----------------------------------------------------

class TrivialSummand(LatticeError):
    pass


class NablaSummandCongruence(LatticeError):
    pass


class IntervalTooSmall(LatticeError):
    pass


class SummandTooSmall(LatticeError):
    pass


class TrivialInput(LatticeError):
    pass


# -- expressions and configuration ----------------------------------------

class ExprSyntaxError(LatticeError):
    """Malformed construction expression; `position` is 1-based."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} at offset {position}")


class ArityError(LatticeError):
    pass


class BadConfig(LatticeError):
    pass


class BadParams(BadParam):
    pass
