"""Exception hierarchy shared by all dyck2d modules."""


class Dyck2dError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(Dyck2dError, ValueError):
    """Malformed argument: a value outside the domain of the function it is passed to."""


class RaggedRows(Dyck2dError):
    """Picture text has lines of unequal length."""


class UnknownToken(Dyck2dError):
    """Cell token is not part of the alphabet."""


class IndexOutOfRange(Dyck2dError):
    """Cell token carries an index outside [1..k]."""


class SizeMismatch(Dyck2dError):
    """Concatenation operands disagree on the shared dimension."""


class DomainOutOfBounds(Dyck2dError):
    """A cell outside the host picture, or a malformed redex box."""


class NeutralNotAllowed(Dyck2dError):
    """Word contains a neutral symbol where none is permitted."""


class NotDyck(Dyck2dError):
    """Word is not a Dyck word under the given pairing."""


class OddLength(Dyck2dError):
    """Dyck words have even length."""


class ContainsNeutral(Dyck2dError):
    """Picture contains neutral cells where none are permitted."""


class NotInDC(Dyck2dError):
    """Picture is not a Dyck crossword."""


class StaleRedex(Dyck2dError):
    """Redex no longer matches the current picture."""


class HierarchyViolation(Dyck2dError, AssertionError):
    """Class flags break the inclusion chain DW <= DN <= DQ <= DC; signals a bug."""


class NotQuaternate(Dyck2dError):
    """Picture has a circuit longer than 4."""


class LengthMismatch(Dyck2dError):
    """Accretion border word length disagrees with the core size."""


class NotDyckBorder(Dyck2dError):
    """Accretion border word is not a Dyck word over the required pairs."""


class BudgetExceeded(Dyck2dError):
    """Requested search exceeds the configured cell budget."""
