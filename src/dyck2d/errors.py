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


class NotDyck(Dyck2dError):
    """Word is not Dyck under the given pairing, or an accretion border not Dyck over its pairs."""


class ContainsNeutral(Dyck2dError):
    """Word or picture contains neutral cells where none are permitted."""


class NotInDC(Dyck2dError):
    """Picture is not a Dyck crossword."""


class HierarchyViolation(Dyck2dError, AssertionError):
    """Class flags break the inclusion chain DW <= DN <= DQ <= DC; signals a bug."""


class NotQuaternate(Dyck2dError):
    """Picture has a circuit longer than 4."""


class BudgetExceeded(Dyck2dError):
    """Requested search exceeds the configured cell budget."""
