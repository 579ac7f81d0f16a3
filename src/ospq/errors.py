"""Exception types shared across the toolkit.

Every failure mode that user code is expected to catch has its own class
here, so callers never need to match on message strings.
"""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero scalar, or by a series with no known nonzero coefficient."""


class PoleAtUnity(ArithmeticError):
    """A scalar has a genuine pole at p = 1, so the classical limit fails."""


class PrecisionShortfall(ArithmeticError):
    """A truncated series was asked for a coefficient beyond its precision."""


class BadSeriesHead(ArithmeticError):
    """A series reciprocal or rational power met an unusable lowest term."""


class NonHomogeneous(ValueError):
    """A graded operation needs a parity-homogeneous operand and got a mix."""


class NotNilpotent(ArithmeticError):
    """A terminating matrix series did not terminate within the dimension bound."""


class UnknownGenerator(KeyError):
    """A generator name is absent from the table it was looked up in."""


class BadBracketArg(ValueError):
    """A bracket kind and argument combination is outside the defined domain."""


class CancellationFailure(ArithmeticError):
    """An identity that must cancel exactly left a nonzero residual."""


class Inconsistency(ArithmeticError):
    """An order-by-order solve has no solution; refusing to guess."""
