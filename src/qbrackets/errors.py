"""Exception types shared across the package."""


class QbracketsError(Exception):
    """Base class for all package-specific errors."""


class NotInvertibleError(QbracketsError):
    """Series has no multiplicative inverse (leading term is not a nonzero constant)."""


class PoleNotClearedError(QbracketsError):
    """Operation requires an honest series but the operand still carries pole summands."""


class NotAntisymmetricError(QbracketsError):
    """Division by (zeta - 1/zeta) attempted on a coefficient that is not antisymmetric."""

    def __init__(self, q_exponent: int):
        self.q_exponent = q_exponent
        super().__init__(f"coefficient at q-exponent {q_exponent} (1/24 units) is not zeta-antisymmetric")


class IntegralityError(QbracketsError):
    """A coefficient that must be p-integral has negative p-adic valuation."""

    def __init__(self, exponent: int, message: str = ""):
        self.exponent = exponent
        super().__init__(message or f"coefficient at exponent {exponent} is not p-integral")


class TruncationError(QbracketsError):
    """Known coefficients do not reach far enough for the requested operation."""


class NotQuasimodularError(QbracketsError):
    """Series failed the over-determined Eisenstein-ring decomposition check."""

    def __init__(self, exponent: int, message: str = ""):
        self.exponent = exponent
        super().__init__(message or f"decomposition residual is nonzero at integral exponent {exponent}")


class InternalError(QbracketsError, RuntimeError):
    """An invariant the package's own algorithms guarantee does not hold; this is a bug."""


class ExpressionError(QbracketsError):
    """Syntax error in a Q-polynomial expression."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"{message} (at position {position})")
