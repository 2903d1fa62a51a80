"""Exception types shared across the package."""


class GameLatticeError(Exception):
    """Base class for all package errors."""


class GameFormatError(GameLatticeError):
    """Raised on malformed game files; carries the 1-based offending line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ShapeError(GameLatticeError):
    """Raised when restrictions or models belong to different games."""


class BudgetError(GameLatticeError):
    """Raised when an enumeration or iteration exceeds its configured budget."""

    def __init__(self, message, attempted=None):
        self.attempted = attempted
        super().__init__(message)


class UnsupportedBeliefError(GameLatticeError):
    """Raised for belief configurations the decision procedures do not cover
    (independent mixed beliefs with more than two players)."""


class ClassificationError(GameLatticeError):
    """Raised when a possibility correspondence lacks the class (knowledge or
    belief) an operator requires."""


class PreconditionError(GameLatticeError):
    """Raised when a checked precondition of a construction fails."""


class InternalError(GameLatticeError):
    """Raised when the program contradicts itself: an LP it builds to be
    feasible and bounded is not, a certificate, an LP's witness or its
    dual, fails its re-validation, or an elimination outcome has an empty
    component.  Never caused by the input; the CLI exits with status 3."""


class ValidationError(GameLatticeError):
    """Raised when a supplied symbolic step or limit rule misbehaves; carries
    the stage that failed ("step" or "limit") and a witness probe point when
    one exists."""

    def __init__(self, message, stage, witness=None):
        self.stage = stage
        self.witness = witness
        super().__init__(message)
