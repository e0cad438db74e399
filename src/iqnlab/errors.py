"""Exception types raised by the solver and data layers."""


class IqnLabError(Exception):
    """Base class for all library errors."""


class SingularUpdate(IqnLabError):
    """A rank-one update would destroy invertibility of the maintained inverse."""


class DegenerateDirection(IqnLabError):
    """A curvature update was requested along a direction with vanishing curvature."""


class SwollenCurvature(IqnLabError):
    """A direct solver's per-step (1 + beta)^2 scaling swelled a curvature
    matrix until its update guards failed."""


class InvalidTau(IqnLabError):
    """Restricted Broyden parameter outside [0, 1]."""


class NonPositiveDiagonal(IqnLabError):
    """Greedy selection requires strictly positive reference diagonal entries."""


class SingularA(IqnLabError):
    """Factorization of a supposedly positive definite matrix failed."""


class SingularAggregate(IqnLabError):
    """The summed curvature matrix could not be factorized."""


class DegenerateProblem(IqnLabError):
    """Estimated smoothness constants are unusable (e.g. mu <= 0)."""


class LazyInconsistency(IqnLabError):
    """Internal invariant violation in the lazy scaling bookkeeping."""


class MalformedLine(IqnLabError):
    """A dataset line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptyDataset(IqnLabError):
    """No usable rows were found in the dataset source."""


class InvalidSpec(IqnLabError):
    """Problem generator parameters are invalid."""


class HarnessError(IqnLabError):
    """Experiment configuration or I/O failure."""
