"""Exception types shared across the package.

Exit-code mapping used by the CLI: ParameterError / DomainError -> 2,
BudgetExceededError -> 3, failed verification verdicts -> 1.
BudgetExceededError is raised in one place, the admission check of
`construct._all_vertices`, before any subspace is enumerated.
"""


class ParameterError(ValueError):
    """A caller-supplied parameter is invalid (bad field order, ambient mismatch, ...)."""


class DomainError(ValueError):
    """An input is structurally valid but outside the operation's domain."""


class BudgetExceededError(RuntimeError):
    """The parameters give more vertices than `construct.MAX_VERTICES` admits."""


class GMHypothesisError(RuntimeError):
    """The Godsil-McKay switching hypothesis failed validation.

    Carries the full validation report so the caller can inspect which
    vertex/cell pair violated the 0 / half / full requirement.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(f"GM switching hypothesis violated: {report.summary()}")
