"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside its documented range."""


class DomainError(ValueError):
    """Input data violates a domain requirement (e.g. nonpositive mass)."""


class FeasibilityError(ValueError):
    """A super-diagonal vector violates the chain constraints.

    ``index`` names the first offending coordinate.
    """

    def __init__(self, index):
        self.index = index
        super().__init__(f"infeasible super-diagonal entry at index {index}")


class StallError(RuntimeError):
    """Block rejection sampling exceeded its try budget."""

    def __init__(self, block_index, tries):
        self.block_index = block_index
        self.tries = tries
        super().__init__(
            f"block update at start {block_index} rejected {tries} proposals; "
            "conditional slab is too thin")


class NotCoalescedError(RuntimeError):
    """The exact start's bounding chains did not meet within its depth cap."""


class NonErgodicError(RuntimeError):
    """The target state cannot be reached (a required edge has rate zero)."""

    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"chain is cut at edge ({edge}, {edge + 1})")


class NotMixedError(RuntimeError):
    """Evolution hit the horizon before crossing the requested TV level."""

    def __init__(self, last_tv, horizon):
        self.last_tv = last_tv
        self.horizon = horizon
        super().__init__(f"TV still {last_tv:.6g} after {horizon} steps")


class SpectrumError(RuntimeError):
    """The eigensolver returned an invalid spectrum (top eigenvalue not 1)."""


class EmptyEnsembleError(ValueError):
    """A summary was requested over zero replicates."""
