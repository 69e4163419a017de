"""Exception types shared across the package."""


class SocialPlanError(Exception):
    """Base class for all library errors."""


class NoConflictError(SocialPlanError):
    """The two reference paths never intersect: the scenario is non-interactive."""


class EmptyCandidateSetError(SocialPlanError):
    """Candidate sampling produced no usable action sequences."""


class UnknownCandidateError(SocialPlanError):
    """A candidate label does not exist in the joint behavior space."""


class ShortTrackError(SocialPlanError):
    """A recorded track is too short for one observation window."""


class DegenerateWeightsError(SocialPlanError):
    """All particle weights collapsed to zero during a posterior update."""


class NonFiniteRewardError(SocialPlanError):
    """The rewards overflowed: a rewards.theta_* weight or rewards.beta is too large for the utilities."""


class NonTerminatingError(SocialPlanError):
    """The interaction hit the step limit before a conflict-point crossing."""


class HorizonExceedsTraceError(SocialPlanError):
    """Requested comparison horizon is longer than a trajectory."""


class ParseError(SocialPlanError):
    """A data file row could not be parsed."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class SchemaError(SocialPlanError):
    """A data file header or config does not match the expected schema."""
