"""Two-vehicle interactive planning with social rewards and online inference.

A leader car plans over a discrete joint behavior space against a
Boltzmann-rational model of the other driver, trading off expected utility
(egoism), leaving the other driver's plan untouched (courtesy), and making
the other driver's reaction predictable (confidence).  The mixing weights of
those three terms are estimated online from recorded trajectories with a
particle posterior.
"""
from .core import (
    AgentState,
    ConflictPoint,
    JointState,
    ReferencePath,
    find_conflict_point,
    project_to_path,
    step_dynamics,
)
from .errors import (
    DegenerateWeightsError,
    EmptyCandidateSetError,
    HorizonExceedsTraceError,
    NoConflictError,
    NonFiniteDistanceError,
    NonFiniteRewardError,
    NonTerminatingError,
    ParseError,
    SchemaError,
    ShortTrackError,
    SocialPlanError,
    UnknownCandidateError,
)
from .inference import (
    InferenceConfig,
    InferenceSeries,
    ParticleSet,
    PriorSpec,
    estimate_lambda,
    infer_agent,
    infer_trace,
    init_particles,
    match_observed,
    update_posterior,
)
from .metrics import (
    ait,
    are,
    dominant_policy,
    dop,
    horizon_mse,
    psf,
    trajectory_mse,
)
from .planner import (
    InteractionTrace,
    PolicySpec,
    Scenario,
    follower_response,
    leader_label,
    plan_ego,
    simulate,
    simulate_policies,
)
from .rewards import RewardConfig, RewardWeights
from .sampling import (
    CandidateFan,
    JointBehaviorSpace,
    SamplerConfig,
    build_joint_space,
    sample_accels,
)

__version__ = "0.1.0"
