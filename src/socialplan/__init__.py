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
    posterior_steps,
    update_posterior,
    window_likelihood,
)
from .metrics import (
    InteractionStats,
    ait,
    are,
    dominant_policy,
    dop,
    interaction_stats,
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
)
from .rewards import (
    FeatureVector,
    ResponseDistribution,
    RewardConfig,
    RewardWeights,
    absence_distribution,
    confidence,
    confidence_reward,
    courtesy_reward,
    cumulative_reward,
    egoism_reward,
    features,
    response_distribution,
    social_reward,
)
from .sampling import (
    ActionSequence,
    Candidate,
    JointBehaviorSpace,
    SamplerConfig,
    Trajectory,
    build_joint_space,
    rollout,
    sample_sequences,
)

__version__ = "0.1.0"
