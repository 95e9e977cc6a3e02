"""Spectrum access games on directed interference graphs: equilibria, estimation, learning."""

from .channels import (
    BernoulliChannel,
    FixedRate,
    MarkovChannel,
    RayleighShannonRate,
    WhiteSpaceChannel,
    calibrate_mean_gain,
    mean_rate,
    stationary_idle_probability,
)
from .contention import (
    AsymptoticBackoff,
    RandomBackoff,
    SlottedAloha,
    WeightedShare,
    grab_probability,
    satisfies_congestion_property,
)
from .equilibria import construct_ne_bipartite, construct_ne_dag, construct_ne_directed_tree
from .errors import (
    DegenerateModelError,
    PreconditionError,
    ResourceLimitError,
    UndefinedEstimateError,
)
from .estimation import (
    MarkovEstimate,
    ObservationSet,
    ThroughputEstimate,
    UniformNoise,
    estimate_throughput,
    mle_grab,
    mle_markov,
    mle_rate,
)
from .game import (
    PhysicalGame,
    SpectrumGame,
    better_response_dynamics,
    enumerate_pure_ne,
    is_pure_ne,
    payoff_physical,
    payoff_pure,
    social_welfare_and_poa,
    welfare,
)
from .graph import (
    InterferenceGraph,
    UserPlacement,
    classify,
    graph_from_locations,
)
from .learning import (
    GapCertificate,
    LearningOutcome,
    approx_ne_gap,
    contraction_temperature_bound,
    mean_dynamics_fixed_point,
    run_learning,
)
from .potentials import VARIANTS, applicable_variants, potential_value
from .simulator import (
    ComparisonReport,
    DynamicStageGamePolicy,
    FixedProfilePolicy,
    LearningPolicy,
    RandomAccessPolicy,
    Scenario,
    SimStreams,
    compare_policies,
    run_policy,
    simulate_period,
    sweep_gamma,
)

__version__ = "0.1.0"
