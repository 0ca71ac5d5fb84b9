"""Random-walk commute and cover times on weighted multigraph networks.

The package pairs an exact layer (effective resistances, commute and
refined-commute closed forms, cover-time bounds, absorbing-chain solves)
with a seeded Monte Carlo walker that verifies every exact quantity under
two traversal-timing models.
"""

from .closedform import (
    RefinedCommuteValues,
    brownian_traversal_mean,
    commute_time,
    cover_bounds,
    half_excursion_mean,
    mean_predeparture_time,
    mean_step_time,
    refined_commutes,
    weighted_cost_commute,
)
from .errors import (
    ChargeOverflow,
    DisconnectedNetwork,
    EdgeNotIncident,
    EmptyInput,
    ExactSolveFailed,
    InfeasibleParameters,
    InvalidDepth,
    InvalidSplit,
    MissingArcCost,
    NetworkFormatError,
    NonPositiveLength,
    SameVertex,
    StateSpaceTooLarge,
    StepBudgetExceeded,
    TooSmall,
    UnsamplableArc,
    VertexOutOfRange,
    WalkcoverError,
)
from .estimate import (
    ComparisonVerdict,
    EstimateReport,
    estimate,
    estimate_refined,
    estimate_vertex_cover,
    trial_rng,
    verify,
)
from .exact import exact_stop_time
from .netmodel import (
    Arc,
    Edge,
    Network,
    Orientation,
    build_network,
    parse_network_text,
    random_orientation,
    serialize_network,
    transition_distribution,
    vertex_conductance,
)
from .resistance import (
    SplitSpec,
    effective_resistance,
    split_resistances,
    via_probability,
)
from .tours import (
    ClosedWalk,
    EpochRecord,
    EpochSequence,
    construct_double_cover_walk,
    epoch_times,
    per_edge_interval_means,
    validate_closed_walk,
)
from .walker import (
    ArcCoverReturn,
    Commute,
    DirectedCoverReturn,
    EdgeCoverReturn,
    FirstPassage,
    RefinedCommute,
    TimingModel,
    VertexCover,
    WalkEvent,
    WalkOutcome,
    commute_trips,
    run,
    step,
)

__version__ = "0.1.0"
