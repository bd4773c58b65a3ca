"""Exact outcomes and manipulation analysis for the Like and Balanced Like
online allocation mechanisms.

Items arrive one by one (in a fixed order, from a known arrival
distribution, or with only a prefix observed) and the mechanism assigns each
to a feasible bidder uniformly at random.  Everything outcome-related is
computed in exact rational arithmetic.
"""

from .core import (
    AllocationState,
    ArrivalModel,
    BidProfile,
    BudgetExceeded,
    DEFAULT_ENUMERATION_BUDGET,
    DimensionMismatch,
    Distribution,
    FixedOrder,
    InputError,
    Instance,
    InvalidDistribution,
    InvalidOrder,
    NegativeValue,
    OutcomeReport,
    Rational,
    format_rational,
    instance_from_json_dict,
    instance_to_json_dict,
    make_instance,
    parse_rational,
    validate_instance,
)
from .engine import (
    InconsistentPrefix,
    NoPositiveBranch,
    QueryContext,
    UnsupportedQuery,
    allocation_states_after,
    distribution_states_after,
    epsilon_bound,
    exact_utility,
    monte_carlo_estimate,
    necessary_utility,
    next_item_probability,
    online_utilities,
    outcome_report,
    possible_item,
    possible_utility,
)
from .generators import (
    BadR,
    BipartiteGraph,
    EmptyGraph,
    NotSubdivisionShaped,
    NotThreeRegular,
    SideMismatch,
    SubsetInstance,
    brute_force_perfect_matchings,
    complete_bipartite,
    complete_minus_even_cycle,
    complete_minus_perfect_matching,
    count_perfect_matchings,
    even_cycle,
    graph_from_json_dict,
    graph_to_json_dict,
    make_graph,
    make_subset_instance,
    min_maximal_matching_size,
    random_instance,
    reduction1_instance,
    reduction2_instance,
    reduction2_manip_instance,
    reduction3_instance,
    reduction3_roles,
    reduction_subset_instance,
    subset_sum_bc,
)
from .manipulation import (
    ManipulationQuery,
    best_response_search,
    exact_manipulation_gain,
    is_strategyproof_on_instance,
    necessary_manipulation,
    utilities_under_deviation,
)
from .mechanisms import (
    Mechanism,
    feasible_for_counts,
)

__version__ = "0.1.0"
