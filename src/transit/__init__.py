"""Transitions between game solutions and their efficiency.

The package models profiles assembled from several designated solutions of a
finite game (transitions), limits on how many solutions may be combined,
stability refinements, and the induced efficiency measures, together with
structured backends (congestion, polymatrix, non-atomic routing, graph
coordination) and the degree algorithms that quantify miscoordination.
"""

from .games import (
    Game,
    Profile,
    SolutionSet,
    best_responses,
    enumerate_pure_ne,
    social_value,
)
from .transitions import (
    DegreeWitness,
    TransitionSet,
    is_stable_transition,
    is_transition,
    m_transition_set,
    merge_set,
    transition_degree,
    transition_set,
)
from .efficiency import (
    CoordinationDependence,
    PriceReport,
    check_bound_observations,
    coordination_dependence,
    extensive_smoothness,
    price_report,
    two_player_pots_condition,
    verify_identical_utility,
)

__version__ = "0.1.0"

__all__ = [
    "Game",
    "Profile",
    "SolutionSet",
    "best_responses",
    "enumerate_pure_ne",
    "social_value",
    "TransitionSet",
    "DegreeWitness",
    "is_transition",
    "is_stable_transition",
    "merge_set",
    "m_transition_set",
    "transition_degree",
    "transition_set",
    "PriceReport",
    "CoordinationDependence",
    "price_report",
    "coordination_dependence",
    "check_bound_observations",
    "two_player_pots_condition",
    "extensive_smoothness",
    "verify_identical_utility",
]
