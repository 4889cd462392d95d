"""Allocation substrate: the task auction of the paper's Section 3.2."""

from .auction import AllocationOutcome, AuctionManager, TaskAuction
from .bids import (
    DEFAULT_POLICY,
    Bid,
    BidSelectionPolicy,
    EarliestStartPolicy,
    LeastTravelPolicy,
    RandomPolicy,
    SpecializationPolicy,
    rank_bids,
    select_best,
)
from .participation import AuctionParticipationManager

__all__ = [
    "AllocationOutcome",
    "AuctionManager",
    "AuctionParticipationManager",
    "Bid",
    "BidSelectionPolicy",
    "DEFAULT_POLICY",
    "EarliestStartPolicy",
    "LeastTravelPolicy",
    "RandomPolicy",
    "SpecializationPolicy",
    "TaskAuction",
    "rank_bids",
    "select_best",
]
