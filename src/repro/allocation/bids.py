"""Bids and bid-selection policies for the task auction.

During the allocation phase the auction manager solicits bids for each task
from all participants.  A bid carries ranking information, most importantly
the bidder's *specialization*: "a participant which provides fewer services
is preferred over a participant with a wider array of services, because
scheduling the more capable participant removes a larger number of services
from the community's resource pool" (paper, Section 3.2).

The auction manager's selection criterion is pluggable via
:class:`BidSelectionPolicy` so the ablation benchmarks can compare the
paper's specialization-first rule with simpler alternatives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Protocol, Sequence


@dataclass(frozen=True)
class Bid:
    """A firm bid on one task, as tracked by the auction manager.

    Parameters
    ----------
    bidder:
        Host id of the participant that submitted the bid.
    task_name:
        The task being bid on.
    specialization:
        Total number of services the bidder offers (lower = more
        specialised = preferred by the default policy).
    proposed_start:
        When the bidder would execute the task.
    travel_time:
        Travel the bidder would need before the start.
    response_deadline:
        Latest simulated time by which the auction manager must respond;
        the bid is only guaranteed firm until then.
    """

    bidder: str
    task_name: str
    specialization: int
    proposed_start: float
    travel_time: float = 0.0
    response_deadline: float = float("inf")

    def __repr__(self) -> str:
        return (
            f"Bid(bidder={self.bidder!r}, task={self.task_name!r}, "
            f"specialization={self.specialization}, start={self.proposed_start:.1f})"
        )


class BidSelectionPolicy(Protocol):
    """Strategy deciding which of two firm bids the auction manager prefers."""

    name: str

    def sort_key(self, bid: Bid) -> tuple:
        """Return a sort key; the bid with the smallest key wins."""
        ...


@dataclass(frozen=True)
class SpecializationPolicy:
    """The paper's policy: fewest services first, then earliest start, then host id."""

    name: str = "specialization"

    def sort_key(self, bid: Bid) -> tuple:
        return (bid.specialization, bid.proposed_start, bid.bidder)


@dataclass(frozen=True)
class EarliestStartPolicy:
    """Prefer the bid that can run the task soonest (ties broken by specialization)."""

    name: str = "earliest-start"

    def sort_key(self, bid: Bid) -> tuple:
        return (bid.proposed_start, bid.specialization, bid.bidder)


@dataclass(frozen=True)
class LeastTravelPolicy:
    """Prefer the bid requiring the least travel (a locality-aware variant)."""

    name: str = "least-travel"

    def sort_key(self, bid: Bid) -> tuple:
        return (bid.travel_time, bid.specialization, bid.proposed_start, bid.bidder)


class RandomPolicy:
    """Pick uniformly among bidders (the ablation baseline).

    The choice is deterministic given the seed and the bid's identity so the
    evaluation harness stays reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self.name = "random"
        self._seed = seed

    def sort_key(self, bid: Bid) -> tuple:
        token = random.Random(f"{self._seed}/{bid.bidder}/{bid.task_name}").random()
        return (token, bid.bidder)


DEFAULT_POLICY = SpecializationPolicy()


def select_best(bids: Sequence[Bid], policy: BidSelectionPolicy = DEFAULT_POLICY) -> Bid:
    """Return the winning bid under ``policy`` (raises ``ValueError`` on empty input)."""

    if not bids:
        raise ValueError("cannot select from an empty set of bids")
    return min(bids, key=policy.sort_key)


def rank_bids(bids: Sequence[Bid], policy: BidSelectionPolicy = DEFAULT_POLICY) -> list[Bid]:
    """All bids ordered from most to least preferred under ``policy``."""

    return sorted(bids, key=policy.sort_key)
