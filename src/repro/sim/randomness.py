"""Deterministic randomness helpers.

Every stochastic choice in the library (workload generation, mobility
models, network jitter) draws from an explicit ``random.Random`` instance
derived from a seed, never from the global random module.  This module
centralises seed handling so experiments are reproducible run to run and a
single master seed can fan out into independent streams for independent
concerns (a common trick in simulation frameworks to keep sub-experiments
decoupled from each other's consumption of random numbers).
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")

DEFAULT_SEED = 20090514
"""Default master seed (an arbitrary constant derived from the paper's year)."""


def rng_from_seed(seed: int | None = None) -> random.Random:
    """Create an independent random stream from an integer seed."""

    return random.Random(DEFAULT_SEED if seed is None else seed)


def derive_seed(master_seed: int, *names: object) -> int:
    """Derive a stable sub-seed from a master seed and a sequence of names.

    The derivation hashes the names so that, e.g., the mobility stream and
    the workload stream of the same experiment never collide, and adding a
    new consumer does not perturb existing ones.
    """

    digest = hashlib.sha256()
    digest.update(str(master_seed).encode("utf-8"))
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def derive_rng(master_seed: int, *names: object) -> random.Random:
    """Shorthand for ``rng_from_seed(derive_seed(master_seed, *names))``."""

    return rng_from_seed(derive_seed(master_seed, *names))


def choice(rng: random.Random, items: Sequence[T]) -> T:
    """``rng.choice`` with a clearer error for empty sequences."""

    if not items:
        raise ValueError("cannot choose from an empty sequence")
    return items[rng.randrange(len(items))]


def sample_without_replacement(
    rng: random.Random, items: Sequence[T], count: int
) -> list[T]:
    """Sample ``count`` distinct items (raises when not enough items exist)."""

    if count > len(items):
        raise ValueError(
            f"cannot sample {count} items from a sequence of {len(items)}"
        )
    return rng.sample(list(items), count)


def shuffled(rng: random.Random, items: Iterable[T]) -> list[T]:
    """Return a new shuffled list, leaving the input untouched."""

    result = list(items)
    rng.shuffle(result)
    return result


RETRY_BACKOFF = 2.0
"""Growth factor of a fault-hardened protocol's retry delay per attempt."""

RETRY_JITTER = 0.1
"""Largest fraction of its base delay by which a retry delay is stretched."""


def backoff_delay(base: float, attempt: int, rng: random.Random) -> float:
    """The delay before retry round ``attempt`` (from 1) of a hardened protocol.

    ``base`` grows by :data:`RETRY_BACKOFF` per earlier round and is
    stretched by up to :data:`RETRY_JITTER` of itself, drawn from ``rng``.
    Each manager passes its own per-host derived stream, so the retry storm
    after a partition heals de-synchronizes across hosts (they would
    otherwise fire at identical backoff multiples) while a replay stays a
    pure function of the host id.
    """

    return base * RETRY_BACKOFF ** (attempt - 1) * (1.0 + RETRY_JITTER * rng.random())


def exponential_jitter(rng: random.Random, mean: float) -> float:
    """An exponentially distributed delay with the given mean (0 when mean is 0)."""

    if mean <= 0:
        return 0.0
    return rng.expovariate(1.0 / mean)


def uniform_jitter(rng: random.Random, low: float, high: float) -> float:
    """A uniformly distributed delay in ``[low, high]``."""

    if high < low:
        raise ValueError("high must be >= low")
    return rng.uniform(low, high)
