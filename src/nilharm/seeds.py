"""Named deterministic sampling streams.

Every piece of randomized testing in the package draws from a stream that is
derived from a single 64-bit master seed plus a stream name, so that runs are
reproducible byte-for-byte and independent checks do not perturb each other's
sampling when code is added or reordered.
"""

from __future__ import annotations

import hashlib
import os
import random
from fractions import Fraction

import numpy as np

from .rationals import Vector

DEFAULT_SEED = 0
ENV_VAR = "NILHARM_SEED"


def master_seed(explicit: int | None = None) -> int:
    """Resolve the master seed: explicit flag, else NILHARM_SEED, else 0."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _derive(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stream(name: str, seed: int = DEFAULT_SEED) -> random.Random:
    """Python RNG for the named stream."""
    return random.Random(_derive(seed, name))


def rng(name: str, seed: int = DEFAULT_SEED) -> np.random.Generator:
    """numpy RNG for the named stream."""
    return np.random.default_rng(_derive(seed, name))


def random_fraction(rnd: random.Random, max_num: int = 6, max_den: int = 4,
                    nonzero: bool = False) -> Fraction:
    """Small random rational; small bounds keep exact arithmetic fast."""
    while True:
        q = Fraction(rnd.randint(-max_num, max_num), rnd.randint(1, max_den))
        if q != 0 or not nonzero:
            return q


def random_fraction_vector(rnd: random.Random, n: int, max_num: int = 6,
                           max_den: int = 4) -> Vector:
    """n ``random_fraction`` draws."""
    return tuple(random_fraction(rnd, max_num, max_den) for _ in range(n))
