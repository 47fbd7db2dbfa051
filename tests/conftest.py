"""Shared helpers for the test suite: seeded sampling shortcuts and the hypothesis profile."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from statediv import DensityState, RankOneProjection, haar_unitary

# Property tests draw a fixed sequence of examples on every run.
settings.register_profile("statediv", derandomize=True, max_examples=100, deadline=None, database=None)
settings.load_profile("statediv")


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2


def orthogonal_pure_pair(dim: int, rng: np.random.Generator) -> tuple[RankOneProjection, RankOneProjection]:
    basis = haar_unitary(dim, rng)
    return (
        RankOneProjection.from_vector(basis[:, 0]),
        RankOneProjection.from_vector(basis[:, 1]),
    )


def mixed_state_with_gap(dim: int, rng: np.random.Generator, gap: float = 0.1) -> DensityState:
    """Random mixed state whose largest eigenvalue is at most 1 - gap."""
    while True:
        weights = rng.dirichlet(np.ones(dim))
        if weights.max() <= 1.0 - gap:
            break
    basis = haar_unitary(dim, rng)
    matrix = (basis * weights) @ basis.conj().T
    return DensityState.from_matrix((matrix + matrix.conj().T) / 2)
