"""Seeded random states, pure states and Haar unitaries.

All sampling goes through an explicit ``numpy.random.Generator`` seeded with
PCG64, so every test vector is reproducible from (dim, seed) alone; the
generator algorithm is part of the file-format contract (see README).
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import ParameterError
from .hermitian import DensityState, RankOneProjection, SpectralDecomposition, hermitian_part

__all__ = [
    "rng_for",
    "haar_unitary",
    "random_pure",
    "random_state",
    "random_simplex_point",
]


def rng_for(seed: int) -> np.random.Generator:
    """A PCG64 generator for the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed.

    Rescaling each column by the phase of the corresponding diagonal entry of
    R removes the multivaluedness of QR and yields the invariant distribution.
    """
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    q, r = np.linalg.qr(_ginibre(dim, rng))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure(dim: int, rng: np.random.Generator) -> RankOneProjection:
    """Uniformly random pure state (normalized complex Gaussian vector)."""
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return RankOneProjection.from_vector(vector)


def random_simplex_point(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the probability simplex (Dirichlet with unit weights)."""
    return rng.dirichlet(np.ones(n))


def random_state(
    dim: int,
    rank: int | None = None,
    *,
    rng: np.random.Generator,
    eigenvalue_floor: float = 0.0,
    tols: Tolerances = DEFAULT_TOLS,
) -> DensityState:
    """Random density state V diag(w) V* of the given rank (default: full).

    V comes from orthonormalization of a seeded complex Gaussian matrix; w is
    a seeded point of the rank-restricted probability simplex, padded with
    zeros.  ``eigenvalue_floor`` > 0 mixes the spectrum toward uniform so the
    nonzero eigenvalues stay away from 0 (useful for conditioning-sensitive
    tests; the sampling contract of the CLI uses floor 0).  The state carries
    (w, V) as its decomposition, sorted descending with weights below
    ``eps_supp`` set to 0; no eigendecomposition runs.
    """
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ParameterError(f"rank must lie in [1, {dim}], got {rank}")
    weights = random_simplex_point(rank, rng)
    if eigenvalue_floor > 0.0:
        weights = (weights + eigenvalue_floor) / (1.0 + rank * eigenvalue_floor)
    spectrum = np.zeros(dim)
    spectrum[:rank] = weights
    basis = haar_unitary(dim, rng)
    matrix = hermitian_part((basis * spectrum) @ basis.conj().T)
    order = np.argsort(-spectrum, kind="stable")
    w = spectrum[order]
    w[w < tols.eps_supp] = 0.0
    spectral = SpectralDecomposition(w=w, v=basis[:, order], cluster_tol=tols.cluster_tol)
    return DensityState(matrix=matrix, spectral=spectral)
