"""Seeded random states, pure states and Haar unitaries.

All sampling goes through an explicit ``numpy.random.Generator`` seeded with
PCG64, so every test vector is reproducible from (dim, seed) alone; the
generator algorithm is part of the file-format contract (see README).
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import ParameterError
from .hermitian import DensityState, RankOneProjection, _assemble, hermitian_part

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
    return _haar(_ginibre(dim, rng))


def _haar(ginibre: np.ndarray) -> np.ndarray:
    """The phase-fixed Q factor of each Ginibre matrix in a (..., d, d) stack."""
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


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
    return _random_states(1, dim, rank, rng=rng, eigenvalue_floor=eigenvalue_floor, tols=tols)[0]


def _random_states(
    n: int,
    dim: int,
    rank: int | None = None,
    *,
    rng: np.random.Generator,
    eigenvalue_floor: float = 0.0,
    tols: Tolerances = DEFAULT_TOLS,
) -> list[DensityState]:
    """``n`` random states, bit for bit those of ``n`` consecutive ``random_state`` calls:
    ``n`` draws (``_draw_state``), then one build (``_build_states``)."""
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    rank = dim if rank is None else rank
    if not 1 <= rank <= dim:
        raise ParameterError(f"rank must lie in [1, {dim}], got {rank}")
    draws = [_draw_state(dim, rank, rng) for _ in range(n)]
    return _build_states(draws, eigenvalue_floor=eigenvalue_floor, tols=tols)


def _draw_state(dim: int, rank: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The rng draws of one ``random_state`` call, in its order: the simplex weights of the
    rank nonzero eigenvalues, then the real and the imaginary Ginibre parts, (2, d, d)."""
    return random_simplex_point(rank, rng), rng.standard_normal((2, dim, dim))


def _build_states(
    draws: list[tuple[np.ndarray, np.ndarray]],
    *,
    eigenvalue_floor: float = 0.0,
    tols: Tolerances = DEFAULT_TOLS,
) -> list[DensityState]:
    """The states of ``_draw_state`` draws of one dimension and rank, each bit for bit
    its ``random_state``.  The spectrum floor, the QR, the phase fix, the matrices and
    the sort each run once on the stack.
    """
    if not draws:
        return []
    n, rank, dim = len(draws), len(draws[0][0]), draws[0][1].shape[-1]
    spectrum = np.zeros((n, dim))
    spectrum[:, :rank] = [weights for weights, _ in draws]
    gaussian = np.array([parts for _, parts in draws])
    if eigenvalue_floor > 0.0:
        spectrum[:, :rank] = (spectrum[:, :rank] + eigenvalue_floor) / (1.0 + rank * eigenvalue_floor)
    basis = _haar((gaussian[:, 0] + 1j * gaussian[:, 1]) / np.sqrt(2.0))
    matrices = hermitian_part(_assemble(basis, spectrum))
    order = np.argsort(-spectrum, axis=1, kind="stable")
    w = np.take_along_axis(spectrum, order, axis=1)
    w[w < tols.eps_supp] = 0.0
    v = np.take_along_axis(basis, order[:, None, :], axis=2)
    return [DensityState(wk, vk, matrix=m) for m, wk, vk in zip(matrices, w, v)]
