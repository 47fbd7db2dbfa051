"""Complex Hermitian matrix toolkit.

Construction and validation of Hermitian matrices, spectral decomposition
into eigenvalues and eigenvectors, support projections, standard operator
functions, and traces restricted to a support subspace.  Everything operates
on plain ``numpy`` arrays; the wrapper dataclasses carry cached
decompositions and are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    DimensionMismatchError,
    DomainError,
    ValidationError,
)

__all__ = [
    "hermitian_part",
    "validate_hermitian",
    "SpectralDecomposition",
    "decompose",
    "apply_function",
    "DensityState",
    "density_state",
    "RankOneProjection",
    "transition_probability",
    "trace_on_support",
]


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Return (M + M*)/2, of one matrix or of each matrix in a stack."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2


def _finite_square(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a complex array; ``ValidationError`` unless it is square, of
    dimension >= 1, with finite entries (run before gates that read ``deviation > tol``)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] < 1:
        raise ValidationError("matrix dimension must be at least 1")
    if np.isfinite(matrix).all():
        return matrix
    bad = np.argwhere(~np.isfinite(matrix))
    named = ", ".join(f"[{i}, {j}] = {matrix[i, j]}" for i, j in bad[:3])
    more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
    raise ValidationError(f"matrix has non-finite entries: {named}{more}")


def validate_hermitian(matrix: np.ndarray, tol_herm: float = DEFAULT_TOLS.tol_herm) -> np.ndarray:
    """Check Hermiticity within ``tol_herm`` and return the symmetrized matrix.

    Inputs within tolerance are symmetrized (tolerates file-format rounding);
    anything further from Hermitian is rejected rather than silently accepted.
    """
    matrix = _finite_square(matrix)
    deviation = float(np.max(np.abs(matrix - matrix.conj().T)))
    if deviation > tol_herm:
        raise ValidationError(
            f"matrix is not Hermitian: max |M - M*| = {deviation:.3e} > {tol_herm:.1e}"
        )
    return hermitian_part(matrix)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Spectral decomposition M = V diag(w) V*.

    ``w`` has one eigenvalue per column of the unitary ``v``, descending, with
    exact zeros.  The support projection is built only when read.
    """

    w: np.ndarray
    v: np.ndarray

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.w))

    @cached_property
    def support(self) -> np.ndarray:
        columns = self.v[:, self.w != 0.0]
        return hermitian_part(columns @ columns.conj().T)

    def reconstruct(self) -> np.ndarray:
        """Reassemble V diag(w) V*."""
        return (self.v * self.w) @ self.v.conj().T


def decompose(matrix: np.ndarray, *, tols: Tolerances = DEFAULT_TOLS) -> SpectralDecomposition:
    """Spectral decomposition into descending eigenvalues and their eigenvectors.

    Eigenvalues below ``eps_supp`` in magnitude are exactly 0.
    """
    return _eigh(validate_hermitian(matrix, tols.tol_herm), tols, False)


def _eigh(matrix: np.ndarray, tols: Tolerances, psd_floor: bool) -> SpectralDecomposition:
    """:func:`decompose` of a matrix that ``validate_hermitian`` has returned.

    With ``psd_floor``, for states: every eigenvalue below ``eps_supp`` is
    exactly 0, and one below ``-tol_psd`` is an error.
    """
    w, v = np.linalg.eigh(matrix)
    if psd_floor and w[0] < -tols.tol_psd:
        raise ValidationError(f"state has negative eigenvalue {w[0]:.3e} beyond {tols.tol_psd:.1e}")
    w = w[::-1]
    w = np.where(w < tols.eps_supp if psd_floor else np.abs(w) < tols.eps_supp, 0.0, w)
    v = np.ascontiguousarray(v[:, ::-1])
    return SpectralDecomposition(w=w, v=v)


def apply_function(
    matrix: "np.ndarray | SpectralDecomposition | DensityState",
    fn: Callable[[np.ndarray], np.ndarray],
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Standard operator function f(M) = V diag(f(w)) V*.

    ``fn`` is evaluated on the eigenvalue array at once, or one eigenvalue at
    a time if it takes scalars only; an evaluation error or a non-finite
    value raises ``DomainError``.
    """
    spec = _as_decomposition(matrix, tols)
    try:
        values = np.broadcast_to(np.asarray(fn(spec.w), dtype=float), spec.w.shape)
    except (TypeError, ValueError):  # fn takes scalars only
        try:
            values = np.array([fn(float(a)) for a in spec.w])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"cannot evaluate function on the spectrum {spec.w!r}: {exc}") from exc
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise DomainError(f"function value at eigenvalue {float(spec.w[k])!r} is {float(values[k])!r}")
    return (spec.v * values) @ spec.v.conj().T


def _as_decomposition(
    matrix: "np.ndarray | SpectralDecomposition | DensityState", tols: Tolerances
) -> SpectralDecomposition:
    if isinstance(matrix, SpectralDecomposition):
        return matrix
    if isinstance(matrix, DensityState):
        return matrix.spectral
    return decompose(matrix, tols=tols)


@dataclass(frozen=True, init=False)
class DensityState:
    """A density operator: Hermitian, positive semidefinite, unit trace.

    The spectral decomposition ``(w, V)`` is fixed at construction:
    ``from_matrix`` runs one ``eigh``, while ``from_orthonormal`` and the
    constructors that know a state's spectrum already (``random_state``,
    conjugation and transpose images) attach it without one.  Eigenvalues
    below ``eps_supp`` are exactly 0 for all support decisions.

    ``matrix`` is given at construction or, for ``from_orthonormal`` and the
    conjugation and transpose images, built when first read; until then such
    a state holds what it is built from (for an image, its source state).
    """

    spectral: SpectralDecomposition = field(repr=False)

    def __init__(self, matrix: np.ndarray, spectral: SpectralDecomposition) -> None:
        object.__setattr__(self, "spectral", spectral)
        self.__dict__["matrix"] = matrix  # where ``matrix`` keeps a built value

    @classmethod
    def _built_on_read(
        cls, build: Callable[[], np.ndarray], spectral: SpectralDecomposition
    ) -> "DensityState":
        """The state with decomposition ``spectral`` whose matrix ``build()`` returns when first read."""
        state = cls.__new__(cls)
        object.__setattr__(state, "spectral", spectral)
        state.__dict__["_build"] = build
        return state

    @cached_property
    def matrix(self) -> np.ndarray:
        # The matrix is stored before the source is released, so a concurrent first
        # read (cached_property takes no lock from Python 3.12) finds one of the two.
        build = self.__dict__.get("_build")
        if build is None:
            return self.__dict__["matrix"]
        self.__dict__["matrix"] = matrix = build()
        self.__dict__.pop("_build", None)
        return matrix

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> "DensityState":
        matrix = validate_hermitian(matrix, tols.tol_herm)
        trace = float(np.trace(matrix).real)
        if abs(trace - 1.0) > tols.tol_trace:
            raise ValidationError(f"state trace is {trace!r}, expected 1 within {tols.tol_trace:.1e}")
        return cls(matrix=matrix, spectral=_eigh(matrix, tols, psd_floor=True))

    @classmethod
    def from_orthonormal(cls, weights: Sequence[float], vectors: Sequence[np.ndarray]) -> "DensityState":
        """The state sum_k weights[k] |v_k><v_k|: orthonormal v_k, decreasing weights summing to 1.

        No eigendecomposition runs: one Householder reflector per vector,
        O(d^2) each, completes the basis, whose other columns get eigenvalue 0.
        """
        dim, k = vectors[0].shape[0], len(vectors)
        v = np.eye(dim, dtype=complex)
        for j, u in enumerate(vectors):
            # Reflector fixing columns < j and taking column j to u, up to a phase.
            h = u @ v.conj()
            h[:j] = 0.0
            hj = complex(h[j])
            h[j] = hj + (hj / abs(hj) if hj else 1.0)
            v -= (v @ h)[:, None] * (h.conj() * (2.0 / np.vdot(h, h).real))
            v[:, j] = u
        w = np.zeros(dim)
        w[:k] = weights
        return cls._built_on_read(
            lambda: hermitian_part((v[:, :k] * w[:k]) @ v[:, :k].conj().T),
            SpectralDecomposition(w=w, v=v),
        )

    @property
    def dim(self) -> int:
        return self.spectral.v.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.w

    @property
    def support(self) -> np.ndarray:
        return self.spectral.support

    @property
    def rank(self) -> int:
        return self.spectral.rank

    def as_rank_one(self, tols: Tolerances = DEFAULT_TOLS) -> "RankOneProjection":
        """Extract the rank-one projection if this state is pure.

        Pure means a leading eigenvalue within ``tol_num`` of 1 and no other
        eigenvalue of its sign less than ``cluster_tol`` below it.
        """
        w, top = self.spectral.w, float(self.spectral.w[0])
        multiplicity = int(np.count_nonzero((top - w < tols.cluster_tol) & (np.sign(w) == np.sign(top))))
        if abs(top - 1.0) > tols.tol_num or multiplicity != 1:
            raise ValidationError(
                f"state is not rank-one: leading eigenvalue {top!r} "
                f"with multiplicity {multiplicity}"
            )
        vector = self.spectral.v[:, 0]
        return RankOneProjection.from_vector(vector * vector[np.argmax(np.abs(vector))].conj())


def density_state(matrix: np.ndarray) -> DensityState:
    """Shorthand for DensityState.from_matrix."""
    return DensityState.from_matrix(matrix)


@dataclass(frozen=True)
class RankOneProjection:
    """A pure state |v><v| stored by its unit vector.

    ``matrix`` is |v><v|, or ``source_matrix`` when one is given: a probe
    image read from a file keeps the matrix it was read from, so the file
    read and written again is byte-identical.
    """

    vector: np.ndarray
    source_matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "RankOneProjection":
        vector = np.asarray(vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(vector))
        if not DEFAULT_TOLS.tol_num <= norm < np.inf:  # zero, or NaN or inf from an entry
            raise ValidationError(f"cannot build a rank-one projection from a vector of norm {norm!r}")
        return cls(vector=vector / norm)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        if self.source_matrix is not None:
            return self.source_matrix
        return np.outer(self.vector, self.vector.conj())

    def to_state(self) -> DensityState:
        """The state |v><v|, with its decomposition attached (no eigh runs)."""
        return DensityState.from_orthonormal([1.0], [self.vector])


def transition_probability(p: RankOneProjection, q: RankOneProjection) -> float:
    """tr PQ = |<p, q>|^2, clamped to [0, 1]."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"projection dimensions differ: {p.dim} vs {q.dim}")
    overlap = np.vdot(p.vector, q.vector)
    return min(max(float(abs(overlap) ** 2), 0.0), 1.0)


def _validate_projection(projection: np.ndarray, tols: Tolerances) -> np.ndarray:
    projection = validate_hermitian(projection, tols.tol_herm)
    deviation = float(np.max(np.abs(projection @ projection - projection)))
    if deviation > tols.tol_num:
        raise ValidationError(f"not an orthogonal projection: max |P^2 - P| = {deviation:.3e}")
    return projection


def trace_on_support(
    matrix: np.ndarray, support: np.ndarray, *, tols: Tolerances = DEFAULT_TOLS
) -> float:
    """Trace restricted to a subspace: tr(S M S) for an orthogonal projection S."""
    matrix = np.asarray(matrix, dtype=complex)
    support = _validate_projection(np.asarray(support, dtype=complex), tols)
    if matrix.shape != support.shape:
        raise DimensionMismatchError(
            f"matrix shape {matrix.shape} does not match support shape {support.shape}"
        )
    return float(np.trace(support @ matrix @ support).real)
