"""Complex Hermitian matrix toolkit.

Validation of Hermitian matrices, density states stored by their
eigenvalues and eigenvectors, support projections, standard operator
functions of states, and traces restricted to a support subspace.  Everything
operates on plain ``numpy`` arrays; the state dataclasses are treated as
immutable.
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


def _check_square(stack: np.ndarray) -> None:
    """``ValidationError`` unless ``stack`` is a (k, d, d) stack of square matrices
    of dimension d >= 1; the message names the shape of one matrix."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValidationError(f"expected a square matrix, got shape {stack.shape[1:]}")
    if stack.shape[1] < 1:
        raise ValidationError("matrix dimension must be at least 1")


def _finite_square(matrix: np.ndarray, stacked: bool = False) -> np.ndarray:
    """``matrix`` as a complex array; ``ValidationError`` unless it is square (with
    ``stacked``, a (k, d, d) stack of square matrices), of dimension >= 1, with finite
    entries (run before gates that read ``deviation > tol``).  In a stack the first
    matrix with a non-finite entry is named, as its one-matrix check names it."""
    matrix = np.asarray(matrix, dtype=complex)
    stack = matrix if stacked else matrix[None]
    _check_square(stack)
    if np.isfinite(stack).all():
        return matrix
    first = stack[np.argmin(np.isfinite(stack).all(axis=(1, 2)))]
    bad = np.argwhere(~np.isfinite(first))
    named = ", ".join(f"[{i}, {j}] = {first[i, j]}" for i, j in bad[:3])
    more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
    raise ValidationError(f"matrix has non-finite entries: {named}{more}")


def validate_hermitian(matrix: np.ndarray, tol_herm: float = DEFAULT_TOLS.tol_herm) -> np.ndarray:
    """Check Hermiticity within ``tol_herm`` and return the symmetrized matrix.

    Inputs within tolerance are symmetrized (tolerates file-format rounding);
    anything further from Hermitian is rejected rather than silently accepted.
    A 3-d array is a stack of matrices, each checked and symmetrized as one
    matrix would be; the first matrix that fails raises.
    """
    matrix = _finite_square(matrix, stacked=np.ndim(matrix) == 3)
    deviations = np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    for deviation in deviations.reshape(-1).tolist():
        if deviation > tol_herm:
            raise ValidationError(f"matrix is not Hermitian: max |M - M*| = {deviation:.3e} > {tol_herm:.1e}")
    return hermitian_part(matrix)


def apply_function(state: "DensityState", fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Standard operator function f(A) = V diag(f(w)) V* of a state.

    ``fn`` is evaluated on the eigenvalue array at once; a non-finite value
    raises ``DomainError``.
    """
    return (state.v * _function_values(fn, state.w)) @ state.v.conj().T


def _function_values(fn: Callable[[np.ndarray], np.ndarray], w: np.ndarray) -> np.ndarray:
    """``fn(w)`` as floats of the shape of ``w``; ``DomainError`` names the first
    non-finite value, in C order, and the eigenvalue it was taken at."""
    values = np.broadcast_to(np.asarray(fn(w), dtype=float), w.shape)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise DomainError(f"function value at eigenvalue {float(w.flat[k])!r} is {float(values.flat[k])!r}")
    return values


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new first axis; a single array is viewed, not copied,
    so a one-item call of a stacked core allocates what a one-item routine would."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _assemble(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V* of each (V, w) of a (k, d, n) and a (k, n) stack, with the bits
    of ``(v * w) @ v.conj().T`` on each."""
    return (v * w[:, None, :]) @ v.conj().swapaxes(1, 2)


@dataclass(frozen=True, init=False)
class DensityState:
    """A density operator A = V diag(w) V*: Hermitian, positive semidefinite, unit trace.

    ``w`` has one eigenvalue per column of the unitary ``v``, descending, with
    eigenvalues below ``eps_supp`` exactly 0 for all support decisions.  The
    pair is fixed at construction: ``from_matrix`` runs one ``eigh``, while
    ``from_orthonormal`` and the constructors that know a state's spectrum
    already (``random_state``, conjugation and transpose images) attach it
    without one.  ``from_matrix`` is the one-matrix case of ``_from_matrices``,
    which builds the states of a stack of matrices with one stacked check of
    each kind and one stacked ``eigh``.

    ``matrix`` is given at construction or, for ``from_orthonormal`` and the
    conjugation and transpose images, built when first read; until then such
    a state holds what it is built from (for an image, its source state).
    The support projection is built only when read.
    """

    w: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __init__(self, w: np.ndarray, v: np.ndarray, *, matrix: np.ndarray) -> None:
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        self.__dict__["matrix"] = matrix  # where ``matrix`` keeps a built value

    @classmethod
    def _built_on_read(cls, build: Callable[[], np.ndarray], w: np.ndarray, v: np.ndarray) -> "DensityState":
        """The state V diag(w) V* whose matrix ``build()`` returns when first read."""
        state = cls.__new__(cls)
        object.__setattr__(state, "w", w)
        object.__setattr__(state, "v", v)
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
        """The state of ``matrix``, after one Hermitian check and one ``eigh``.

        An eigenvalue below ``-tol_psd`` is an error.  The one-matrix case of
        ``_from_matrices``.
        """
        return cls._from_matrices(np.asarray(matrix, dtype=complex)[None], tols)[0]

    @classmethod
    def _from_matrices(cls, matrices: np.ndarray, tols: Tolerances) -> list["DensityState"]:
        """The state of each matrix in a (k, d, d) stack, as :meth:`from_matrix`,
        its one-matrix case.

        Each check runs once on the whole stack, in the one-matrix order (shape
        and finite entries, Hermiticity, trace, then positivity after the one
        stacked ``eigh``), and raises the one-matrix error text for the first
        matrix that fails it.
        """
        _check_square(matrices)  # so that validate_hermitian reads it as a stack
        matrices = validate_hermitian(matrices, tols.tol_herm)
        for trace in matrices.trace(axis1=1, axis2=2).real.tolist():
            if abs(trace - 1.0) > tols.tol_trace:
                raise ValidationError(f"state trace is {trace!r}, expected 1 within {tols.tol_trace:.1e}")
        w, v = np.linalg.eigh(matrices)
        for lowest in w[:, 0].tolist():
            if lowest < -tols.tol_psd:
                raise ValidationError(f"state has negative eigenvalue {lowest:.3e} beyond {tols.tol_psd:.1e}")
        w = w[:, ::-1]
        w = np.where(w < tols.eps_supp, 0.0, w)
        v = np.ascontiguousarray(v[:, :, ::-1])
        return [cls(wk, vk, matrix=mk) for wk, vk, mk in zip(w, v, matrices)]

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
        return cls._built_on_read(lambda: hermitian_part((v[:, :k] * w[:k]) @ v[:, :k].conj().T), w, v)

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

    def as_rank_one(self, tols: Tolerances = DEFAULT_TOLS) -> "RankOneProjection":
        """Extract the rank-one projection if this state is pure.

        Pure means a leading eigenvalue within ``tol_num`` of 1 and no other
        eigenvalue of its sign less than ``cluster_tol`` below it.
        """
        w, top = self.w, float(self.w[0])
        multiplicity = int(np.count_nonzero((top - w < tols.cluster_tol) & (np.sign(w) == np.sign(top))))
        if abs(top - 1.0) > tols.tol_num or multiplicity != 1:
            raise ValidationError(
                f"state is not rank-one: leading eigenvalue {top!r} "
                f"with multiplicity {multiplicity}"
            )
        vector = self.v[:, 0]
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
