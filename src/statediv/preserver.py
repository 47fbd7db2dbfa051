"""Divergence-preserver engine.

Operationalizes the structure theory of divergence-preserving bijections on
the state space: transition probabilities recovered from divergence values
alone, rank-two spectra recovered from divergence extrema, pure states
detected through the max-divergence functional, and the implementing unitary
or antiunitary operator reconstructed from a finite probe set, then verified
against the map it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from .bregman import _bregman_pairs, _check_lambda, rank_two_offset
from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    DimensionMismatchError,
    NotAPreserverError,
    OracleError,
    ParameterError,
    RangeError,
    ValidationError,
)
from .generators import GeneratorFunction
from .hermitian import (
    DensityState,
    RankOneProjection,
    _decide_zeros,
    _finite_square,
    hermitian_part,
    transition_probability,
)
from .jensen import _jensen_pairs, _per_distinct, _rank_one_value, jensen_max_constant, jensen_rank_one
from .sampling import _random_states, random_pure, rng_for

__all__ = [
    "SymmetryOp",
    "PreserverOracle",
    "conjugation_oracle",
    "transpose_oracle",
    "depolarizing_oracle",
    "diagonal_oracle",
    "transition_table",
    "transition_from_bregman",
    "transition_from_jensen",
    "transition_from_bregman_rank_two",
    "recover_rank_two_spectrum",
    "max_divergence_functional",
    "pure_reference_value",
    "is_pure_by_max",
    "rank_two_mixture",
    "probe_labels",
    "wigner_probes",
    "wigner_reconstruct",
    "probe_transitions_via_divergence",
    "PreserverVerification",
    "verify_preserver",
]

BISECT_TOL = 1e-10  # bracket width at which the Jensen and rank-two bisections stop
BRACKET_EPS = 1e-12  # rank-two spectra are recovered on [BRACKET_EPS, 1/2 - BRACKET_EPS]
WIGNER_TOL = 1e-6  # admissible change of a probe-pair transition probability
RECONSTRUCT_TOL = 1e-8  # admissible max-entry miss of a reconstructed probe image
DIVERGENCE_TOL = 1e-8  # admissible divergence deviation and residual in verify_preserver
PURE_MARGIN = 1e-3  # admissible gap between M(X) and the pure reference value
PROBE_LAM = 0.25  # weight of P in the rank-two mixture lam P + (1 - lam) Q that probes infinite f'(0)


# ---------------------------------------------------------------------------
# Symmetry operations and oracles


@dataclass(frozen=True)
class SymmetryOp:
    """A unitary matrix plus an antiunitary flag.

    Acts on a state A as U A U* when unitary and as U conj(A) U* when
    antiunitary (entrywise conjugation happens before the unitary).
    ``SymmetryOp(...)`` trusts its matrix to be unitary; ``from_matrix``
    checks unitarity within ``tol_num``.
    """

    matrix: np.ndarray
    antiunitary: bool = False

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, antiunitary: bool = False, tols: Tolerances = DEFAULT_TOLS
    ) -> "SymmetryOp":
        matrix = _finite_square(matrix)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = matrix @ matrix.conj().T
        deviation = float(np.max(np.abs(gram - np.eye(matrix.shape[0]))))
        if not deviation <= tols.tol_num:  # NaN where the product overflows
            raise ValidationError(f"matrix is not unitary: max |U U* - I| = {deviation:.3e}")
        return cls(matrix=matrix, antiunitary=antiunitary)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply_matrix(self, a: np.ndarray) -> np.ndarray:
        """U A U* (U conj(A) U* when antiunitary), of one matrix or of each matrix in a stack."""
        return self._apply_in_place(np.array(a, dtype=complex))

    def _apply_in_place(self, a: np.ndarray) -> np.ndarray:
        """``apply_matrix`` of a complex array the caller owns, written over it: the
        one array it allocates is the product U A (U conj(A))."""
        if self.antiunitary:
            np.conj(a, out=a)
        return np.matmul(self.matrix @ a, self.matrix.conj().T, out=a)

    def apply_state(self, state: DensityState) -> DensityState:
        """The image state, carrying the input's eigenvalues with eigenvectors
        U V (U conj(V) when antiunitary); no eigendecomposition runs.  The
        leading columns of V are mapped at once and its kernel when the
        image's ``v`` is first read; the image matrix is built when first read."""
        return state._image(state.w, lambda: hermitian_part(self.apply_matrix(state.matrix)), self.apply_vector)

    def apply_vector(self, v: np.ndarray) -> np.ndarray:
        v = np.conj(v) if self.antiunitary else v
        return self.matrix @ v

    def apply_projection(self, p: RankOneProjection) -> RankOneProjection:
        return RankOneProjection.from_vector(self.apply_vector(p.vector))


@dataclass(frozen=True)
class PreserverOracle:
    """A queryable map on the state space (the object under test).

    ``mapping`` must return a valid DensityState of the same dimension, with
    finite eigenvalues, for every state the engine queries; anything else
    raises ``OracleError``.
    """

    dim: int
    mapping: Callable[[DensityState], DensityState] = field(repr=False)
    label: str = "oracle"

    def __call__(self, state: DensityState) -> DensityState:
        if state.dim != self.dim:
            raise DimensionMismatchError(f"oracle expects dim {self.dim}, got {state.dim}")
        try:
            image = self.mapping(state)
        except ValidationError as exc:
            raise OracleError(f"oracle {self.label!r} returned an invalid state: {exc}") from exc
        if not isinstance(image, DensityState):
            raise OracleError(f"oracle {self.label!r} returned {type(image).__name__}, not a DensityState")
        if image.dim != self.dim:
            raise OracleError(f"oracle {self.label!r} changed the dimension: {image.dim} != {self.dim}")
        if not np.isfinite(image.w).all():
            raise OracleError(f"oracle {self.label!r} returned non-finite eigenvalues {image.w!r}")
        return image


def conjugation_oracle(op: SymmetryOp, tols: Tolerances = DEFAULT_TOLS) -> PreserverOracle:
    """A -> U A U* (or U conj(A) U*): the maps the structure theorems produce.

    Images carry the input's eigenvalues (``SymmetryOp.apply_state``) and are
    not validated one by one, so U is checked for unitarity here, once.
    """
    SymmetryOp.from_matrix(op.matrix, op.antiunitary, tols)
    kind = "antiunitary" if op.antiunitary else "unitary"
    return PreserverOracle(dim=op.dim, mapping=op.apply_state, label=f"{kind}-conjugation")


def transpose_oracle(dim: int) -> PreserverOracle:
    """A -> A^T; equals entrywise conjugation, an antiunitary conjugation with U = I.

    The image carries the input's eigenvalues with eigenvectors conj(V): the
    leading columns of V conjugated at once, its kernel when the image's ``v``
    is first read.  Its matrix is built when first read.
    """

    def mapping(s: DensityState) -> DensityState:
        return s._image(s.w, lambda: hermitian_part(s.matrix.T), np.conj)

    return PreserverOracle(dim=dim, mapping=mapping, label="transpose")


def depolarizing_oracle(dim: int, alpha: float = 0.5, tols: Tolerances = DEFAULT_TOLS) -> PreserverOracle:
    """A -> (1 - alpha) A + alpha I/d; contracts divergences, not a preserver.

    The image of the state V diag(w) V* is known in closed form, so no
    eigendecomposition runs: it keeps the input's eigenvectors (the kernel
    built when read, as for ``SymmetryOp.apply_state``) with eigenvalues
    (1 - alpha) w + alpha/d, zeros decided; its matrix, built when first read,
    is taken from that same V diag(w) V*, so it has the spectrum it carries.
    The images are valid by construction once alpha lies in [0, 1], which is
    checked here, once.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"depolarizing weight must lie in [0, 1], got {alpha!r}")
    mixed = np.eye(dim, dtype=complex) / dim

    def mapping(s: DensityState) -> DensityState:
        w = _decide_zeros((1.0 - alpha) * s.w + alpha / dim, tols)
        return s._image(w, lambda: hermitian_part((1.0 - alpha) * s.reconstruct() + alpha * mixed))

    return PreserverOracle(dim=dim, mapping=mapping, label=f"depolarize({alpha:g})")


def diagonal_oracle(dim: int, tols: Tolerances = DEFAULT_TOLS) -> PreserverOracle:
    """A -> diag(diag(A)); projection onto the diagonal, not a preserver.

    The image is known in closed form, so no eigendecomposition runs: its
    eigenvalues are diag(A), sorted descending (stably) with zeros decided,
    and its eigenvectors the identity's columns in the same order; its
    matrix is built when first read.
    """
    basis = np.eye(dim, dtype=complex)

    def mapping(s: DensityState) -> DensityState:
        diagonal = np.diagonal(s.matrix)
        order = np.argsort(-diagonal.real, kind="stable")
        w = _decide_zeros(diagonal.real[order], tols)
        return DensityState._built_on_read(lambda: hermitian_part(np.diag(diagonal)), w, basis[:, order])

    return PreserverOracle(dim=dim, mapping=mapping, label="diagonal")


# ---------------------------------------------------------------------------
# Transition probability and spectrum recovery from divergence values


def _checked(name: str, value, low: float, high: float, tols: Tolerances) -> np.ndarray:
    """``value`` (a float or an array) as an array; ``RangeError`` if an entry
    is NaN or lies outside [low, high] by more than tol_num * max(1, |low|, |high|)."""
    value = np.asarray(value, dtype=float)
    slack = tols.tol_num * max(1.0, abs(low), abs(high))
    outside = ~((value >= low - slack) & (value <= high + slack))
    if outside.any():
        raise RangeError(
            f"{name} {float(value[outside][0])!r} outside the admissible range [{low!r}, {high!r}]"
        )
    return value


def _float_or_array(t: np.ndarray) -> "float | np.ndarray":
    return float(t) if t.ndim == 0 else t


def transition_from_bregman(
    f: GeneratorFunction, h: "float | np.ndarray", *, tols: Tolerances = DEFAULT_TOLS
) -> "float | np.ndarray":
    """Invert h = (1 - p)(f'(1) - f'(0)) for generators with finite f'(0).

    ``h`` may be an array of values; the result is then an array too.  For
    infinite f'(0) the rank-one Bregman value is 0 or +inf and carries no
    transition information; use the rank-two route instead.
    """
    if not f.finite_zero_slope:
        raise ParameterError(
            f"generator {f.name!r} has f'(0+) = -inf; recover transitions through "
            "transition_from_bregman_rank_two instead"
        )
    span = f.slope(1.0) - f.slope_at_zero
    h = _checked("Bregman value", h, 0.0, span, tols)
    return _float_or_array(np.clip(1.0 - h / span, 0.0, 1.0))


def transition_from_jensen(
    f: GeneratorFunction,
    j: "float | np.ndarray",
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> "float | np.ndarray":
    """Invert the rank-one Jensen closed form by monotone bisection in p.

    ``j`` may be an array of values; the result is then an array too, each
    entry the float call on it (``jensen._per_distinct``).
    """
    m_f = jensen_max_constant(f)
    j = np.clip(_checked("Jensen value", j, 0.0, m_f, tols), 0.0, m_f)
    # J decreases from M_f at p = 0 to 0 at p = 1.
    return _per_distinct(lambda value: _bisect(lambda p: _rank_one_value(f, p) > value, 0.0, 1.0), j)


def transition_from_bregman_rank_two(
    f: GeneratorFunction, lam: float, value: "float | np.ndarray", *, tols: Tolerances = DEFAULT_TOLS
) -> "float | np.ndarray":
    """Invert H_f(R, lam P + mu Q) = -f'(lam) t - f'(mu)(1 - t) + C for t = tr RP.

    This is the probing device for generators with f'(0+) = -inf, where
    rank-one pairs only yield 0 or +inf.  ``value`` may be an array of values;
    the result is then an array too.
    """
    _check_lambda(lam)
    mu = 1.0 - lam
    slope_lam, slope_mu = f.slope(lam), f.slope(mu)
    offset = rank_two_offset(f, lam)
    low = -slope_mu + offset  # value at R = Q
    high = -slope_lam + offset  # value at R = P
    value = _checked("rank-two Bregman value", value, low, high, tols)
    return _float_or_array(np.clip((value - offset + slope_mu) / (slope_mu - slope_lam), 0.0, 1.0))


def recover_rank_two_spectrum(f: GeneratorFunction, delta: float) -> float:
    """Recover lam in (0, 1/2) from delta = f'(1 - lam) - f'(lam).

    The gap is strictly decreasing in lam (to 0 at lam = 1/2), so the value
    determines the rank-two spectrum {lam, 1 - lam} uniquely; solved by
    bisection on [BRACKET_EPS, 1/2 - BRACKET_EPS].
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise RangeError(f"spectral gap value must be positive and finite, got {delta!r}")

    def gap(lam: float) -> float:
        return f.slope(1.0 - lam) - f.slope(lam)

    lo, hi = BRACKET_EPS, 0.5 - BRACKET_EPS
    if delta > gap(lo):
        if f.finite_zero_slope:
            span = f.slope(1.0) - f.slope_at_zero
            raise RangeError(f"gap value {delta!r} is at or beyond the supremum {span!r}")
        raise RangeError(f"gap value {delta!r} needs lam < {BRACKET_EPS:g}; outside bracketing range")
    if delta < gap(hi):
        return hi
    return _bisect(lambda lam: gap(lam) >= delta, lo, hi)


def _bisect(above: Callable[[float], bool], lo: float, hi: float) -> float:
    """The midpoint of [lo, hi] once bisected to ``BISECT_TOL``, each step moving ``lo``
    to the midpoint where the monotone test ``above`` holds and ``hi`` where it does not."""
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Max-divergence functional and purity detection


def max_divergence_functional(f: GeneratorFunction, x: DensityState) -> float:
    """Lower bound on M(X) = max over states D of H_f(X, D): the maximum over pure D.

    Only meaningful for generators with finite f'(0) (otherwise the maximum is
    +inf as soon as X is not full-rank).  H_f(X, .) restricted to pure states
    is linear in the overlap vector (p_k) = (|<u_k, v>|^2), a point of the
    probability simplex, so its maximum sits at a vertex: the largest value
    over the eigenvectors u_k of X.  (A pure second argument has spectrum
    {1, 0}, so the double sum collapses to that linear function.)  At
    v = u_j the value is term_img[j] - term_ker[j] + sum_k term_ker[k], with
    the terms below for the eigenvalues a_k of X.
    """
    if not f.finite_zero_slope:
        raise ParameterError(
            f"generator {f.name!r} has f'(0+) = -inf; M(X) is infinite off full rank"
        )
    a = x.w
    term_img = f.values(a) - f.slope(1.0) * (a - 1.0)  # weight on the image line
    term_ker = f.values(a) - f.slope_at_zero * a  # weight on the kernel of |v><v|
    return float(np.max(term_img - term_ker + np.sum(term_ker)))


def pure_reference_value(f: GeneratorFunction, dim: int) -> float:
    """M on a rank-one projection; the same for every pure state by unitary invariance."""
    basis_vector = np.zeros(dim, dtype=complex)
    basis_vector[0] = 1.0
    pure = RankOneProjection.from_vector(basis_vector).to_state()
    return max_divergence_functional(f, pure)


def is_pure_by_max(f: GeneratorFunction, x: DensityState, reference_pure_value: float) -> bool:
    """Purity test: X is pure iff M(X) attains the global maximum of M.

    ``reference_pure_value`` must come from ``pure_reference_value`` (or any
    rank-one projection) with the same generator and dimension.
    """
    value = max_divergence_functional(f, x)
    return abs(value - reference_pure_value) < PURE_MARGIN


# ---------------------------------------------------------------------------
# Probe sets and Wigner-type reconstruction


def probe_labels(dim: int) -> list[str]:
    """Labels of the canonical probe family, in order."""
    _check_probe_dim(dim)
    labels = [f"e{i}" for i in range(1, dim + 1)]
    labels += [f"e1+e{i}" for i in range(2, dim + 1)]
    labels.append("e1+i*e2")
    return labels


def _check_probe_dim(dim: int) -> None:
    if dim < 2:
        raise ParameterError(f"probe families need dim >= 2, got {dim}")


def wigner_probes(dim: int) -> list[RankOneProjection]:
    """The canonical probe family: basis lines, two-way superpositions, one i-probe.

    2*dim projections in total: |e_i> for i = 1..dim, (e_1 + e_i)/sqrt(2) for
    i = 2..dim, and (e_1 + i e_2)/sqrt(2).  The superposition probes pin the
    relative phases of the reconstructed columns; the i-probe decides unitary
    versus antiunitary.
    """
    _check_probe_dim(dim)
    eye = np.eye(dim, dtype=complex)
    vectors = np.concatenate([eye, eye[0] + eye[1:], (eye[0] + 1j * eye[1])[None]])
    vectors[dim:] /= math.sqrt(2.0)
    return [RankOneProjection(vector=row) for row in vectors]


def wigner_reconstruct(
    images: Sequence[RankOneProjection], *, tols: Tolerances = DEFAULT_TOLS
) -> tuple[SymmetryOp, float]:
    """Reconstruct the implementing unitary/antiunitary from probe images.

    ``images`` lists the images of ``wigner_probes(dim)`` in canonical order.
    Returns the operator and its probe residual: the largest entry by which
    the operator misses a probe image.  The images must keep every pairwise
    transition probability of the probes within ``WIGNER_TOL`` (Wigner's
    hypothesis), and the residual must stay within ``RECONSTRUCT_TOL``; either
    violation raises ``NotAPreserverError``.  Once the transitions hold, every
    phase anchor has modulus near 1/sqrt(2) and the i-probe image fits one
    orientation, so nothing else is checked.  The global phase is fixed so the
    first nonzero component of the image of e_1 is real and nonnegative.
    """
    images = list(images)
    if not images or len(images) % 2 != 0:
        raise ParameterError(f"expected 2*dim probe images, got {len(images)}")
    dim = len(images) // 2
    probes = wigner_probes(dim)
    for img in images:
        if img.dim != dim:
            raise DimensionMismatchError(
                f"probe image dimension {img.dim} does not match probe family dimension {dim}"
            )

    want, got = transition_table(probes), transition_table(images)
    offending = np.argwhere(np.triu(np.abs(want - got) > WIGNER_TOL, 1))
    if len(offending):
        labels = probe_labels(dim)
        a, b = offending[0]  # row-major: the first pair in (a, b > a) loop order
        raise NotAPreserverError(
            f"probe pair ({labels[a]}, {labels[b]}): image transition {got[a, b]:.9f} "
            f"differs from {want[a, b]:.9f} by {abs(want[a, b] - got[a, b]):.3e} > {WIGNER_TOL:.1e}"
        )

    columns = np.zeros((dim, dim), dtype=complex)
    psi1 = images[0].vector
    columns[:, 0] = psi1
    for i in range(1, dim):
        base = images[i].vector
        target = images[dim + i - 1].vector  # image of (e1 + e_{i+1})/sqrt(2)
        phase = np.vdot(base, target) / np.vdot(psi1, target)
        columns[:, i] = (phase / abs(phase)) * base

    izz = images[-1].vector  # image of (e1 + i e2)/sqrt(2)
    plus = (columns[:, 0] + 1j * columns[:, 1]) / math.sqrt(2.0)
    minus = (columns[:, 0] - 1j * columns[:, 1]) / math.sqrt(2.0)
    antiunitary = abs(np.vdot(minus, izz)) ** 2 > abs(np.vdot(plus, izz)) ** 2

    for k in range(dim):
        if abs(columns[k, 0]) > tols.tol_num:
            phase = columns[k, 0] / abs(columns[k, 0])
            columns = columns * np.conj(phase)
            break

    op = SymmetryOp(matrix=columns, antiunitary=bool(antiunitary))
    residual = _probe_residual(op, probes, images)
    if not residual <= RECONSTRUCT_TOL:  # a NaN residual fails too
        raise NotAPreserverError(
            f"reconstructed operator misses the probe images by {residual:.3e} > {RECONSTRUCT_TOL:.1e}"
        )
    return op, residual


def _probe_images(oracle: PreserverOracle, tols: Tolerances) -> list[RankOneProjection]:
    """The oracle's images of ``wigner_probes(oracle.dim)``, in order, as rank-one
    projections; the first image that is not rank-one raises ``ValidationError``."""
    return [oracle(probe.to_state()).as_rank_one(tols) for probe in wigner_probes(oracle.dim)]


def _probe_residual(
    op: SymmetryOp, probes: Sequence[RankOneProjection], images: Sequence[RankOneProjection]
) -> float:
    """Max-entry deviation between op-applied probes and the given images: the largest
    entry of |U phi><U phi| - |psi><psi| over the probes, one probe at a time."""
    deviations = []
    for probe, image in zip(probes, images, strict=True):
        mapped = op.apply_vector(probe.vector)
        mapped = mapped / float(np.linalg.norm(mapped))
        deviations.append(np.max(np.abs(np.outer(mapped, mapped.conj()) - image.matrix)))
    # np.max, not the builtin: max(0.0, nan) drops a NaN that must fail the fit.
    return float(np.max(deviations))


# ---------------------------------------------------------------------------
# Transition tables


def transition_table(family: Sequence[RankOneProjection]) -> np.ndarray:
    """The pairwise transition probabilities G[a, b] = tr(P_a P_b) of a projection family.

    G = |Phi* Phi|^2 for the family's vectors stacked into Phi: one matrix
    product; entries lie in [0, 1] and the diagonal is exactly 1.
    """
    if not family:
        raise ParameterError("a transition table needs at least one projection")
    dims = sorted({p.dim for p in family})
    if len(dims) > 1:
        raise DimensionMismatchError(f"projection dimensions differ: {dims}")
    phi = np.stack([p.vector for p in family], axis=1)
    inner = phi.conj().T @ phi
    gram = np.minimum(inner.real**2 + inner.imag**2, 1.0)
    np.fill_diagonal(gram, 1.0)
    return gram


def rank_two_mixture(
    lam: float,
    p: RankOneProjection,
    q: RankOneProjection,
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> DensityState:
    """The state lam P + (1 - lam) Q for orthogonal rank-one P, Q, lam in (0, 1/2).

    Built with its spectral decomposition attached directly, so no
    eigendecomposition runs (the spectrum is {1 - lam, lam, 0}, with lam exactly
    0 below ``eps_supp``, as ``from_matrix`` would decide it).
    """
    _check_lambda(lam)
    if transition_probability(p, q) >= tols.tol_num:
        raise ParameterError("mixture requires orthogonal projections")
    mixture = DensityState.from_orthonormal([1.0 - lam, lam], [q.vector, p.vector])
    return mixture._image(_decide_zeros(mixture.w, tols), lambda: mixture.matrix)


def _pair_divergences(f: GeneratorFunction, p: np.ndarray, kind: str, tols: Tolerances) -> np.ndarray:
    """Divergence values of pure pairs with transition probabilities ``p``, from closed forms.

    * Jensen: ``jensen_rank_one``.
    * Bregman, finite f'(0): (1 - p)(f'(1) - f'(0)), and 0 where that is
      below tol_num, as in ``bregman_rank_one_pair``.
    * Bregman, infinite f'(0): H_f(R, lam P + mu Q) = -f'(lam) p - f'(mu)(1 - p) + c
      with lam = PROBE_LAM, as in ``bregman_rank_one_vs_rank_two``, with Q the
      orthocomplement of P inside span(R, P), so that tr RP = p and tr RQ = 1 - p.
    """
    if kind == "jensen":
        return jensen_rank_one(f, p, tols=tols)
    if f.finite_zero_slope:
        values = (1.0 - p) * (f.slope(1.0) - f.slope_at_zero)
        return np.where(values < tols.tol_num, 0.0, values)
    lam = PROBE_LAM
    return -f.slope(lam) * p - f.slope(1.0 - lam) * (1.0 - p) + rank_two_offset(f, lam)


def probe_transitions_via_divergence(
    f: GeneratorFunction,
    family: Sequence[RankOneProjection],
    kind: str,
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Recover the pairwise transition table of a projection family from
    divergence values alone.

    The family's vectors are stacked into Phi and the Gram matrix
    G = |Phi* Phi|^2 is formed once.  Each unique pair (upper triangle) gets
    its divergence value from the closed form of its route, which is inverted
    with the matching ``transition_from_*`` function and mirrored into the
    lower triangle; no state, mixture or eigendecomposition is built.  Routes:
    Jensen values inverted by bisection, once per distinct value; rank-one
    Bregman values inverted linearly (finite f'(0)); for infinite f'(0) each
    pair (R, P) is probed against the rank-two mixture lam P + (1 - lam) Q,
    lam = ``PROBE_LAM``, with Q the orthocomplement of P inside span(R, P) --
    rank-one Bregman values are 0/inf there and carry no transition information.  A pair with
    1 - tr RP < tol_num has no such Q and is taken as transition 1.
    """
    if kind not in ("bregman", "jensen"):
        raise ParameterError(f"kind must be 'bregman' or 'jensen', got {kind!r}")
    rows, cols = np.triu_indices(len(family), 1)
    p = transition_table(family)[rows, cols]
    values = _pair_divergences(f, p, kind, tols)
    if kind == "jensen":
        t = transition_from_jensen(f, values, tols=tols)
    elif f.finite_zero_slope:
        t = transition_from_bregman(f, values, tols=tols)
    else:
        recovered = transition_from_bregman_rank_two(f, PROBE_LAM, values, tols=tols)
        t = np.where(1.0 - p < tols.tol_num, 1.0, recovered)
    table = np.eye(len(family))
    table[rows, cols] = table[cols, rows] = t
    return table


# ---------------------------------------------------------------------------
# Preserver verification harness


@dataclass(frozen=True)
class PreserverVerification:
    """Outcome of empirically testing a map against the preserver theorems.

    A genuine preserver shows (a) vanishing divergence deviation on sampled
    pairs, (b) rank-one probe images, (c) a reconstructible implementing
    operator, and (d) vanishing residual between the map and conjugation by
    that operator.  ``failed_stage`` names the first of these that fails.
    """

    kind: str
    generator: str
    oracle: str
    dim: int
    seed: int
    sample_size: int
    max_divergence_deviation: float
    probe_images_rank_one: bool
    symmetry: SymmetryOp | None
    reconstruction_error: str | None
    max_probe_residual: float
    max_state_residual: float
    divergence_tol: ClassVar[float] = DIVERGENCE_TOL
    wigner_tol: ClassVar[float] = WIGNER_TOL

    @property
    def divergence_preserved(self) -> bool:
        return self.max_divergence_deviation <= self.divergence_tol

    @property
    def reconstructed(self) -> bool:
        return self.symmetry is not None

    @property
    def antiunitary(self) -> bool | None:
        return None if self.symmetry is None else self.symmetry.antiunitary

    @property
    def failed_stage(self) -> str | None:
        """The first stage that failed, in the order ``verify_preserver`` runs
        them, or None; a NaN value fails its stage.

        ``"reconstruction"`` covers the Wigner pair gate and the probe
        residual; ``reconstruction_error`` says which.
        """
        stages = (
            ("divergence-deviation", self.divergence_preserved),
            ("probe-rank-one", self.probe_images_rank_one),
            ("reconstruction", self.reconstructed),
            ("state-residual", self.max_state_residual <= self.divergence_tol),
        )
        return next((name for name, ok in stages if not ok), None)

    @property
    def passed(self) -> bool:
        return self.failed_stage is None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "generator": self.generator,
            "oracle": self.oracle,
            "dim": self.dim,
            "seed": self.seed,
            "sample_size": self.sample_size,
            "divergence_tol": float(self.divergence_tol),
            "wigner_tol": float(self.wigner_tol),
            "max_divergence_deviation": float(self.max_divergence_deviation),
            "probe_images_rank_one": bool(self.probe_images_rank_one),
            "antiunitary": None if self.antiunitary is None else bool(self.antiunitary),
            "reconstruction_error": self.reconstruction_error,
            "max_probe_residual": float(self.max_probe_residual),
            "max_state_residual": float(self.max_state_residual),
            "divergence_preserved": bool(self.divergence_preserved),
            "failed_stage": self.failed_stage,
            "passed": bool(self.passed),
        }


def verify_preserver(
    f: GeneratorFunction,
    oracle: PreserverOracle,
    kind: str,
    sample_size: int = 20,
    seed: int = 0,
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> PreserverVerification:
    """Empirically instantiate the preserver theorems for a candidate map.

    Measures the worst divergence deviation |D(phi A, phi B) - D(A, B)| over
    seeded sampled pairs (full-rank and pure), checks that the probe images
    are pure, reconstructs the implementing operator from them, and measures
    how far the map is from conjugation by it.
    """
    if kind not in ("bregman", "jensen"):
        raise ParameterError(f"kind must be 'bregman' or 'jensen', got {kind!r}")
    if sample_size < 0:
        raise ParameterError(f"sample size must be >= 0, got {sample_size}")
    rng = rng_for(seed)
    dim = oracle.dim

    inputs = _random_states(2 * sample_size, dim, rng=rng, tols=tols)
    inputs.append(random_pure(dim, rng).to_state())
    inputs.append(random_pure(dim, rng).to_state())
    images = [oracle(state) for state in inputs]

    pair_indices = [(2 * k, 2 * k + 1) for k in range(sample_size)]
    pair_indices += [(len(inputs) - 2, len(inputs) - 1), (len(inputs) - 2, 0)]

    def divergences(states: list[DensityState]) -> list[float]:
        score = _bregman_pairs if kind == "bregman" else _jensen_pairs
        return score(f, [states[a] for a, _ in pair_indices], [states[b] for _, b in pair_indices], tols)

    before, after = np.array(divergences(inputs)), np.array(divergences(images))
    # Equal values, two infinities among them, deviate by 0; a NaN deviates by NaN,
    # which np.max keeps (the builtin max can drop it).
    deviations = np.abs(np.subtract(before, after, out=np.zeros(len(before)), where=before != after))
    max_div_dev = float(np.max(deviations))

    images_rank_one = True
    reconstruction_error: str | None = None
    try:
        probe_images = _probe_images(oracle, tols)
    except ValidationError as exc:
        images_rank_one = False
        reconstruction_error = f"probe image is not rank-one: {exc}"

    symmetry: SymmetryOp | None = None
    probe_residual = math.inf
    state_residual = math.inf

    if images_rank_one:
        try:
            symmetry, probe_residual = wigner_reconstruct(probe_images, tols=tols)
        except NotAPreserverError as exc:
            reconstruction_error = str(exc)
        if symmetry is not None:
            residual = symmetry._apply_in_place(np.array([state.matrix for state in inputs]))
            for r, image in zip(residual, images):
                r -= image.matrix
            state_residual = float(np.abs(residual).max())  # a NaN entry gives NaN

    return PreserverVerification(
        kind=kind,
        generator=f.name,
        oracle=oracle.label,
        dim=dim,
        seed=seed,
        sample_size=sample_size,
        max_divergence_deviation=max_div_dev,
        probe_images_rank_one=images_rank_one,
        symmetry=symmetry,
        reconstruction_error=reconstruction_error,
        max_probe_residual=probe_residual,
        max_state_residual=state_residual,
    )
