"""Jensen divergence engine.

J_f(A, B) = tr( (f(A) + f(B))/2 - f((A + B)/2) ).  Always finite, since every
generator is built with f(0) = 0 -- the zero-derivative class is never
consulted -- and symmetric by construction.  The maximum over state pairs is
M_f = -2 f(1/2), attained exactly at orthogonal pure state pairs.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import ParameterError
from .generators import GeneratorFunction
from .hermitian import DensityState, hermitian_part
from .bregman import _check_dims, _clamp_nonneg, bregman

__all__ = [
    "jensen",
    "jensen_rank_one",
    "jensen_max_constant",
    "jensen_via_bregman",
    "midpoint_state",
]


def _midpoint_matrix(a: DensityState, b: DensityState) -> np.ndarray:
    """(A + B)/2 of A and B with their zeros decided."""
    _check_dims(a, b)
    return (a.reconstruct() + b.reconstruct()) / 2.0


def midpoint_state(a: DensityState, b: DensityState) -> DensityState:
    """The state (A + B)/2, built as in :func:`jensen`.

    The midpoint is an intermediate: its eigenvalues are clipped at 0, not
    snapped at eps_supp, so an eigenvalue that holds half of a small
    eigenvalue of A or B keeps A and B inside its support.
    """
    matrix = hermitian_part(_midpoint_matrix(a, b))
    w, v = np.linalg.eigh(matrix)
    w = np.maximum(w[::-1], 0.0)
    return DensityState(w, np.ascontiguousarray(v[:, ::-1]), matrix=matrix)


def jensen(
    f: GeneratorFunction,
    a: DensityState,
    b: DensityState,
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Jensen f-divergence J_f(A, B), with tr f(S) summed over the eigenvalues of S.

    A and B enter with their zeros decided; the eigenvalues of their midpoint
    are not snapped at eps_supp (only clipped at 0), so J_f >= 0 holds exactly.
    When A and B share one eigenvector array the midpoint spectrum is
    (w_A + w_B)/2, so J_f(A, A) is exactly 0.
    """
    return _jensen_pairs(f, [a], [b], tols)[0]


def _jensen_pairs(
    f: GeneratorFunction, xs: Sequence[DensityState], ys: Sequence[DensityState], tols: Tolerances
) -> list[float]:
    """J_f(xs[k], ys[k]) for every k, as in :func:`jensen`, its one-pair case.

    The states share one dimension.  Midpoint matrices are built per pair
    and go through one stacked ``eigvalsh``; the generator is evaluated
    once on the stack of all spectra.
    """
    for x, y in zip(xs, ys):
        _check_dims(x, y)
    wx = np.array([x.w for x in xs])
    wy = np.array([y.w for y in ys])
    mid = (wx + wy) / 2.0
    apart = [k for k, (x, y) in enumerate(zip(xs, ys)) if x.v is not y.v]
    if apart:
        midpoints = np.array([_midpoint_matrix(xs[k], ys[k]) for k in apart])
        mid[apart] = np.maximum(np.linalg.eigvalsh(midpoints), 0.0)
    fx, fy, fm = f.values(np.array([wx, wy, mid])).sum(axis=2)
    return [_clamp_nonneg(value, tols.tol_num) for value in (0.5 * (fx + fy) - fm).tolist()]


def jensen_rank_one(
    f: GeneratorFunction, p: "float | np.ndarray", *, tols: Tolerances = DEFAULT_TOLS
) -> "float | np.ndarray":
    """Closed form for pure states: J_f(P, Q) = -( f((1+sqrt(p))/2) + f((1-sqrt(p))/2) )

    with p = tr PQ.  Strictly decreasing in p, from M_f at p = 0 down to 0 at
    p = 1.  ``p`` may be an array of values; the result is then an array too,
    each entry the float call on it (``_per_distinct``).
    """
    low, high = -tols.tol_num, 1.0 + tols.tol_num

    def value(x: float) -> float:
        if not low <= x <= high:
            raise ParameterError(f"transition probability must lie in [0, 1], got {x!r}")
        return _rank_one_value(f, min(max(x, 0.0), 1.0))

    return _per_distinct(value, np.asarray(p, dtype=float))


def _rank_one_value(f: GeneratorFunction, p: float) -> float:
    """``jensen_rank_one`` for a float p in [0, 1], unchecked.

    It calls the scalar generator, not ``f.values``: numpy's and libm's ``pow`` can differ in the last bit.
    """
    root = math.sqrt(p)
    return -(f(0.5 * (1.0 + root)) + f(0.5 * (1.0 - root)))


def _per_distinct(fn: Callable[[float], float], x: np.ndarray) -> "float | np.ndarray":
    """``fn`` of each entry of the float array ``x`` (a float for a 0-d ``x``), run once per
    distinct value in order of first occurrence, on the entry as a Python float: each entry
    equals the float call on it bit for bit, and an error names the first bad entry."""
    if x.ndim == 0:
        return fn(x.item())
    entries = x.ravel().tolist()
    found = {entry: fn(entry) for entry in dict.fromkeys(entries)}
    return np.array([found[entry] for entry in entries]).reshape(x.shape)


def jensen_max_constant(f: GeneratorFunction) -> float:
    """M_f = -2 f(1/2): the global maximum of J_f over state pairs."""
    return -2.0 * f(0.5)


def jensen_via_bregman(
    f: GeneratorFunction,
    a: DensityState,
    b: DensityState,
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """J_f(A, B) = ( H_f(A, (A+B)/2) + H_f(B, (A+B)/2) ) / 2.

    Both supports are contained in the midpoint support, so the Bregman calls
    are finite regardless of the generator's zero-derivative class.
    """
    mid = midpoint_state(a, b)
    left = bregman(f, a, mid, tols=tols)
    right = bregman(f, b, mid, tols=tols)
    return 0.5 * (left + right)
