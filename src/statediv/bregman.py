"""Bregman divergence engine with exact extended-value semantics.

The divergence H_f(X, Y) = tr(f(X) - f(Y) - f'(Y)(X - Y)) extends from
positive definite to positive semidefinite arguments by continuity.  The
extension is *not* computed by numerical limiting -- limits are treacherous
near the infinite branch -- but by the closed computation rules:

* f'(0+) = -inf:  H_f = +inf unless supp X is contained in supp Y, in which
  case the spectral double sum runs over the nonzero spectrum of Y.
* f'(0+) finite:  the full double sum, with the declared f'(0) on the kernel.

Values are plain floats; ``math.inf`` is the infinite branch.  Tiny negative
results (rounding noise on a nonnegative quantity) are clamped to 0.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import DimensionMismatchError, ParameterError, ValidationError
from .generators import GeneratorFunction
from .hermitian import (
    DensityState,
    RankOneProjection,
    _assemble,
    _function_values,
    _stack,
    hermitian_part,
    transition_probability,
)

__all__ = [
    "support_contained",
    "bregman",
    "bregman_trace_form",
    "bregman_rank_one_pair",
    "rank_two_offset",
    "bregman_rank_one_vs_rank_two",
]

INF = math.inf


def _clamp_nonneg(value: float, tol_num: float) -> float:
    value = float(value)
    if value < 0.0:
        if value < -tol_num:
            raise ValidationError(
                f"divergence evaluated to {value!r}; negative beyond -{tol_num:.1e} "
                "indicates invalid inputs"
            )
        return 0.0
    return value


def _check_dims(x: DensityState, y: DensityState) -> None:
    if x.dim != y.dim:
        raise DimensionMismatchError(f"state dimensions differ: {x.dim} vs {y.dim}")


def support_contained(x: DensityState, y: DensityState, *, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """Whether supp X is contained in supp Y, via tr((I - supp_Y) X) < eps_supp.

    X enters with its zeros decided and the leak is read from the kernel
    eigenvectors of Y: exactly the trace weight the kernel of Y carries in the
    spectral double sum, so a state always contains its own support.
    """
    _check_dims(x, y)
    inner = x.v.conj().T @ y.v[:, y.rank :]  # states keep their zeros last
    return float(x.w @ (inner.real**2 + inner.imag**2).sum(axis=1)) < tols.eps_supp


def bregman(
    f: GeneratorFunction,
    x: DensityState,
    y: DensityState,
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Bregman f-divergence H_f(X, Y); ``math.inf`` on the infinite branch.

    The double sum of (f(a) - f(b) - f'(b)(a - b)) |<v_a, u_b>|^2 over
    eigenvalue pairs is one array expression; the infinite class leaves out
    the kernel of Y.  Pairs whose overlap |<v_a, u_b>| is below ``tol_num``
    are skipped: orthogonal eigenvectors come out with overlaps of rounding
    size, and skipping them makes H_f(X, X) exactly 0.
    """
    return _bregman_pairs(f, [x], [y], tols)[0]


def _bregman_pairs(
    f: GeneratorFunction, xs: Sequence[DensityState], ys: Sequence[DensityState], tols: Tolerances
) -> list[float]:
    """H_f(xs[k], ys[k]) for every k, as in :func:`bregman`, its one-pair case.

    Pairs are grouped by the number n of Y's eigenvalues their double sum
    keeps (d, or rank Y in the infinite class); each group is one stack, so
    each pair's sum has the shape, and the bits, of a one-pair call.
    """
    groups: dict[int, list[int]] = {}
    for k, (x, y) in enumerate(zip(xs, ys)):
        _check_dims(x, y)
        groups.setdefault(y.dim if f.finite_zero_slope else y.rank, []).append(k)
    values = [INF] * len(ys)
    for n, ks in groups.items():
        sums = _double_sums(f, [xs[k] for k in ks], [ys[k] for k in ks], n, tols)
        for k, value in zip(ks, sums.tolist()):
            values[k] = _clamp_nonneg(value, tols.tol_num)
    return values


def _double_sums(
    f: GeneratorFunction, xs: Sequence[DensityState], ys: Sequence[DensityState], n: int, tols: Tolerances
) -> np.ndarray:
    """The double sums over the first n eigenvalues of each Y; ``inf`` where X leaks
    into the kernel of Y (n < d, the infinite class).

    The overlaps are one d x d product per pair; the rest is stacked.
    """
    inner = np.array([x.v.conj().T @ y.v for x, y in zip(xs, ys)])
    weights = inner.real**2 + inner.imag**2
    leaks = None
    if n < weights.shape[2]:  # as in support_contained
        kernel = weights[:, :, n:].sum(axis=2)
        leaks = [x.w @ k >= tols.eps_supp for x, k in zip(xs, kernel)]
        if all(leaks):
            return np.full(len(xs), INF)
    w = np.array([[x.w for x in xs], [y.w for y in ys]])
    fx, fy = f.values(w)
    a, b, kept = w[0, :, :, None], w[1, :, None, :n], weights[:, :, :n]
    terms = (fx[:, :, None] - fy[:, None, :n] - f.slopes(b) * (a - b)) * kept
    sums = terms.sum(axis=(1, 2), where=kept >= tols.tol_num**2)
    if leaks is not None:
        sums[leaks] = INF
    return sums


def bregman_trace_form(
    f: GeneratorFunction,
    x: DensityState,
    y: DensityState,
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """H_f via operator functions and a support-restricted trace.

    Independent route to the same value as :func:`bregman`: assembles
    f(X) - f(Y) - f'(Y)(X - Y) as matrices, with X and Y taken with their
    zeros decided, and takes the trace on supp Y (the full trace in the
    finite-derivative regime).  Kept public because the two routes
    cross-check each other.  The one-pair case of ``_trace_form_pairs``.
    """
    return _trace_form_pairs(f, [x], [y], tols)[0]


def _trace_form_pairs(
    f: GeneratorFunction, xs: Sequence[DensityState], ys: Sequence[DensityState], tols: Tolerances
) -> list[float]:
    """``bregman_trace_form`` of each pair, its one-pair case.

    Pairs are grouped, as in ``_bregman_pairs``, by the number n of Y's
    eigenvalues f' is taken on (d, or rank Y in the infinite class); each
    group's support test, operator functions, products and traces are one
    stack each, so each pair has the shapes, and the bits, of a one-pair
    call.  In the infinite class a pair whose X leaks out of supp Y is
    ``inf`` and evaluates no function.  A non-finite f value raises
    ``DomainError`` for the first pair of its group that has one.
    """
    finite = f.finite_zero_slope
    groups: dict[int, list[int]] = {}
    for k, (x, y) in enumerate(zip(xs, ys)):
        _check_dims(x, y)
        groups.setdefault(y.dim if finite else y.rank, []).append(k)
    values = [INF] * len(ys)
    for n, ks in groups.items():
        xv, yv = (_stack([states[k].v for k in ks]) for states in (xs, ys))
        w = np.array([(xs[k].w, ys[k].w) for k in ks])
        if not finite:  # as in support_contained
            inner = xv.conj().swapaxes(1, 2) @ yv[:, :, n:]
            leaks = w[:, None, 0] @ (inner.real**2 + inner.imag**2).sum(axis=2)[:, :, None]
            kept = (leaks[:, 0, 0] < tols.eps_supp).tolist()
            if not all(kept):
                ks = [k for k, keep in zip(ks, kept) if keep]
                if not ks:
                    continue
                xv, yv, w = xv[kept], yv[kept], w[kept]
        fw = _function_values(f.values, w)
        on = yv[:, :, :n]  # the eigenvectors f' is taken on
        dfy = _assemble(on, f.slopes(w[:, 1, :n]))
        expr = _assemble(xv, fw[:, 0]) - _assemble(yv, fw[:, 1])
        expr -= dfy @ (_assemble(xv, w[:, 0]) - _assemble(yv, w[:, 1]))
        if not finite:
            support = hermitian_part(on @ on.conj().swapaxes(1, 2))
            expr = support @ expr @ support
        for k, value in zip(ks, np.trace(expr, axis1=1, axis2=2).real.tolist()):
            values[k] = _clamp_nonneg(value, tols.tol_num)
    return values


def bregman_rank_one_pair(
    f: GeneratorFunction,
    p: RankOneProjection,
    q: RankOneProjection,
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Closed form for two pure states: (1 - tr PQ) (f'(1) - f'(0)).

    In the infinite-derivative regime distinct rank-one supports are never
    nested, so the value is 0 for P = Q and +inf otherwise.
    """
    overlap = transition_probability(p, q)
    if 1.0 - overlap < tols.tol_num:
        return 0.0
    if not f.finite_zero_slope:
        return INF
    return _clamp_nonneg((1.0 - overlap) * (f.slope(1.0) - f.slope_at_zero), tols.tol_num)


def rank_two_offset(f: GeneratorFunction, lam: float) -> float:
    """The constant c = lam f'(lam) - f(lam) + mu f'(mu) - f(mu), mu = 1 - lam."""
    _check_lambda(lam)
    mu = 1.0 - lam
    return lam * f.slope(lam) - f(lam) + mu * f.slope(mu) - f(mu)


def _check_lambda(lam: float) -> None:
    if not 0.0 < lam < 0.5:
        raise ParameterError(f"rank-two weight must lie in (0, 1/2), got {lam!r}")


def bregman_rank_one_vs_rank_two(
    f: GeneratorFunction,
    r: RankOneProjection,
    lam: float,
    p: RankOneProjection,
    q: RankOneProjection,
    *,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Closed form for H_f(R, lam P + mu Q) with P orthogonal to Q, mu = 1 - lam.

    Requires supp R inside span(P, Q): outside it the value is +inf in the
    infinite-derivative regime and the closed form simply does not apply in
    the finite one.
    """
    _check_lambda(lam)
    if transition_probability(p, q) >= tols.tol_num:
        raise ParameterError("reference projections P and Q must be orthogonal")
    tr_rp = transition_probability(r, p)
    tr_rq = transition_probability(r, q)
    leak = 1.0 - tr_rp - tr_rq
    if leak > tols.eps_supp:
        if not f.finite_zero_slope:
            return INF
        raise ParameterError(
            f"R leaks {leak:.3e} outside span(P, Q); the rank-two closed form does not apply"
        )
    mu = 1.0 - lam
    value = -f.slope(lam) * tr_rp - f.slope(mu) * tr_rq + rank_two_offset(f, lam)
    return _clamp_nonneg(value, tols.tol_num)
