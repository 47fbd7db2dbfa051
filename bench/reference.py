"""Independent references the benchmark checks statediv's outputs against.

Everything here is plain numpy on raw ``eigh`` output: no clustering, no
statediv code.  ``EPS_SUPP`` alone decides which eigenvalues are zero, as the
README promises, so the infinite branch is decided by this module's own
support test.  References are computed outside the timed region and outside
``setup_s``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EPS_SUPP = 1e-10  # statediv's documented default support threshold
VALUE_TOL = 1e-8  # the README's operator-log cross-check tolerance
INF = math.inf


class Generator:
    """A normalized generator f with f(0) = f(1) = 0, on numpy arrays."""

    def __init__(self, spec: str):
        self.spec = spec
        if spec == "xlogx":
            self.q = None
            self.slope_at_zero = -INF
        elif spec == "quadratic" or spec.startswith("power:q="):
            self.q = 2.0 if spec == "quadratic" else float(Fraction(spec[len("power:q="):]))
            self.slope_at_zero = -1.0 / (self.q - 1.0)
        else:
            raise ValueError(f"no reference for generator {spec!r}")

    @property
    def infinite_class(self) -> bool:
        return self.q is None

    def f(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.q is None:
            safe = np.where(x > 0.0, x, 1.0)
            return np.where(x > 0.0, x * np.log(safe), 0.0)
        return (x**self.q - x) / (self.q - 1.0)

    def df(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.q is None:
            safe = np.where(x > 0.0, x, 1.0)
            return np.where(x > 0.0, np.log(safe) + 1.0, -INF)
        return (self.q * x ** (self.q - 1.0) - 1.0) / (self.q - 1.0)


def spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh with eigenvalues below EPS_SUPP set to exactly 0."""
    w, v = np.linalg.eigh(matrix)
    return np.where(w < EPS_SUPP, 0.0, w), v


def bregman(spec: str, x: np.ndarray, y: np.ndarray) -> float:
    """H_f(X, Y) = tr f(X) - tr_S[f(Y) + f'(Y)(X - Y)], S = supp Y or everything.

    For xlogx this is tr X (log X - log Y) on supp Y, and +inf when X leaks
    EPS_SUPP or more trace weight outside supp Y.  For quadratic it is the
    closed form tr (X - Y)^2.
    """
    if spec == "quadratic":
        diff = x - y
        return float(np.einsum("ij,ji->", diff, diff).real)
    gen = Generator(spec)
    wx, _ = spectrum(x)
    wy, vy = spectrum(y)
    # diagonal of X in the eigenbasis of Y
    xdiag = np.einsum("ij,ik,kj->j", vy.conj(), x, vy).real
    keep = wy > 0.0 if gen.infinite_class else np.ones_like(wy, dtype=bool)
    if gen.infinite_class and float(np.sum(xdiag[~keep])) >= EPS_SUPP:
        return INF
    b = wy[keep]
    value = float(np.sum(gen.f(wx)) - np.sum(gen.f(b) + gen.df(b) * (xdiag[keep] - b)))
    return max(value, 0.0)


def jensen(spec: str, a: np.ndarray, b: np.ndarray) -> float:
    """J_f(A, B) = tr((f(A) + f(B))/2 - f((A + B)/2)); tr (A - B)^2 / 4 for quadratic."""
    if spec == "quadratic":
        diff = a - b
        return float(np.einsum("ij,ji->", diff, diff).real) / 4.0
    gen = Generator(spec)
    wa, _ = spectrum(a)
    wb, _ = spectrum(b)
    wm, _ = spectrum((a + b) / 2.0)
    value = float(0.5 * (np.sum(gen.f(wa)) + np.sum(gen.f(wb))) - np.sum(gen.f(wm)))
    return max(value, 0.0)


def rank_one_bregman(spec: str, p: float) -> float:
    """Pure-state closed form (1 - p)(f'(1) - f'(0)), finite f'(0) only."""
    gen = Generator(spec)
    return (1.0 - p) * (float(gen.df(1.0)) - gen.slope_at_zero)


def rank_one_jensen(spec: str, p: float) -> float:
    """Pure-state closed form -(f((1 + sqrt p)/2) + f((1 - sqrt p)/2))."""
    gen = Generator(spec)
    root = math.sqrt(p)
    return -float(gen.f(0.5 * (1.0 + root)) + gen.f(0.5 * (1.0 - root)))


def rank_two_bregman(spec: str, lam: float, t: float) -> float:
    """H_f(R, lam P + (1 - lam) Q) for R in span(P, Q) with tr RP = t."""
    gen = Generator(spec)
    mu = 1.0 - lam
    offset = float(lam * gen.df(lam) - gen.f(lam) + mu * gen.df(mu) - gen.f(mu))
    return float(-gen.df(lam) * t - gen.df(mu) * (1.0 - t)) + offset


def rank_two_gap(spec: str, lam: float) -> float:
    """The spectral gap f'(1 - lam) - f'(lam) that determines lam."""
    gen = Generator(spec)
    return float(gen.df(1.0 - lam) - gen.df(lam))


def pure_max(spec: str) -> float:
    """max_D H_f(P, D) for pure P: f'(1) - f'(0), attained at orthogonal pure D."""
    gen = Generator(spec)
    return float(gen.df(1.0)) - gen.slope_at_zero


def close(value: float, ref: float, tol: float = VALUE_TOL) -> bool:
    """Same branch (finite or +inf) and, when finite, within tol * max(1, |ref|)."""
    if math.isinf(ref) or math.isinf(value):
        return math.isinf(ref) and math.isinf(value)
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary from the benchmark's own generator (QR with phase fix)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def state(spectrum_values: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """V diag(w) V*, exactly Hermitian."""
    m = (basis * spectrum_values) @ basis.conj().T
    return (m + m.conj().T) / 2.0


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-8) -> bool:
    """u = e^{i theta} v for some theta (an operator is fixed only up to phase)."""
    k = np.unravel_index(int(np.argmax(np.abs(v))), v.shape)
    if abs(v[k]) < tol:
        return False
    phase = u[k] / v[k]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return float(np.max(np.abs(u - phase * v))) <= tol
