"""Generator functions for Bregman and Jensen divergences.

A generator is a differentiable strictly convex scalar function on (0, inf)
together with its declared limits at 0.  The limit of f' at 0 decides between
the finite-divergence regime (finite limit) and the regime where divergences
can be infinite (limit -inf); that dichotomy must be exact, so both limits are
declared fields, never probed numerically.  Whether a generator belongs to the
matrix entropy class (joint convexity of the induced Bregman divergence) is a
declared trust flag as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLS
from .errors import DomainError, ParameterError

__all__ = [
    "GeneratorFunction",
    "std_entropy",
    "power_generator",
    "quadratic",
    "parse_generator",
    "default_grid",
    "Violation",
    "GeneratorValidationReport",
    "validate",
]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class GeneratorFunction:
    """A strictly convex scalar function with derivative and zero limits.

    ``fn`` and ``dfn`` are defined on (0, inf) and must work on floats and
    elementwise on numpy arrays (``np.log``, not ``math.log``); ``values`` and
    ``slopes`` evaluate whole arrays.  ``value_at_zero`` and ``slope_at_zero``
    are the declared limits f(0+) and f'(0+), the latter possibly ``-inf``.

    Affine shifts change neither the Bregman nor the Jensen divergence, so a
    generator is shifted when it is built, to f(0) = f(1) = 0: the fields
    hold f(x) - f(0) - (f(1) - f(0)) x and its derivative.  A generator that
    already satisfies both keeps ``fn`` and ``dfn`` as given, so
    ``dataclasses.replace`` does not shift again.

    ``values(x)`` and ``f(x)`` can differ in the last bit: ``x**q`` is numpy's
    vectorised ``pow`` on arrays and libm ``pow`` on floats (for power
    generators a few percent of points on [0, 1] differ).  A route that must
    equal a float route bit for bit evaluates the scalar generator.
    """

    name: str
    fn: Callable[[float], float]
    dfn: Callable[[float], float]
    value_at_zero: float
    slope_at_zero: float
    matrix_entropy_member: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.value_at_zero):
            raise DomainError(f"generator {self.name!r} has no finite limit at 0; cannot normalize")
        beta = self.value_at_zero
        alpha = self.fn(1.0) - beta
        if beta == 0.0 and alpha == 0.0:
            return
        base_fn, base_dfn = self.fn, self.dfn
        object.__setattr__(self, "fn", lambda x: base_fn(x) - beta - alpha * x)
        object.__setattr__(self, "dfn", lambda x: base_dfn(x) - alpha)
        object.__setattr__(self, "value_at_zero", 0.0)
        if math.isfinite(self.slope_at_zero):
            object.__setattr__(self, "slope_at_zero", self.slope_at_zero - alpha)

    def __call__(self, x: float) -> float:
        """f(x), using the declared limit at x = 0."""
        if x == 0.0:
            return self.value_at_zero
        if x < 0.0:
            raise DomainError(f"generator {self.name!r} is only defined on [0, inf), got {x!r}")
        return float(self.fn(x))

    def slope(self, x: float) -> float:
        """f'(x), using the declared limit at x = 0."""
        if x == 0.0:
            return self.slope_at_zero
        if x < 0.0:
            raise DomainError(f"generator {self.name!r} is only defined on [0, inf), got {x!r}")
        return float(self.dfn(x))

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._on_array(self.fn, x, self.value_at_zero)

    def slopes(self, x: np.ndarray) -> np.ndarray:
        return self._on_array(self.dfn, x, self.slope_at_zero)

    def _on_array(self, fn: Callable, x: np.ndarray, at_zero: float) -> np.ndarray:
        """fn elementwise, with the declared limit at exactly 0."""
        x = np.asarray(x, dtype=float)
        if (x < 0.0).any():
            raise DomainError(f"generator {self.name!r} is only defined on [0, inf), got {float(x.min())!r}")
        positive = x > 0.0
        return np.where(positive, fn(np.where(positive, x, 1.0)), at_zero)

    @property
    def finite_zero_slope(self) -> bool:
        """True in the finite-derivative regime (divergences always finite)."""
        return math.isfinite(self.slope_at_zero)


def std_entropy() -> GeneratorFunction:
    """f(x) = x log x; f(0) = 0, f'(0+) = -inf.  Generates the Umegaki relative entropy."""
    return GeneratorFunction(
        name="xlogx",
        fn=lambda x: x * np.log(x),
        dfn=lambda x: np.log(x) + 1.0,
        value_at_zero=0.0,
        slope_at_zero=NEG_INF,
        matrix_entropy_member=True,
    )


def power_generator(q: float) -> GeneratorFunction:
    """f_q(x) = (x^q - x)/(q - 1) for q > 1; f'(0) = -1/(q - 1).

    Belongs to the matrix entropy class for q <= 2 (declared, not verified).
    """
    q = float(q)
    if not q > 1.0:
        raise ParameterError(f"power generator requires q > 1, got q = {q!r}")
    denom = q - 1.0
    name = "quadratic" if q == 2.0 else f"power(q={q:g})"
    return GeneratorFunction(
        name=name,
        fn=lambda x: (x**q - x) / denom,
        dfn=lambda x: (q * x ** (q - 1.0) - 1.0) / denom,
        value_at_zero=0.0,
        slope_at_zero=-1.0 / denom,
        matrix_entropy_member=q <= 2.0,
    )


def quadratic() -> GeneratorFunction:
    """f(x) = x^2 - x; the induced Bregman divergence is tr (A - B)^2."""
    return power_generator(2.0)


def parse_generator(spec: str) -> GeneratorFunction:
    """Parse a CLI generator name: ``xlogx``, ``quadratic``, ``power:q=<rational>``."""
    spec = spec.strip()
    if spec == "xlogx":
        return std_entropy()
    if spec == "quadratic":
        return quadratic()
    if spec.startswith("power:"):
        body = spec[len("power:"):]
        if not body.startswith("q="):
            raise ParameterError(f"malformed power generator spec {spec!r}; expected power:q=<rational>")
        try:
            q = float(Fraction(body[2:]))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParameterError(f"cannot parse q in {spec!r}: {exc}") from exc
        return power_generator(q)
    raise ParameterError(f"unknown generator spec {spec!r}")


def default_grid(n: int = 200, lo: float = 1e-6, hi: float = 1e2) -> np.ndarray:
    """Log-spaced validation grid covering the singular region and growth region."""
    return np.logspace(math.log10(lo), math.log10(hi), n)


@dataclass(frozen=True)
class Violation:
    kind: str
    location: float
    detail: str


@dataclass(frozen=True)
class GeneratorValidationReport:
    generator: str
    grid_size: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return f"{self.generator}: ok ({self.grid_size} grid points)"
        lines = [f"{self.generator}: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.kind}] at x = {v.location:.6g}: {v.detail}" for v in self.violations]
        return "\n".join(lines)


# Finite differences lose O(h^2 |f'''|) accuracy near the singularity at 0,
# so the derivative-consistency check runs on the tame part of the grid with
# a scale-aware tolerance; convexity and monotonicity use the full grid.
FD_TOL = 1e-6
FD_GRID_LO = 1e-2


def validate(f: GeneratorFunction, grid: Sequence[float] | None = None) -> GeneratorValidationReport:
    """Numerically audit a generator's declared hypotheses.

    Checks strict convexity (midpoint rule) and strict monotonicity of the
    derivative on the grid, consistency of ``dfn`` with centered finite
    differences of ``fn``, and -- for finite declared f'(0+) -- that the
    derivative approaches the declared limit monotonically from above.
    Violations are reported, never raised.
    """
    xs = np.asarray(default_grid() if grid is None else grid, dtype=float)
    if xs.size == 0 or np.any(xs <= 0) or np.any(np.diff(xs) <= 0):
        raise ParameterError("validation grid must be nonempty, positive and increasing")
    violations: list[Violation] = []

    fx = np.array([f(x) for x in xs])
    dfx = np.array([f.slope(x) for x in xs])

    for k in range(len(xs) - 1):
        a, b = xs[k], xs[k + 1]
        mid = 0.5 * (a + b)
        gap = 0.5 * (fx[k] + fx[k + 1]) - f(mid)
        if gap <= -DEFAULT_TOLS.tol_num:
            violations.append(
                Violation("convexity", mid, f"midpoint gap {gap:.3e} violates convexity")
            )
        if dfx[k + 1] - dfx[k] <= -DEFAULT_TOLS.tol_num:
            violations.append(
                Violation(
                    "derivative-monotonicity",
                    b,
                    f"f'({b:.6g}) = {dfx[k + 1]:.6g} not above f'({a:.6g}) = {dfx[k]:.6g}",
                )
            )

    for x in xs[xs >= FD_GRID_LO]:
        h = 1e-6 * max(1.0, x)
        fd = (f(x + h) - f(x - h)) / (2.0 * h)
        slope = f.slope(x)
        if abs(fd - slope) > FD_TOL * max(1.0, abs(slope), abs(fd)):
            violations.append(
                Violation(
                    "derivative-mismatch",
                    float(x),
                    f"finite difference {fd:.9g} vs declared derivative {slope:.9g}",
                )
            )

    if f.finite_zero_slope:
        head = dfx[: min(8, len(dfx))]
        gaps = head - f.slope_at_zero
        if gaps[0] < -DEFAULT_TOLS.tol_num:
            violations.append(
                Violation(
                    "zero-slope-class",
                    float(xs[0]),
                    f"f'({xs[0]:.3g}) = {head[0]:.6g} is below the declared limit {f.slope_at_zero:.6g}",
                )
            )
        if np.any(np.diff(gaps) < -DEFAULT_TOLS.tol_num):
            violations.append(
                Violation(
                    "zero-slope-class",
                    float(xs[0]),
                    "derivative does not approach the declared zero limit monotonically",
                )
            )

    return GeneratorValidationReport(
        generator=f.name, grid_size=int(xs.size), violations=tuple(violations)
    )
