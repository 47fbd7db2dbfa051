"""Numerical tolerance configuration.

The finite/infinite divergence dichotomy is discontinuous in the eigenvalues,
so the zero decision is a single documented knob (``eps_supp``), kept separate
from the degeneracy width (``cluster_tol``) that the pure-state test reads.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .errors import ParameterError

ENV_PREFIX = "STATEDIV_"


@dataclass(frozen=True)
class Tolerances:
    """Tolerances used by matrix validation and divergence computation.

    tol_herm    -- admissible deviation from M = M* (inputs are symmetrized
                   below this, rejected above)
    tol_psd     -- admissible negative eigenvalue magnitude for states
    tol_trace   -- admissible deviation of a state's trace from 1
    tol_num     -- generic comparison tolerance (projections, clamping, ...)
    eps_supp    -- eigenvalues below this count as exactly 0 for support
    cluster_tol -- a state is pure only if no other eigenvalue of its leading
                   eigenvalue's sign lies less than this below it

    Each must be finite and >= 0, and ``eps_supp`` > 0 (``ParameterError``
    otherwise): at 0 every rounding leak would count as leaving a support.
    """

    tol_herm: float = 1e-9
    tol_psd: float = 1e-9
    tol_trace: float = 1e-9
    tol_num: float = 1e-9
    eps_supp: float = 1e-10
    cluster_tol: float = 1e-8

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value, strict = getattr(self, field.name), field.name == "eps_supp"
            if not (math.isfinite(value) and (value > 0.0 if strict else value >= 0.0)):
                raise ParameterError(f"tolerance {field.name} must be finite and {'>' if strict else '>='} 0, got {value!r}")

    def replace(self, **kwargs: float) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


DEFAULT_TOLS = Tolerances()


def tolerances_from_env() -> Tolerances:
    """Build tolerances from STATEDIV_* environment variables.

    Recognized names: STATEDIV_TOL_HERM, STATEDIV_TOL_PSD, STATEDIV_TOL_TRACE,
    STATEDIV_TOL_NUM, STATEDIV_EPS_SUPP, STATEDIV_CLUSTER_TOL.  Unset names
    fall back to the defaults; explicit --tol-* CLI flags take precedence over
    the environment.  A value that is not a number raises ``ParameterError``
    naming its variable.
    """
    overrides: dict[str, float] = {}
    for field in dataclasses.fields(Tolerances):
        name = ENV_PREFIX + field.name.upper()
        raw = os.environ.get(name)
        if raw is not None:
            try:
                overrides[field.name] = float(raw)
            except ValueError:
                raise ParameterError(f"{name} is not a number: {raw!r}") from None
    return Tolerances(**overrides)
