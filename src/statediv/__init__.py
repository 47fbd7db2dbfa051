"""Bregman and Jensen divergences on density matrices, with exact
finite/infinite semantics and a divergence-preserver reconstruction engine."""

from .config import DEFAULT_TOLS, Tolerances, tolerances_from_env
from .errors import (
    DimensionMismatchError,
    DomainError,
    FileFormatError,
    NotAPreserverError,
    OracleError,
    ParameterError,
    RangeError,
    StateDivError,
    ValidationError,
)
from .hermitian import (
    DensityState,
    RankOneProjection,
    apply_function,
    density_state,
    hermitian_part,
    trace_on_support,
    transition_probability,
    validate_hermitian,
)
from .generators import (
    GeneratorFunction,
    GeneratorValidationReport,
    parse_generator,
    power_generator,
    quadratic,
    std_entropy,
    validate,
)
from .bregman import (
    bregman,
    bregman_rank_one_pair,
    bregman_rank_one_vs_rank_two,
    bregman_trace_form,
    rank_two_offset,
    support_contained,
)
from .jensen import (
    jensen,
    jensen_max_constant,
    jensen_rank_one,
    jensen_via_bregman,
    midpoint_state,
)
from .preserver import (
    PreserverOracle,
    PreserverVerification,
    SymmetryOp,
    conjugation_oracle,
    depolarizing_oracle,
    diagonal_oracle,
    is_pure_by_max,
    max_divergence_functional,
    probe_labels,
    probe_transitions_via_divergence,
    pure_reference_value,
    rank_two_mixture,
    recover_rank_two_spectrum,
    transition_from_bregman,
    transition_from_bregman_rank_two,
    transition_from_jensen,
    transition_table,
    transpose_oracle,
    verify_preserver,
    wigner_probes,
    wigner_reconstruct,
)
from .sampling import haar_unitary, random_pure, random_simplex_point, random_state, rng_for
from .suites import CheckResult, RunReport, run_suite

__version__ = "0.1.0"
