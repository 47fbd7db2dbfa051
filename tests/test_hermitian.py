import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from statediv import hermitian
from statediv import (
    DEFAULT_TOLS,
    DensityState,
    DimensionMismatchError,
    DomainError,
    RankOneProjection,
    ValidationError,
    apply_function,
    bregman,
    bregman_trace_form,
    density_state,
    haar_unitary,
    rng_for,
    std_entropy,
    trace_on_support,
    transition_probability,
)
from conftest import random_hermitian


def _line(vector: np.ndarray) -> np.ndarray:
    """|v><v|."""
    return np.outer(vector, vector.conj())


def _random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A full-rank density matrix M M* / tr(M M*) from a random Hermitian M."""
    matrix = random_hermitian(dim, rng)
    matrix = matrix @ matrix.conj().T
    return matrix / np.trace(matrix).real


class TestFromMatrix:
    def test_diagonal_two_level(self):
        state = density_state(np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(state.w, [1.0, 0.0])
        np.testing.assert_allclose(_line(state.v[:, 0]), np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(_line(state.v[:, 1]), np.diag([0.0, 1.0]), atol=1e-14)

    def test_symmetric_half_matrix(self):
        # Hand eigendecomposition: eigenvalues 1 and 0 with eigenvectors
        # (1, 1)/sqrt(2) and (1, -1)/sqrt(2).
        state = density_state(np.array([[0.5, 0.5], [0.5, 0.5]]))
        p_plus = np.full((2, 2), 0.5)
        p_minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert state.w[0] == pytest.approx(1.0)
        assert state.w[1] == 0.0
        np.testing.assert_allclose(_line(state.v[:, 0]), p_plus, atol=1e-12)
        np.testing.assert_allclose(_line(state.v[:, 1]), p_minus, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_roundtrip_random(self, dim):
        rng = rng_for(100 + dim)
        for _ in range(10):
            matrix = _random_density(dim, rng)
            np.testing.assert_allclose(density_state(matrix).reconstruct(), matrix, atol=dim * 1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_projection_family_structure(self, dim):
        state = density_state(_random_density(dim, rng_for(200 + dim)))
        lines = [_line(state.v[:, a]) for a in range(dim)]
        for a, p in enumerate(lines):
            np.testing.assert_allclose(p @ p, p, atol=1e-9)
            for b, q in enumerate(lines):
                if a != b:
                    np.testing.assert_allclose(p @ q, 0.0, atol=1e-9)
        np.testing.assert_allclose(sum(lines), np.eye(dim), atol=1e-9)
        assert state.w.shape == (dim,)
        assert np.all(np.diff(state.w) <= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            density_state(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            density_state(np.ones((2, 3)))


class TestZerosBeforeClustering:
    """eps_supp alone decides the zeros."""

    def test_near_zero_eigenvalue_keeps_its_kernel(self):
        y = density_state(np.diag([1.0 - 5e-9, 5e-9, 0.0]))
        assert y.rank == 2
        kernel_line = density_state(np.diag([0.0, 0.0, 1.0]))
        assert bregman(std_entropy(), kernel_line, y) == math.inf
        assert bregman_trace_form(std_entropy(), kernel_line, y) == math.inf


class TestApplyFunction:
    def test_identity_function(self):
        matrix = _random_density(4, rng_for(5))
        np.testing.assert_allclose(apply_function(density_state(matrix), lambda x: x), matrix, atol=1e-12)

    def test_square_on_diagonal(self):
        state = density_state(np.diag([0.25, 0.75]))
        expected = np.diag([0.0625, 0.5625])
        np.testing.assert_allclose(apply_function(state, lambda x: x**2), expected, atol=1e-15)

    def test_xlogx_on_half_projection(self):
        # f(1) = 0 and the declared limit f(0) = 0, so f(A) vanishes.
        state = density_state(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(apply_function(state, std_entropy().values), np.zeros((2, 2)), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_basis_covariance(self, dim):
        rng = rng_for(50 + dim)
        weights = rng.uniform(0.5, 2.0, size=dim)
        diagonal = np.diag(weights / weights.sum())
        basis = haar_unitary(dim, rng)
        rotated = basis @ diagonal @ basis.conj().T
        fn = lambda x: x**3 - 2 * x
        lhs = apply_function(density_state((rotated + rotated.conj().T) / 2), fn)
        rhs = basis @ apply_function(density_state(diagonal), fn) @ basis.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_domain_error_on_nonfinite_value(self):
        with pytest.raises(DomainError, match="value at eigenvalue 0.0 is inf"):
            apply_function(density_state(np.diag([1.0, 0.0])), lambda x: np.where(x > 0.0, x, np.inf))


class TestTransitionProbability:
    def test_equal_projections(self):
        p = RankOneProjection.from_vector([1.0, 0.0])
        assert transition_probability(p, p) == 1.0

    def test_orthogonal_basis_vectors(self):
        p = RankOneProjection.from_vector([1.0, 0.0])
        q = RankOneProjection.from_vector([0.0, 1.0])
        assert transition_probability(p, q) == 0.0

    def test_superposition_half(self):
        p = RankOneProjection.from_vector([1.0, 0.0])
        q = RankOneProjection.from_vector([1.0, 1.0])
        assert transition_probability(p, q) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_symmetry_and_phase_invariance(self, dim):
        rng = rng_for(60 + dim)
        from statediv import random_pure

        p, q = random_pure(dim, rng), random_pure(dim, rng)
        assert transition_probability(p, q) == pytest.approx(transition_probability(q, p), abs=1e-14)
        rotated = RankOneProjection.from_vector(np.exp(1.3j) * q.vector)
        assert transition_probability(p, rotated) == pytest.approx(
            transition_probability(p, q), abs=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            transition_probability(
                RankOneProjection.from_vector([1.0, 0.0]),
                RankOneProjection.from_vector([1.0, 0.0, 0.0]),
            )


class TestTraceOnSupport:
    def test_identity_support_is_trace(self):
        rng = rng_for(8)
        matrix = random_hermitian(3, rng)
        assert trace_on_support(matrix, np.eye(3)) == pytest.approx(
            float(np.trace(matrix).real), abs=1e-12
        )

    def test_diagonal_restriction(self):
        assert trace_on_support(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 0.0])) == pytest.approx(3.0)

    def test_zero_support(self):
        rng = rng_for(9)
        assert trace_on_support(random_hermitian(4, rng), np.zeros((4, 4))) == pytest.approx(0.0)

    def test_non_projection_rejected(self):
        with pytest.raises(ValidationError):
            trace_on_support(np.eye(2), np.diag([0.5, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_on_support(np.eye(3), np.eye(2))


class TestDensityState:
    def test_valid_construction(self):
        state = density_state(np.diag([0.25, 0.75]))
        assert state.dim == 2
        assert state.rank == 2
        np.testing.assert_allclose(state.w, [0.75, 0.25])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            density_state(np.diag([0.5, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            density_state(np.diag([1.1, -0.1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ValidationError, match=r"non-finite entries: \[0, 0\]"):
            DensityState.from_matrix(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_validates_once_and_runs_one_eigh(self):
        matrix = _random_density(4, rng_for(12))
        with (
            mock.patch.object(hermitian, "validate_hermitian", wraps=hermitian.validate_hermitian) as spy,
            mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh,
        ):
            state = DensityState.from_matrix(matrix)
        assert spy.call_count == 1 and eigh.call_count == 1
        w, v = np.linalg.eigh(hermitian.validate_hermitian(matrix))
        assert np.array_equal(state.w, np.where(w[::-1] < DEFAULT_TOLS.eps_supp, 0.0, w[::-1]))
        assert np.array_equal(state.v, v[:, ::-1])

    def test_one_name_per_datum(self):
        state = density_state(np.diag([0.25, 0.75]))
        assert [f.name for f in dataclasses.fields(state)] == ["w", "v"]
        assert not hasattr(state, "spectral") and not hasattr(state, "eigenvalues")

    def test_support_of_rank_deficient_state(self):
        state = density_state(np.diag([0.5, 0.5, 0.0]))
        np.testing.assert_allclose(state.support, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert state.rank == 2

    def test_tiny_negative_eigenvalues_are_zeroed(self):
        state = density_state(np.diag([1.0 + 2e-10, -2e-10]))
        assert state.w[-1] == 0.0

    def test_as_rank_one(self):
        rng = rng_for(11)
        from statediv import random_pure

        pure = random_pure(3, rng)
        recovered = pure.to_state().as_rank_one()
        assert transition_probability(pure, recovered) == pytest.approx(1.0, abs=1e-12)

    def test_as_rank_one_rejects_mixed(self):
        with pytest.raises(ValidationError):
            density_state(np.diag([0.5, 0.5])).as_rank_one()


class TestRankOneProjection:
    def test_matrix_is_idempotent_unit_trace(self):
        rng = rng_for(12)
        from statediv import random_pure

        p = random_pure(4, rng)
        m = p.matrix
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
        assert float(np.trace(m).real) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            RankOneProjection.from_vector([0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), 1e200])
    def test_non_finite_norm_rejected(self, bad):
        # 1e200 is finite, but its square overflows the norm to inf.
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="vector of norm (nan|inf)"):
            RankOneProjection.from_vector([bad, 1.0])

    def test_to_state_roundtrip(self):
        p = RankOneProjection.from_vector([1.0, 1.0j])
        state = p.to_state()
        assert state.rank == 1
        np.testing.assert_allclose(state.matrix, p.matrix, atol=1e-14)
