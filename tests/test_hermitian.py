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
    decompose,
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


class TestDecompose:
    def test_diagonal_two_level(self):
        dec = decompose(np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(dec.w, [1.0, 0.0])
        np.testing.assert_allclose(_line(dec.v[:, 0]), np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(_line(dec.v[:, 1]), np.diag([0.0, 1.0]), atol=1e-14)

    def test_symmetric_half_matrix(self):
        # Hand eigendecomposition: eigenvalues 1 and 0 with eigenvectors
        # (1, 1)/sqrt(2) and (1, -1)/sqrt(2).
        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        dec = decompose(matrix)
        p_plus = np.full((2, 2), 0.5)
        p_minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert dec.w[0] == pytest.approx(1.0)
        assert dec.w[1] == 0.0
        np.testing.assert_allclose(_line(dec.v[:, 0]), p_plus, atol=1e-12)
        np.testing.assert_allclose(_line(dec.v[:, 1]), p_minus, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_roundtrip_random(self, dim):
        rng = rng_for(100 + dim)
        for _ in range(10):
            matrix = random_hermitian(dim, rng)
            dec = decompose(matrix)
            np.testing.assert_allclose(dec.reconstruct(), matrix, atol=dim * 1e-8)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_projection_family_structure(self, dim):
        rng = rng_for(200 + dim)
        matrix = random_hermitian(dim, rng)
        dec = decompose(matrix)
        lines = [_line(dec.v[:, a]) for a in range(dim)]
        for a, p in enumerate(lines):
            np.testing.assert_allclose(p @ p, p, atol=1e-9)
            for b, q in enumerate(lines):
                if a != b:
                    np.testing.assert_allclose(p @ q, 0.0, atol=1e-9)
        np.testing.assert_allclose(sum(lines), np.eye(dim), atol=1e-9)
        assert dec.w.shape == (dim,)
        assert np.all(np.diff(dec.w) <= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            decompose(np.ones((2, 3)))


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
        rng = rng_for(5)
        matrix = random_hermitian(4, rng)
        np.testing.assert_allclose(apply_function(matrix, lambda x: x), matrix, atol=1e-9)

    def test_square_on_diagonal(self):
        np.testing.assert_allclose(
            apply_function(np.diag([2.0, 3.0]), lambda x: x**2), np.diag([4.0, 9.0]), atol=1e-12
        )

    def test_xlogx_on_half_projection(self):
        # f(1) = 0 and the declared limit f(0) = 0, so f(M) vanishes.
        from statediv import std_entropy

        matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
        result = apply_function(matrix, std_entropy())
        np.testing.assert_allclose(result, np.zeros((2, 2)), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_basis_covariance(self, dim):
        rng = rng_for(50 + dim)
        state = np.diag(rng.uniform(0.5, 2.0, size=dim))
        basis = haar_unitary(dim, rng)
        rotated = basis @ state @ basis.conj().T
        fn = lambda x: x**3 - 2 * x
        lhs = apply_function((rotated + rotated.conj().T) / 2, fn)
        rhs = basis @ apply_function(state, fn) @ basis.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_domain_error_on_negative_spectrum(self):
        import math

        with pytest.raises(DomainError):
            apply_function(np.diag([1.0, -1.0]), math.sqrt)

    def test_domain_error_on_nonfinite_value(self):
        with pytest.raises(DomainError):
            apply_function(np.diag([1.0, 0.0]), lambda x: 1.0 / x if x else float("inf"))


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
        np.testing.assert_allclose(state.eigenvalues, [0.75, 0.25])

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

    def test_validates_once_and_decomposes_as_decompose(self):
        matrix = random_hermitian(4, rng_for(12))
        matrix = matrix @ matrix.conj().T
        matrix /= np.trace(matrix).real
        with mock.patch.object(hermitian, "validate_hermitian", wraps=hermitian.validate_hermitian) as spy:
            state = DensityState.from_matrix(matrix)
        assert spy.call_count == 1
        expected = hermitian._eigh(hermitian.validate_hermitian(matrix), DEFAULT_TOLS, True)
        assert np.array_equal(state.spectral.w, expected.w)
        assert np.array_equal(state.spectral.v, expected.v)

    def test_support_of_rank_deficient_state(self):
        state = density_state(np.diag([0.5, 0.5, 0.0]))
        np.testing.assert_allclose(state.support, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert state.rank == 2

    def test_tiny_negative_eigenvalues_are_zeroed(self):
        state = density_state(np.diag([1.0 + 2e-10, -2e-10]))
        assert state.eigenvalues[-1] == 0.0

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
