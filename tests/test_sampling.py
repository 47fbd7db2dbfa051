import numpy as np
import pytest

from statediv import (
    ParameterError,
    haar_unitary,
    random_pure,
    random_simplex_point,
    random_state,
    rng_for,
)


class TestHaarUnitary:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_unitarity(self, dim):
        u = haar_unitary(dim, rng_for(5))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(haar_unitary(4, rng_for(9)), haar_unitary(4, rng_for(9)))
        assert not np.allclose(haar_unitary(4, rng_for(9)), haar_unitary(4, rng_for(10)))


class TestRandomState:
    @pytest.mark.parametrize("dim,rank", [(2, 1), (3, 2), (4, 4), (6, 3)])
    def test_valid_state_of_requested_rank(self, dim, rank):
        state = random_state(dim, rank, rng=rng_for(31))
        assert state.dim == dim
        assert state.rank == rank
        assert float(np.trace(state.matrix).real) == pytest.approx(1.0, abs=1e-12)
        assert float(np.linalg.eigvalsh(state.matrix).min()) > -1e-12

    def test_default_rank_is_full(self):
        assert random_state(5, rng=rng_for(32)).rank == 5

    def test_eigenvalue_floor(self):
        state = random_state(4, rng=rng_for(33), eigenvalue_floor=1e-2)
        nonzero = state.w[state.w > 0]
        assert nonzero.min() > 1e-3

    def test_bad_rank_rejected(self):
        with pytest.raises(ParameterError):
            random_state(3, 0, rng=rng_for(34))
        with pytest.raises(ParameterError):
            random_state(3, 4, rng=rng_for(34))

    def test_deterministic_per_seed(self):
        a = random_state(3, rng=rng_for(35))
        b = random_state(3, rng=rng_for(35))
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestRandomPure:
    def test_unit_vector(self):
        p = random_pure(6, rng_for(36))
        assert float(np.linalg.norm(p.vector)) == pytest.approx(1.0, abs=1e-12)

    def test_simplex_point(self):
        w = random_simplex_point(5, rng_for(37))
        assert w.shape == (5,)
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)
