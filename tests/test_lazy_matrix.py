"""States whose matrix is built on first read.

``from_orthonormal`` and conjugation and transpose images know their spectrum
and build their matrix only when something reads it, with the expression they
once ran at construction, so every matrix that is read keeps its bits.  The
same states build the kernel columns of ``v`` on first read: the completed
basis equals the one once built at construction, and an image's leading
columns keep the bits they were mapped with.  The preserver engine reads only
the spectra and leading columns of its probe states and probe images, so it
builds none of their matrices or kernels.
"""

import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

from statediv import (
    DensityState,
    PreserverOracle,
    SymmetryOp,
    haar_unitary,
    hermitian_part,
    parse_generator,
    random_pure,
    random_state,
    rng_for,
    transpose_oracle,
    verify_preserver,
)

DIMS = [2, 3, 8, 33]
QUAD = parse_generator("quadratic")


def _built(state: DensityState) -> bool:
    return "matrix" in vars(state)


def _completed(state: DensityState) -> bool:
    return "v" in vars(state)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _orthonormal(dim: int, k: int, rng) -> DensityState:
    weights = [1.0] if k == 1 else [0.7, 0.3]
    columns = haar_unitary(dim, rng)
    return DensityState.from_orthonormal(weights, [columns[:, j] for j in range(k)])


def _inputs(dim: int, rng) -> list[DensityState]:
    """A state built with its matrix and a pure state built on first read."""
    return [random_state(dim, rng=rng), random_pure(dim, rng).to_state()]


class TestSameBits:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_from_orthonormal(self, dim, k):
        state = _orthonormal(dim, k, rng_for(dim + 10 * k))
        assert not _built(state)
        v, w = state.v, state.w
        assert _same_bits(state.matrix, hermitian_part((v[:, :k] * w[:k]) @ v[:, :k].conj().T))

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("antiunitary", [False, True])
    def test_apply_state(self, dim, antiunitary):
        rng = rng_for(100 + dim)
        op = SymmetryOp(matrix=haar_unitary(dim, rng), antiunitary=antiunitary)
        for state in _inputs(dim, rng):
            image = op.apply_state(state)
            assert not _built(image)
            assert _same_bits(image.matrix, hermitian_part(op.apply_matrix(state.matrix)))

    @pytest.mark.parametrize("dim", DIMS)
    def test_transpose_mapping(self, dim):
        oracle = transpose_oracle(dim)
        for state in _inputs(dim, rng_for(200 + dim)):
            image = oracle(state)
            assert not _built(image)
            assert _same_bits(image.matrix, hermitian_part(state.matrix.T))


class TestBuiltOnlyWhenRead:
    @staticmethod
    def _lazy_states(dim: int) -> list[DensityState]:
        rng = rng_for(300 + dim)
        pure = random_pure(dim, rng).to_state()
        op = SymmetryOp(matrix=haar_unitary(dim, rng), antiunitary=True)
        return [pure, _orthonormal(dim, 2, rng), op.apply_state(pure), transpose_oracle(dim)(pure)]

    @pytest.mark.parametrize("dim", [2, 8])
    def test_spectral_reads_build_nothing(self, dim):
        for state in self._lazy_states(dim):
            assert state.dim == dim
            assert state.w[0] > 0.0
            assert state.rank >= 1
            if state.rank == 1:
                assert state.as_rank_one().dim == dim
            assert not _built(state)

    def test_a_built_state_drops_what_it_was_built_from(self):
        pure, _, image, _ = self._lazy_states(3)
        assert "_build" in vars(image)
        first = image.matrix
        assert "_build" not in vars(image)
        assert _built(pure)  # the image was built from its source's matrix
        assert image.matrix is first

    def test_concurrent_first_reads_see_one_matrix(self):
        state = random_state(4, rng=rng_for(2))

        def slow_build() -> np.ndarray:
            time.sleep(0.001)
            return state.matrix.copy()

        for _ in range(20):
            lazy = DensityState._built_on_read(slow_build, state.w, state.v)
            barrier = threading.Barrier(8)
            read: list[np.ndarray] = []

            def reader() -> None:
                barrier.wait(timeout=10)
                read.append(lazy.matrix)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=reader) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(read) == 8 and all(_same_bits(m, state.matrix) for m in read)
            assert "_build" not in vars(lazy)

    def test_concurrent_first_reads_see_one_basis(self):
        state = random_pure(4, rng_for(3)).to_state()
        leading, full = state._leading, state.v

        def slow_kernel() -> np.ndarray:
            time.sleep(0.001)
            return full[:, 1:].copy()

        for _ in range(20):
            lazy = DensityState._built_on_read(lambda: state.matrix, state.w, leading, slow_kernel)
            barrier = threading.Barrier(8)
            read: list[np.ndarray] = []

            def reader() -> None:
                barrier.wait(timeout=10)
                read.append(lazy.v)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=reader) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(read) == 8 and all(_same_bits(v, full) for v in read)
            assert "_kernel" not in vars(lazy)

    def test_an_eager_state_keeps_its_matrix(self):
        state = random_state(4, rng=rng_for(1))
        assert _built(state)
        assert DensityState(state.w, state.v, matrix=state.matrix).matrix is state.matrix


class TestVerifyBuildsNoProbeMatrix:
    """``verify_preserver`` reads only ``w`` and the leading column of ``v`` of its probe
    states and probe images, and conjugates the sampled states with one stacked product."""

    @staticmethod
    def _run(mapping, dim: int, kind: str):
        seen: list[tuple[DensityState, DensityState]] = []

        def recording(state: DensityState) -> DensityState:
            image = mapping(state)
            seen.append((state, image))
            return image

        oracle = PreserverOracle(dim=dim, mapping=recording, label="recording")
        with mock.patch.object(
            SymmetryOp, "_apply_in_place", autospec=True, side_effect=SymmetryOp._apply_in_place
        ) as apply_in_place:
            outcome = verify_preserver(QUAD, oracle, kind, sample_size=20, seed=5)
        assert outcome.passed
        return seen, apply_in_place.call_count

    @pytest.mark.parametrize("kind", ["bregman", "jensen"])
    @pytest.mark.parametrize("dim", [3, 8])
    @pytest.mark.parametrize("route", ["unitary", "antiunitary", "transpose"])
    def test_probe_states_and_images_stay_unbuilt(self, route, dim, kind):
        if route == "transpose":
            mapping = transpose_oracle(dim).mapping
        else:
            op = SymmetryOp(matrix=haar_unitary(dim, rng_for(400 + dim)), antiunitary=route == "antiunitary")
            mapping = op.apply_state
        seen, conjugations = self._run(mapping, dim, kind)
        samples, probes = seen[:42], seen[42:]
        assert len(probes) == 2 * dim
        assert not any(_built(state) or _built(image) for state, image in probes)
        assert not any(_completed(state) or _completed(image) for state, image in probes)
        # The 42 sampled images are compared with U A U*, one stacked product; a
        # conjugation image also builds its own matrix.
        assert all(_built(image) for _, image in samples)
        assert conjugations == (1 if route == "transpose" else 1 + 42)
