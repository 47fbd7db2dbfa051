"""States whose spectrum is known carry it: no eigendecomposition runs.

``random_state`` attaches its simplex weights and Haar columns, conjugation
and transpose images attach the input's eigenvalues with the moved
eigenvectors, and depolarizing and diagonal images their closed-form spectra.
These tests check that the attached decompositions describe the stored
matrices, that a stacked draw equals consecutive ``random_state`` calls bit for
bit, that the preserver engine calls ``eigh`` only for maps whose images have
an unknown spectrum (none of the built-in oracles), and the exact rules that
used to come from an ``eigh``.
"""

import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from statediv import (
    DEFAULT_TOLS,
    DensityState,
    SymmetryOp,
    ValidationError,
    conjugation_oracle,
    depolarizing_oracle,
    diagonal_oracle,
    haar_unitary,
    parse_generator,
    random_simplex_point,
    random_state,
    rng_for,
    transpose_oracle,
    verify_preserver,
    wigner_probes,
)
from statediv import hermitian, sampling
from statediv.preserver import _probe_residual

EPS, CT = DEFAULT_TOLS.eps_supp, DEFAULT_TOLS.cluster_tol
ROUTES = [("bregman", "xlogx"), ("bregman", "quadratic"), ("jensen", "quadratic")]


def _random_states(dim: int, rng) -> list[DensityState]:
    return [
        random_state(dim, rng=rng),
        random_state(dim, max(1, dim // 2), rng=rng),
        random_state(dim, rng=rng, eigenvalue_floor=1e-3),
    ]


def _images(dim: int, rng) -> list[DensityState]:
    """Unitary, antiunitary and transpose images of random states of every kind."""
    states = _random_states(dim, rng)
    oracles = [
        conjugation_oracle(SymmetryOp(matrix=haar_unitary(dim, rng), antiunitary=anti))
        for anti in (False, True)
    ]
    oracles.append(transpose_oracle(dim))
    return [oracle(s) for oracle in oracles for s in states]


def _assert_consistent(state: DensityState) -> None:
    w, v = state.w, state.v
    exact = np.sort(np.linalg.eigvalsh(state.matrix))[::-1]
    assert np.all(np.diff(w) <= 0.0)
    np.testing.assert_array_equal(w == 0.0, exact < EPS)
    np.testing.assert_allclose(w, exact, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(state.dim), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(state.reconstruct(), state.matrix, rtol=0.0, atol=1e-12)


class TestAttachedDecompositions:
    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_random_states(self, dim):
        for state in _random_states(dim, rng_for(600 + dim)):
            _assert_consistent(state)

    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_conjugation_and_transpose_images(self, dim):
        for image in _images(dim, rng_for(700 + dim)):
            _assert_consistent(image)

    def test_image_matrix_is_the_conjugated_matrix(self):
        rng = rng_for(802)
        state = random_state(5, rng=rng)
        for anti in (False, True):
            op = SymmetryOp(matrix=haar_unitary(5, rng), antiunitary=anti)
            image = op.apply_state(state)
            np.testing.assert_array_equal(image.w, state.w)
            expected = op.apply_matrix(state.matrix)
            np.testing.assert_array_equal(image.matrix, (expected + expected.conj().T) / 2)


def _one_state(dim: int, rank: int, rng, eigenvalue_floor: float) -> tuple[np.ndarray, ...]:
    """One ``random_state`` draw, written out per state as the reference: (matrix, w, V)."""
    weights = rng.dirichlet(np.ones(rank))
    if eigenvalue_floor > 0.0:
        weights = (weights + eigenvalue_floor) / (1.0 + rank * eigenvalue_floor)
    spectrum = np.zeros(dim)
    spectrum[:rank] = weights
    ginibre = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    basis = q * phases
    product = (basis * spectrum) @ basis.conj().T
    order = np.argsort(-spectrum, kind="stable")
    w = spectrum[order]
    w[w < EPS] = 0.0
    return (product + product.conj().T) / 2, w, basis[:, order]


class TestStackedSampler:
    @pytest.mark.parametrize("dim", [1, 2, 8, 64])
    @pytest.mark.parametrize(
        "rank, floor", [(None, 0.0), ("half", 0.0), (None, 1e-3)], ids=["full", "rank", "floor"]
    )
    def test_equals_consecutive_random_state_calls(self, dim, rank, floor):
        rank = max(1, dim // 2) if rank == "half" else rank
        rngs = [rng_for(1200 + dim) for _ in range(3)]
        stacked = sampling._random_states(5, dim, rank, rng=rngs[0], eigenvalue_floor=floor)
        single = [random_state(dim, rank, rng=rngs[1], eigenvalue_floor=floor) for _ in range(5)]
        reference = [_one_state(dim, rank or dim, rngs[2], floor) for _ in range(5)]
        for a, b, (matrix, w, v) in zip(stacked, single, reference):
            for state in (a, b):
                assert state.matrix.tobytes() == matrix.tobytes()
                assert state.w.tobytes() == w.tobytes()
                assert state.v.tobytes() == v.tobytes()
        assert len({rng.integers(2**62) for rng in rngs}) == 1  # the same draws were consumed

    @pytest.mark.parametrize("n", [1, 9, 64])
    def test_simplex_point_is_the_unit_dirichlet_draw(self, n):
        rngs = [rng_for(1400 + n) for _ in range(2)]
        for _ in range(5):
            assert random_simplex_point(n, rngs[0]).tobytes() == rngs[1].dirichlet(np.ones(n)).tobytes()
        assert rngs[0].integers(2**62) == rngs[1].integers(2**62)  # the same draws were consumed

    def test_no_states_draw_nothing(self):
        rng, untouched = rng_for(1300), rng_for(1300)
        assert sampling._random_states(0, 4, rng=rng) == []
        assert rng.integers(2**62) == untouched.integers(2**62)


def test_conjugation_oracle_checks_unitarity_once():
    with pytest.raises(ValidationError, match="not unitary"):
        conjugation_oracle(SymmetryOp(matrix=2.0 * np.eye(3)))


class TestEighCount:
    """``eigh`` runs only for images whose spectrum the code does not know."""

    @staticmethod
    def _count(f, oracle, kind) -> tuple[int, bool]:
        with mock.patch.object(hermitian.np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            outcome = verify_preserver(f, oracle, kind, sample_size=6, seed=3)
        return eigh.call_count, outcome.passed

    @pytest.mark.parametrize("dim", [3, 8])
    @pytest.mark.parametrize("oracle_kind", ["unitary", "antiunitary", "transpose"])
    def test_preserver_oracles_make_no_eigh_call(self, dim, oracle_kind):
        rng = rng_for(900 + dim)
        if oracle_kind == "transpose":
            oracle = transpose_oracle(dim)
        else:
            op = SymmetryOp(matrix=haar_unitary(dim, rng), antiunitary=oracle_kind == "antiunitary")
            oracle = conjugation_oracle(op)
        for kind, spec in ROUTES:
            calls, passed = self._count(parse_generator(spec), oracle, kind)
            assert passed
            assert calls == 0, (kind, spec)

    @pytest.mark.parametrize("dim", [3, 8])
    @pytest.mark.parametrize("oracle", [depolarizing_oracle, diagonal_oracle], ids=["depolarizing", "diagonal"])
    def test_depolarizing_and_diagonal_verifications_make_no_eigh_call(self, dim, oracle):
        for kind, spec in ROUTES:
            calls, passed = self._count(parse_generator(spec), oracle(dim), kind)
            assert not passed
            assert calls == 0, (kind, spec)


def _cluster_starts(w: np.ndarray, cluster_tol: float) -> np.ndarray:
    """The eigenvalue clustering the package once kept, copied as the reference.

    The zeros form one cluster.  A nonzero cluster starts at its largest
    member and takes every following eigenvalue of the same sign less than
    ``cluster_tol`` below it.
    """
    sign = np.sign(w)
    cut = (w[:-1] - w[1:] >= cluster_tol) | (sign[:-1] != sign[1:])
    starts = np.flatnonzero(np.concatenate(([True], cut)))
    ends = np.append(starts[1:], len(w))
    wide = w[starts] - w[ends - 1] >= cluster_tol
    extra = []
    for s, e in zip(starts[wide], ends[wide]):
        below = -w[s:e]
        k = 0
        while (k := int(np.searchsorted(below, below[k] + cluster_tol))) < e - s:
            extra.append(s + k)
    return np.sort(np.concatenate((starts, np.array(extra, dtype=int))))


class TestRankOneRule:
    @pytest.mark.parametrize(
        "second, multiplicity",
        [(0.6, 2), (0.6 - 0.5 * CT, 2), (0.6 - 0.99 * CT, 2), (0.6 - 1.01 * CT, 1), (0.1, 1), (0.0, 1)],
    )
    def test_as_rank_one_matches_top_cluster_multiplicity(self, second, multiplicity):
        # tol_num = 1 admits every leading eigenvalue, so only the multiplicity rule decides.
        tols = DEFAULT_TOLS.replace(tol_num=1.0)
        w = np.array([0.6, second, 0.0])
        assert np.diff(np.append(_cluster_starts(w, CT), len(w)))[0] == multiplicity
        state = DensityState(w, np.eye(3, dtype=complex), matrix=np.diag(w).astype(complex))
        if multiplicity == 1:
            assert state.as_rank_one(tols).dim == 3
        else:
            with pytest.raises(ValidationError, match=f"multiplicity {multiplicity}"):
                state.as_rank_one(tols)

    def test_as_rank_one_in_dimension_one(self):
        assert DensityState.from_matrix(np.eye(1)).as_rank_one().dim == 1


class TestResidualReuse:
    def test_verify_reports_the_residual_of_its_probe_images(self):
        rng = rng_for(1001)
        op = SymmetryOp(matrix=haar_unitary(4, rng), antiunitary=True)
        oracle = conjugation_oracle(op)
        outcome = verify_preserver(parse_generator("quadratic"), oracle, "bregman", sample_size=4)
        images = [oracle(p.to_state()).as_rank_one() for p in wigner_probes(4)]
        assert outcome.max_probe_residual == _probe_residual(outcome.symmetry, wigner_probes(4), images)


def test_importing_the_package_leaves_scipy_unloaded():
    """Neither the import nor a whole suite run loads scipy, and the import
    loads no installed module but numpy's."""
    code = (
        "import contextlib, io, sys, sysconfig\n"
        "before = set(sys.modules)\n"
        "import statediv, statediv.cli\n"
        "roots = tuple({sysconfig.get_path('purelib'), sysconfig.get_path('platlib')})\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in ('numpy', 'statediv')\n"
        "             and (getattr(sys.modules[m], '__file__', None) or '').startswith(roots)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert statediv.cli.main(['suite', 'all', '--dims', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]
