import math

import numpy as np
import pytest

from statediv import (
    DEFAULT_TOLS,
    DensityState,
    DimensionMismatchError,
    ParameterError,
    RankOneProjection,
    bregman,
    bregman_rank_one_pair,
    bregman_rank_one_vs_rank_two,
    bregman_trace_form,
    density_state,
    haar_unitary,
    parse_generator,
    quadratic,
    random_pure,
    random_state,
    rank_two_mixture,
    rank_two_offset,
    rng_for,
    std_entropy,
    support_contained,
)
from conftest import orthogonal_pure_pair

XLOGX = std_entropy()
QUAD = quadratic()
P15 = parse_generator("power:q=3/2")
ALL_GENERATORS = [XLOGX, P15, QUAD]
FINITE_GENERATORS = [P15, QUAD]

INF = math.inf


def hilbert_schmidt_sq(a: DensityState, b: DensityState) -> float:
    diff = a.matrix - b.matrix
    return float(np.trace(diff @ diff).real)


class TestBregmanAnchors:
    def test_umegaki_hand_value(self):
        # tr A (log A - log B) for commuting diagonals:
        # 1/2 log 2 + 1/2 log(2/3) = 1/2 log(4/3).
        a = density_state(np.diag([0.5, 0.5]))
        b = density_state(np.diag([0.25, 0.75]))
        assert bregman(XLOGX, a, b) == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)

    def test_quadratic_is_hilbert_schmidt(self):
        a = density_state(np.diag([1.0, 0.0]))
        b = density_state(np.diag([0.0, 1.0]))
        assert bregman(QUAD, a, b) == pytest.approx(2.0, abs=1e-12)
        rng = rng_for(21)
        for dim in (2, 3, 5):
            for _ in range(10):
                x, y = random_state(dim, rng=rng), random_state(dim, rng=rng)
                assert bregman(QUAD, x, y) == pytest.approx(hilbert_schmidt_sq(x, y), abs=1e-10)

    def test_distinct_rank_one_supports_are_infinite(self):
        rng = rng_for(22)
        p, q = random_pure(3, rng), random_pure(3, rng)
        assert bregman(XLOGX, p.to_state(), q.to_state()) == INF

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_zero_iff_equal(self, f):
        rng = rng_for(23)
        x = random_state(4, rng=rng)
        assert bregman(f, x, x) == 0.0

    def test_rank_deficient_second_argument_finite_class(self):
        # Finite f'(0): divergence is finite even off the support.
        a = density_state(np.diag([0.5, 0.5]))
        b = density_state(np.diag([1.0, 0.0]))
        value = bregman(QUAD, a, b)
        assert value == pytest.approx(hilbert_schmidt_sq(a, b), abs=1e-12)

    def test_support_condition_decides_infinity(self):
        a = density_state(np.diag([0.5, 0.5, 0.0]))
        b = density_state(np.diag([0.3, 0.7, 0.0]))
        assert support_contained(a, b)
        assert math.isfinite(bregman(XLOGX, a, b))
        c = density_state(np.diag([0.0, 0.7, 0.3]))
        assert not support_contained(a, c)
        assert bregman(XLOGX, a, c) == INF

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bregman(QUAD, density_state(np.eye(2) / 2), density_state(np.eye(3) / 3))


class TestTraceFormRoute:
    """The support-restricted trace formula is an independent route."""

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_matches_spectral_sum(self, f, dim):
        rng = rng_for(300 + dim)
        for _ in range(10):
            x = random_state(dim, rng=rng, eigenvalue_floor=1e-3)
            y = random_state(dim, rng=rng, eigenvalue_floor=1e-3)
            assert bregman_trace_form(f, x, y) == pytest.approx(bregman(f, x, y), abs=1e-9)

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_matches_on_nested_supports(self, f):
        rng = rng_for(31)
        basis = haar_unitary(4, rng)
        x_m = (basis * np.array([0.6, 0.4, 0.0, 0.0])) @ basis.conj().T
        y_m = (basis * np.array([0.3, 0.3, 0.4, 0.0])) @ basis.conj().T
        x = density_state((x_m + x_m.conj().T) / 2)
        y = density_state((y_m + y_m.conj().T) / 2)
        assert support_contained(x, y)
        value = bregman(f, x, y)
        assert math.isfinite(value)
        assert bregman_trace_form(f, x, y) == pytest.approx(value, abs=1e-9)

    def test_infinite_branch_agrees(self):
        rng = rng_for(32)
        p, q = random_pure(3, rng), random_pure(3, rng)
        assert bregman_trace_form(XLOGX, p.to_state(), q.to_state()) == INF


class TestRankOnePair:
    def test_quadratic_half_overlap(self):
        # (1 - 1/2) (f'(1) - f'(0)) = (1/2) * 2 = 1.
        p = RankOneProjection.from_vector([1.0, 0.0])
        q = RankOneProjection.from_vector([1.0, 1.0])
        assert bregman_rank_one_pair(QUAD, p, q) == pytest.approx(1.0, abs=1e-12)

    def test_equal_projections_zero(self):
        rng = rng_for(41)
        p = random_pure(4, rng)
        for f in ALL_GENERATORS:
            assert bregman_rank_one_pair(f, p, p) == 0.0

    def test_power_three_orthogonal(self):
        # f_3'(1) = 1, f_3'(0) = -1/2, so the span is 3/2.
        f = parse_generator("power:q=3")
        p = RankOneProjection.from_vector([1.0, 0.0])
        q = RankOneProjection.from_vector([0.0, 1.0])
        assert bregman_rank_one_pair(f, p, q) == pytest.approx(1.5, abs=1e-12)

    def test_infinite_class_dichotomy(self):
        rng = rng_for(42)
        p, q = random_pure(3, rng), random_pure(3, rng)
        assert bregman_rank_one_pair(XLOGX, p, q) == INF
        assert bregman_rank_one_pair(XLOGX, p, p) == 0.0

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("gap,eps", [(5e-11, 1e-10), (2e-10, 1e-10), (5e-10, 1e-10), (9e-10, 1e-10), (1e-7, 1e-6)])
    def test_closed_form_decides_inf_by_the_support_test(self, f, gap, eps):
        # 1 - tr PQ = tr((I - Q) P) is the leak of P out of supp Q, so eps_supp decides inf.
        tols = DEFAULT_TOLS.replace(eps_supp=eps)
        p = RankOneProjection.from_vector([1.0, 0.0, 0.0])
        q = RankOneProjection.from_vector([math.sqrt(1.0 - gap), math.sqrt(gap), 0.0])
        closed = bregman_rank_one_pair(f, p, q, tols=tols)
        general = bregman(f, p.to_state(), q.to_state(), tols=tols)
        assert math.isinf(closed) == math.isinf(general) == (not f.finite_zero_slope and gap >= eps)
        if not math.isinf(general):
            assert closed == pytest.approx(general, rel=0.0, abs=tols.tol_num)

    @pytest.mark.parametrize("f", FINITE_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_closed_form_matches_general(self, f, dim):
        rng = rng_for(400 + dim)
        for _ in range(10):
            p, q = random_pure(dim, rng), random_pure(dim, rng)
            closed = bregman_rank_one_pair(f, p, q)
            general = bregman(f, p.to_state(), q.to_state())
            assert closed == pytest.approx(general, abs=1e-8)


class TestRankOneVsRankTwo:
    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_extremes_at_p_and_q(self, f):
        rng = rng_for(51)
        p, q = orthogonal_pure_pair(3, rng)
        lam = 0.3
        mu = 1.0 - lam
        offset = rank_two_offset(f, lam)
        assert bregman_rank_one_vs_rank_two(f, p, lam, p, q) == pytest.approx(
            -f.slope(lam) + offset, abs=1e-10
        )
        assert bregman_rank_one_vs_rank_two(f, q, lam, p, q) == pytest.approx(
            -f.slope(mu) + offset, abs=1e-10
        )

    def test_xlogx_max_minus_min_is_log_three(self):
        # f'(3/4) - f'(1/4) = log 3 at lam = 1/4.
        rng = rng_for(52)
        p, q = orthogonal_pure_pair(2, rng)
        lam = 0.25
        at_p = bregman_rank_one_vs_rank_two(XLOGX, p, lam, p, q)
        at_q = bregman_rank_one_vs_rank_two(XLOGX, q, lam, p, q)
        assert at_p - at_q == pytest.approx(math.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_closed_form_matches_general(self, f, dim):
        rng = rng_for(500 + dim)
        for _ in range(10):
            p, q = orthogonal_pure_pair(dim, rng)
            lam = float(rng.uniform(0.05, 0.45))
            theta = float(rng.uniform(0.0, math.pi / 2))
            phase = np.exp(1j * float(rng.uniform(0.0, 2 * math.pi)))
            r = RankOneProjection.from_vector(
                math.cos(theta) * p.vector + math.sin(theta) * phase * q.vector
            )
            closed = bregman_rank_one_vs_rank_two(f, r, lam, p, q)
            general = bregman(f, r.to_state(), rank_two_mixture(lam, p, q))
            assert closed == pytest.approx(general, abs=1e-8)

    def test_leak_outside_span(self):
        p = RankOneProjection.from_vector([1.0, 0.0, 0.0])
        q = RankOneProjection.from_vector([0.0, 1.0, 0.0])
        r = RankOneProjection.from_vector([0.0, 0.0, 1.0])
        assert bregman_rank_one_vs_rank_two(XLOGX, r, 0.25, p, q) == INF
        with pytest.raises(ParameterError):
            bregman_rank_one_vs_rank_two(QUAD, r, 0.25, p, q)

    def test_requires_orthogonal_reference(self):
        p = RankOneProjection.from_vector([1.0, 0.0])
        q = RankOneProjection.from_vector([1.0, 0.5])
        with pytest.raises(ParameterError):
            bregman_rank_one_vs_rank_two(QUAD, p, 0.25, p, q)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.7, -0.1])
    def test_lambda_range(self, lam):
        rng = rng_for(53)
        p, q = orthogonal_pure_pair(2, rng)
        with pytest.raises(ParameterError):
            bregman_rank_one_vs_rank_two(QUAD, p, lam, p, q)


class TestInvariants:
    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unitary_invariance_finite(self, f, dim):
        rng = rng_for(600 + dim)
        x, y = random_state(dim, rng=rng), random_state(dim, rng=rng)
        u = haar_unitary(dim, rng)
        xu = density_state(u @ x.matrix @ u.conj().T)
        yu = density_state(u @ y.matrix @ u.conj().T)
        assert bregman(f, xu, yu) == pytest.approx(bregman(f, x, y), abs=1e-9)

    def test_unitary_invariance_infinite(self):
        rng = rng_for(61)
        p, q = random_pure(3, rng), random_pure(3, rng)
        u = haar_unitary(3, rng)
        pu = density_state(u @ p.matrix @ u.conj().T)
        qu = density_state(u @ q.matrix @ u.conj().T)
        assert bregman(XLOGX, p.to_state(), q.to_state()) == INF
        assert bregman(XLOGX, pu, qu) == INF

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_nonnegativity_and_identity(self, f):
        rng = rng_for(62)
        for _ in range(20):
            x, y = random_state(3, rng=rng), random_state(3, rng=rng)
            value = bregman(f, x, y)
            assert value >= 0.0
            assert value > 1e-10  # distinct random states do not collide
        x = random_state(3, rng=rng)
        assert bregman(f, x, x) == 0.0

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_strict_convexity_first_argument(self, f):
        rng = rng_for(63)
        for _ in range(20):
            a = random_state(3, rng=rng, eigenvalue_floor=1e-3)
            b = random_state(3, rng=rng, eigenvalue_floor=1e-3)
            d = random_state(3, rng=rng, eigenvalue_floor=1e-3)
            t = float(rng.uniform(0.1, 0.9))
            mix = density_state(t * a.matrix + (1 - t) * b.matrix)
            lhs = bregman(f, mix, d)
            rhs = t * bregman(f, a, d) + (1 - t) * bregman(f, b, d)
            assert lhs < rhs

    @pytest.mark.parametrize(
        "f", [g for g in ALL_GENERATORS if g.matrix_entropy_member], ids=lambda f: f.name
    )
    def test_joint_convexity_for_members(self, f):
        rng = rng_for(64)
        for _ in range(20):
            a1, b1 = random_state(3, rng=rng, eigenvalue_floor=1e-3), random_state(3, rng=rng, eigenvalue_floor=1e-3)
            a2, b2 = random_state(3, rng=rng, eigenvalue_floor=1e-3), random_state(3, rng=rng, eigenvalue_floor=1e-3)
            t = float(rng.uniform(0.1, 0.9))
            mix_a = density_state(t * a1.matrix + (1 - t) * a2.matrix)
            mix_b = density_state(t * b1.matrix + (1 - t) * b2.matrix)
            lhs = bregman(f, mix_a, mix_b)
            rhs = t * bregman(f, a1, b1) + (1 - t) * bregman(f, a2, b2)
            assert lhs <= rhs + 1e-9


def _bregman_epsilon_shifted(f, x_matrix: np.ndarray, y_matrix: np.ndarray, eps: float) -> float:
    """Direct evaluation of H_f(X + eps I, Y + eps I) from raw eigensystems.

    Independent oracle for the continuity extension: no clustering, no zero
    snapping, just the positive-definite double sum at shifted spectra.
    """
    wx, vx = np.linalg.eigh(x_matrix)
    wy, vy = np.linalg.eigh(y_matrix)
    overlap = np.abs(vx.conj().T @ vy) ** 2
    total = 0.0
    for i, a in enumerate(wx + eps):
        for j, b in enumerate(wy + eps):
            total += (f(a) - f(b) - f.slope(b) * (a - b)) * overlap[i, j]
    return total


class TestEpsilonContinuity:
    """The computation rules equal the eps -> 0 limit of the shifted divergence."""

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_extrapolated_shifted_value_matches(self, f):
        rng = rng_for(71)
        cases = []
        basis = haar_unitary(3, rng)
        small = (basis * np.array([1e-3, 0.2, 0.799])) @ basis.conj().T
        cases.append((density_state((small + small.conj().T) / 2), random_state(3, rng=rng, eigenvalue_floor=0.05)))
        shared = haar_unitary(4, rng)
        x_m = (shared * np.array([0.3, 0.7, 0.0, 0.0])) @ shared.conj().T
        y_m = (shared * np.array([0.5, 0.3, 0.2, 0.0])) @ shared.conj().T
        cases.append(
            (
                density_state((x_m + x_m.conj().T) / 2),
                density_state((y_m + y_m.conj().T) / 2),
            )
        )
        for x, y in cases:
            eps1, eps2 = 1e-4, 1e-6
            v1 = _bregman_epsilon_shifted(f, x.matrix, y.matrix, eps1)
            v2 = _bregman_epsilon_shifted(f, x.matrix, y.matrix, eps2)
            extrapolated = v2 + (v2 - v1) * eps2 / (eps1 - eps2)
            assert bregman(f, x, y) == pytest.approx(extrapolated, abs=1e-3)
