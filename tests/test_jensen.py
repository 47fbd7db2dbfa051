import math

import numpy as np
import pytest

from statediv import (
    DimensionMismatchError,
    DomainError,
    GeneratorFunction,
    ParameterError,
    density_state,
    haar_unitary,
    jensen,
    jensen_max_constant,
    jensen_rank_one,
    jensen_via_bregman,
    midpoint_state,
    parse_generator,
    quadratic,
    random_pure,
    random_state,
    rng_for,
    std_entropy,
    transition_probability,
)
from conftest import orthogonal_pure_pair

XLOGX = std_entropy()
QUAD = quadratic()
P15 = parse_generator("power:q=3/2")
P3 = parse_generator("power:q=3")
ALL_GENERATORS = [XLOGX, P15, QUAD, P3]


class TestJensenAnchors:
    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_zero_on_equal_arguments(self, f):
        rng = rng_for(80)
        a = random_state(3, rng=rng)
        assert jensen(f, a, a) == 0.0

    def test_quadratic_closed_form(self):
        a = density_state(np.diag([1.0, 0.0]))
        b = density_state(np.diag([0.0, 1.0]))
        assert jensen(QUAD, a, b) == pytest.approx(0.5, abs=1e-12)
        rng = rng_for(81)
        for dim in (2, 4, 6):
            for _ in range(10):
                x, y = random_state(dim, rng=rng), random_state(dim, rng=rng)
                diff = (x.matrix - y.matrix) / 2
                expected = float(np.trace(diff @ diff).real)
                assert jensen(QUAD, x, y) == pytest.approx(expected, abs=1e-10)

    def test_xlogx_orthogonal_pures_give_log_two(self):
        a = density_state(np.diag([1.0, 0.0]))
        b = density_state(np.diag([0.0, 1.0]))
        assert jensen(XLOGX, a, b) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_symmetry_exact(self):
        rng = rng_for(82)
        a, b = random_state(4, rng=rng), random_state(4, rng=rng)
        for f in ALL_GENERATORS:
            assert jensen(f, a, b) == jensen(f, b, a)

    def test_requires_finite_limit_at_zero(self):
        # A generator without a finite f(0+) is rejected when it is built,
        # so no Jensen call can reach it.
        with pytest.raises(DomainError):
            GeneratorFunction(
                name="no-limit",
                fn=lambda x: -math.log(x),
                dfn=lambda x: -1.0 / x,
                value_at_zero=math.inf,
                slope_at_zero=-math.inf,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            midpoint_state(density_state(np.eye(2) / 2), density_state(np.eye(3) / 3))


class TestRankOneLaw:
    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_endpoints(self, f):
        assert jensen_rank_one(f, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert jensen_rank_one(f, 0.0) == pytest.approx(jensen_max_constant(f), abs=1e-14)

    def test_xlogx_value_at_zero_overlap(self):
        assert jensen_rank_one(XLOGX, 0.0) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_quadratic_linear_in_p(self):
        # -(f((1+s)/2) + f((1-s)/2)) with f = x^2 - x collapses to (1-p)/2.
        for p in np.linspace(0.0, 1.0, 21):
            assert jensen_rank_one(QUAD, p) == pytest.approx((1.0 - p) / 2.0, abs=1e-14)

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_matches_general_jensen(self, f, dim):
        rng = rng_for(900 + dim)
        for _ in range(10):
            p, q = random_pure(dim, rng), random_pure(dim, rng)
            expected = jensen_rank_one(f, transition_probability(p, q))
            assert jensen(f, p.to_state(), q.to_state()) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_strictly_decreasing_in_p(self, f):
        grid = np.linspace(0.0, 1.0, 40)
        values = [jensen_rank_one(f, p) for p in grid]
        assert all(np.diff(values) < 0)

    def test_range_check(self):
        with pytest.raises(ParameterError):
            jensen_rank_one(QUAD, 1.5)
        with pytest.raises(ParameterError):
            jensen_rank_one(QUAD, -0.2)
        with pytest.raises(ParameterError):
            jensen_rank_one(QUAD, math.nan)
        with pytest.raises(ParameterError):
            jensen_rank_one(QUAD, np.array([0.5, math.nan]))
        with pytest.raises(ParameterError):
            jensen_rank_one(QUAD, np.array([[0.5, 1.5]]))

    def test_array_keeps_shape(self):
        p = np.array([[0.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(jensen_rank_one(QUAD, p), (1.0 - p) / 2.0, atol=1e-14)


class TestMaxConstant:
    def test_catalog_values(self):
        # -2 f(1/2) evaluated by hand for each generator.
        assert jensen_max_constant(XLOGX) == pytest.approx(math.log(2.0), abs=1e-14)
        assert jensen_max_constant(QUAD) == pytest.approx(0.5, abs=1e-14)
        assert jensen_max_constant(P3) == pytest.approx(0.375, abs=1e-14)

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_is_global_maximum_on_samples(self, f, dim):
        rng = rng_for(1000 + dim)
        bound = jensen_max_constant(f)
        for _ in range(20):
            a, b = random_state(dim, rng=rng), random_state(dim, rng=rng)
            assert jensen(f, a, b) <= bound + 1e-9

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_attained_exactly_at_orthogonal_pures(self, f):
        rng = rng_for(101)
        for dim in (2, 3, 5):
            p, q = orthogonal_pure_pair(dim, rng)
            assert jensen(f, p.to_state(), q.to_state()) == pytest.approx(
                jensen_max_constant(f), abs=1e-10
            )

    @pytest.mark.parametrize(
        "f", [g for g in ALL_GENERATORS if g.matrix_entropy_member], ids=lambda f: f.name
    )
    def test_near_maximum_implies_near_orthogonal(self, f):
        rng = rng_for(102)
        bound = jensen_max_constant(f)
        hits = 0
        for _ in range(100):
            p, q = random_pure(3, rng), random_pure(3, rng)
            value = jensen(f, p.to_state(), q.to_state())
            if abs(value - bound) < 1e-8:
                hits += 1
                overlap = float(np.trace(p.matrix @ q.matrix).real)
                assert overlap < 1e-8
        # orthogonal pairs are measure zero for random sampling
        basis_pair = orthogonal_pure_pair(3, rng)
        assert abs(jensen(f, basis_pair[0].to_state(), basis_pair[1].to_state()) - bound) < 1e-8


class TestViaBregmanIdentity:
    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_matches_direct_jensen(self, f, dim):
        rng = rng_for(1100 + dim)
        for _ in range(10):
            a, b = random_state(dim, rng=rng), random_state(dim, rng=rng)
            assert jensen_via_bregman(f, a, b) == pytest.approx(jensen(f, a, b), abs=1e-8)

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_exercises_rank_deficient_midpoint(self, f):
        # A + B rank-deficient: the Bregman legs run on a restricted support.
        rng = rng_for(111)
        basis = haar_unitary(4, rng)
        a_m = (basis * np.array([0.6, 0.4, 0.0, 0.0])) @ basis.conj().T
        b_m = (basis * np.array([0.2, 0.8, 0.0, 0.0])) @ basis.conj().T
        a = density_state((a_m + a_m.conj().T) / 2)
        b = density_state((b_m + b_m.conj().T) / 2)
        assert a.rank == 2 and b.rank == 2
        value = jensen_via_bregman(f, a, b)
        assert math.isfinite(value)
        assert value == pytest.approx(jensen(f, a, b), abs=1e-8)

    def test_quadratic_both_closed_forms(self):
        rng = rng_for(112)
        a, b = random_state(4, rng=rng), random_state(4, rng=rng)
        diff = (a.matrix - b.matrix) / 2
        expected = float(np.trace(diff @ diff).real)
        assert jensen_via_bregman(QUAD, a, b) == pytest.approx(expected, abs=1e-10)

    def test_midpoint_eigenvalue_below_eps_supp_stays_finite(self):
        # The midpoint eigenvalue 5.5e-11 lies below eps_supp; snapping it to 0
        # would make A leak out of the midpoint support and give +inf.
        a = density_state(np.diag([1.0 - 1.1e-10, 1.1e-10]))
        b = density_state(np.diag([1.0, 0.0]))
        assert midpoint_state(a, b).rank == 2
        value = jensen_via_bregman(XLOGX, a, b)
        assert math.isfinite(value)
        assert value == pytest.approx(jensen(XLOGX, a, b), abs=1e-15)

    def test_pure_orthogonal_log_two(self):
        a = density_state(np.diag([1.0, 0.0]))
        b = density_state(np.diag([0.0, 1.0]))
        assert jensen_via_bregman(XLOGX, a, b) == pytest.approx(math.log(2.0), abs=1e-12)


class TestSideChecks:
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_weyl_interlacing_rank_one_bump(self, dim):
        # Eigenvalues of R + D dominate those of D entrywise and the surplus
        # sums to tr R = 1.
        rng = rng_for(1200 + dim)
        for _ in range(10):
            r = random_pure(dim, rng)
            d = random_state(dim, rng=rng)
            before = np.sort(np.linalg.eigvalsh(d.matrix))
            after = np.sort(np.linalg.eigvalsh(d.matrix + r.matrix))
            surplus = after - before
            assert np.all(surplus >= -1e-9)
            assert float(surplus.sum()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_unitary_invariance(self, f):
        rng = rng_for(121)
        a, b = random_state(3, rng=rng), random_state(3, rng=rng)
        u = haar_unitary(3, rng)
        au = density_state(u @ a.matrix @ u.conj().T)
        bu = density_state(u @ b.matrix @ u.conj().T)
        assert jensen(f, au, bu) == pytest.approx(jensen(f, a, b), abs=1e-9)
