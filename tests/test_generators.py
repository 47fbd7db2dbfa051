import dataclasses
import math

import numpy as np
import pytest

from statediv import (
    DomainError,
    GeneratorFunction,
    ParameterError,
    parse_generator,
    power_generator,
    quadratic,
    std_entropy,
    validate,
)
from statediv.generators import default_grid

CATALOG = [std_entropy(), power_generator(1.5), power_generator(3.0), quadratic()]


class TestCatalog:
    def test_std_entropy_values(self):
        f = std_entropy()
        assert f(1.0) == 0.0
        assert f(0.0) == 0.0
        # f'(x) = log x + 1, unbounded below at 0.
        assert f.slope(1.0) == pytest.approx(1.0)
        assert f.slope(math.e) == pytest.approx(2.0)
        assert f.slope_at_zero == float("-inf")
        assert f.matrix_entropy_member

    def test_quadratic_is_power_two(self):
        f = quadratic()
        xs = np.linspace(0.01, 5.0, 50)
        for x in xs:
            assert f(x) == pytest.approx(x**2 - x, abs=1e-14)
            assert f.slope(x) == pytest.approx(2 * x - 1, abs=1e-14)
        assert f.slope_at_zero == pytest.approx(-1.0)
        assert f.matrix_entropy_member

    def test_power_three(self):
        f = power_generator(3.0)
        assert f(2.0) == pytest.approx((8.0 - 2.0) / 2.0)
        assert f.slope_at_zero == pytest.approx(-0.5)
        assert not f.matrix_entropy_member

    def test_power_membership_boundary(self):
        assert power_generator(1.5).matrix_entropy_member
        assert power_generator(2.0).matrix_entropy_member
        assert not power_generator(2.1).matrix_entropy_member

    @pytest.mark.parametrize("q", [1.0, 0.5, -2.0])
    def test_power_requires_q_above_one(self, q):
        with pytest.raises(ParameterError):
            power_generator(q)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            std_entropy()(-0.5)
        with pytest.raises(DomainError):
            quadratic().slope(-1.0)


class TestNormalize:
    """A generator is shifted to f(0) = f(1) = 0 when it is built."""

    def test_square_becomes_quadratic(self):
        # Subtracting the affine interpolant through (0,0),(1,1) turns x^2
        # into x^2 - x.
        g = GeneratorFunction(
            name="square",
            fn=lambda x: x**2,
            dfn=lambda x: 2 * x,
            value_at_zero=0.0,
            slope_at_zero=0.0,
        )
        for x in np.linspace(0.0, 4.0, 40):
            assert g(x) == pytest.approx(x**2 - x, abs=1e-13)
            assert g.slope(x) == pytest.approx(2 * x - 1, abs=1e-13)
        assert (g.value_at_zero, g.slope_at_zero) == (0.0, -1.0)

    def test_exact_zeros_at_endpoints(self):
        g = GeneratorFunction(
            name="shifted",
            fn=lambda x: x**2 + 3.0 + 0.7 * x,
            dfn=lambda x: 2 * x + 0.7,
            value_at_zero=3.0,
            slope_at_zero=0.7,
        )
        assert g(0.0) == 0.0
        assert g(1.0) == 0.0

    def test_catalog_members_already_normalized(self):
        for f in CATALOG:
            g = dataclasses.replace(f)
            assert g.fn is f.fn and g.dfn is f.dfn
            for x in np.linspace(0.0, 3.0, 30):
                assert g(x) == f(x)

    def test_idempotent(self):
        once = GeneratorFunction(
            name="square",
            fn=lambda x: x**2,
            dfn=lambda x: 2 * x,
            value_at_zero=0.0,
            slope_at_zero=0.0,
        )
        twice = dataclasses.replace(once)
        assert twice == once
        assert twice.fn is once.fn and twice.dfn is once.dfn

    def test_infinite_slope_class_is_preserved(self):
        g = GeneratorFunction(
            name="shifted-xlogx",
            fn=lambda x: x * np.log(x) + 2.0 * x + 1.0,
            dfn=lambda x: np.log(x) + 3.0,
            value_at_zero=1.0,
            slope_at_zero=float("-inf"),
        )
        assert g.slope_at_zero == float("-inf")
        assert not g.finite_zero_slope

    @pytest.mark.parametrize("scale", [1e309, math.nan])
    def test_non_finite_value_at_one_is_rejected(self, scale):
        # Shifting by f(1) = inf or nan would make every value NaN.
        with pytest.raises(DomainError, match="at 1; cannot normalize"):
            GeneratorFunction(
                name="overflow",
                fn=lambda x: x * x * scale,
                dfn=lambda x: 2 * x * scale,
                value_at_zero=0.0,
                slope_at_zero=0.0,
            )


class TestValidate:
    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
    def test_catalog_members_clean(self, f):
        report = validate(f)
        assert report.ok, str(report)

    def test_concave_function_flagged(self):
        bad = GeneratorFunction(
            name="concave",
            fn=lambda x: -(x**2),
            dfn=lambda x: -2 * x,
            value_at_zero=0.0,
            slope_at_zero=0.0,
        )
        report = validate(bad)
        kinds = {v.kind for v in report.violations}
        assert "convexity" in kinds

    def test_mismatched_derivative_flagged(self):
        # Smooth approximation of |x - 1| paired with a wrong derivative field.
        bad = GeneratorFunction(
            name="kink",
            fn=lambda x: math.sqrt((x - 1.0) ** 2 + 1e-2),
            dfn=lambda x: 0.3,
            value_at_zero=math.sqrt(1.0 + 1e-2),
            slope_at_zero=0.3,
        )
        report = validate(bad)
        kinds = {v.kind for v in report.violations}
        assert "derivative-mismatch" in kinds

    def test_wrong_zero_slope_class_flagged(self):
        bad = GeneratorFunction(
            name="wrong-limit",
            fn=lambda x: x**2 - x,
            dfn=lambda x: 2 * x - 1,
            value_at_zero=0.0,
            slope_at_zero=-0.2,  # true limit is -1
        )
        report = validate(bad)
        kinds = {v.kind for v in report.violations}
        assert "zero-slope-class" in kinds

    def test_non_finite_values_flagged(self):
        # Finite at 0 and 1, so it builds; NaN beyond x = 2, where no other check can fail.
        bad = GeneratorFunction(
            name="nan-tail",
            fn=lambda x: np.where(x > 2.0, np.nan, x**2 - x),
            dfn=lambda x: np.where(x > 2.0, np.nan, 2 * x - 1),
            value_at_zero=0.0,
            slope_at_zero=-1.0,
        )
        report = validate(bad)
        assert not report.ok
        flagged = [v.location for v in report.violations if v.kind == "non-finite"]
        assert flagged == [x for x in default_grid().tolist() if x > 2.0]
        assert {v.kind for v in report.violations} == {"non-finite"}

    def test_bad_grid_rejected(self):
        with pytest.raises(ParameterError):
            validate(quadratic(), grid=[1.0, 0.5])
        with pytest.raises(ParameterError):
            validate(quadratic(), grid=[])


class TestProofDeviceMonotonicity:
    """Scalar monotonicity facts the Jensen analysis relies on."""

    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
    def test_difference_quotient_increasing(self, f):
        xs = default_grid(40, 1e-3, 10.0)
        quotient = lambda a, b: (f(a) - f(b)) / (a - b)
        for b in xs[::8]:
            values = [quotient(a, b) for a in xs if abs(a - b) > 1e-9]
            assert all(np.diff(values) > 0)
        for a in xs[::8]:
            values = [quotient(a, b) for b in xs if abs(a - b) > 1e-9]
            assert all(np.diff(values) > 0)

    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
    def test_shift_gap_increasing_on_unit_interval(self, f):
        grid = np.linspace(0.0, 1.0, 60)
        values = [f(a / 2 + 0.5) - f(a / 2) for a in grid]
        assert all(np.diff(values) > 0)


class TestParseGenerator:
    def test_names(self):
        assert parse_generator("xlogx").name == "xlogx"
        assert parse_generator("quadratic").name == "quadratic"
        f = parse_generator("power:q=3/2")
        assert f.name == "power(q=1.5)"
        assert f.slope_at_zero == pytest.approx(-2.0)
        assert parse_generator("power:q=2.5").name == "power(q=2.5)"

    @pytest.mark.parametrize("spec", ["power:q=1", "power:q=abc", "power:1.5", "huh", "power:q=0/0", "power:q=1e999"])
    def test_bad_specs(self, spec):
        with pytest.raises(ParameterError):
            parse_generator(spec)
