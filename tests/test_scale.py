"""Divergences and ``verify_preserver`` at the dimensions the README claims (d = 64 and 128,
and ``verify_preserver`` at d = 256).

Full-rank, rank-d/2 and pure states, so both the finite double sum and the
infinite branch run.  The reference is built here from ``np.linalg.eigh``
alone: eigenvalues below eps_supp are 0, no clustering, no skipped terms.
"""

import math

import numpy as np
import pytest

from statediv import (
    DEFAULT_TOLS,
    SymmetryOp,
    bregman,
    bregman_trace_form,
    conjugation_oracle,
    depolarizing_oracle,
    haar_unitary,
    jensen,
    jensen_via_bregman,
    parse_generator,
    random_pure,
    random_state,
    rng_for,
    verify_preserver,
)

GENERATORS = {"xlogx": parse_generator("xlogx"), "power:q=3/2": parse_generator("power:q=3/2")}


def _f(spec: str, t: np.ndarray) -> np.ndarray:
    safe = np.where(t > 0.0, t, 1.0)
    if spec == "xlogx":
        return np.where(t > 0.0, t * np.log(safe), 0.0)
    return (t**1.5 - t) / 0.5


def _df(spec: str, t: np.ndarray) -> np.ndarray:
    safe = np.where(t > 0.0, t, 1.0)
    if spec == "xlogx":
        return np.where(t > 0.0, np.log(safe) + 1.0, -math.inf)
    return (1.5 * np.sqrt(t) - 1.0) / 0.5


def reference_bregman(spec: str, x: np.ndarray, y: np.ndarray) -> float:
    wx, vx = np.linalg.eigh(x)
    wy, vy = np.linalg.eigh(y)
    wx = np.where(wx < DEFAULT_TOLS.eps_supp, 0.0, wx)
    wy = np.where(wy < DEFAULT_TOLS.eps_supp, 0.0, wy)
    overlap = np.abs(vx.conj().T @ vy) ** 2
    keep = wy > 0.0 if spec == "xlogx" else np.ones_like(wy, dtype=bool)
    if float(wx @ overlap[:, ~keep].sum(axis=1)) >= DEFAULT_TOLS.eps_supp:
        return math.inf
    a, b, weights = wx[:, None], wy[keep], overlap[:, keep]
    terms = (_f(spec, a) - _f(spec, b) - _df(spec, b) * (a - b)) * weights
    return max(float(terms.sum()), 0.0)


@pytest.fixture(scope="module", params=[64, 128])
def states(request):
    dim = request.param
    rng = rng_for(9000 + dim)
    return {
        "full": random_state(dim, rng=rng),
        "half": random_state(dim, dim // 2, rng=rng),
        "pure": random_pure(dim, rng).to_state(),
    }


@pytest.mark.parametrize("spec", sorted(GENERATORS))
def test_bregman_routes_and_reference(states, spec):
    f = GENERATORS[spec]
    finite = infinite = 0
    for a, x in states.items():
        for b, y in states.items():
            if a == b:
                continue
            value = bregman(f, x, y)
            expected = reference_bregman(spec, x.matrix, y.matrix)
            assert math.isinf(value) == math.isinf(expected), (a, b)
            assert math.isinf(bregman_trace_form(f, x, y)) == math.isinf(value), (a, b)
            if math.isinf(value):
                infinite += 1
                continue
            finite += 1
            assert value == pytest.approx(expected, abs=1e-9), (a, b)
            assert bregman_trace_form(f, x, y) == pytest.approx(value, abs=1e-9), (a, b)
    assert finite >= 2
    assert infinite >= (2 if spec == "xlogx" else 0)


@pytest.mark.parametrize("spec", ["xlogx", "quadratic"])
def test_jensen_matches_averaged_bregman(states, spec):
    f = parse_generator(spec)
    for a, x in states.items():
        for b, y in states.items():
            if a < b:
                assert jensen_via_bregman(f, x, y) == pytest.approx(jensen(f, x, y), abs=1e-8)


@pytest.mark.parametrize("dim", [64, 128])
@pytest.mark.parametrize("kind", ["bregman", "jensen"])
def test_verify_antiunitary_conjugation(dim, kind):
    op = SymmetryOp(matrix=haar_unitary(dim, rng_for(9100 + dim)), antiunitary=True)
    outcome = verify_preserver(parse_generator("quadratic"), conjugation_oracle(op), kind)
    assert outcome.passed
    assert outcome.antiunitary is True
    assert outcome.failed_stage is None


def test_verify_antiunitary_conjugation_at_d256():
    op = SymmetryOp(matrix=haar_unitary(256, rng_for(9356)), antiunitary=True)
    outcome = verify_preserver(parse_generator("quadratic"), conjugation_oracle(op), "bregman")
    assert outcome.passed
    assert outcome.antiunitary is True


def test_verify_depolarizing_fails_on_divergences():
    outcome = verify_preserver(parse_generator("quadratic"), depolarizing_oracle(64), "bregman")
    assert not outcome.passed
    assert outcome.failed_stage == "divergence-deviation"
