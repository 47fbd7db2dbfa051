"""Divergence invariants as properties over drawn state pairs.

Spectra are drawn to straddle the two tolerance knobs: small eigenvalues on
both sides of ``eps_supp`` and across ``cluster_tol``, bulk eigenvalues with
twins just inside and just outside one ``cluster_tol``.  No drawn gap lies
within a tenth of a knob of its threshold, so the eigensolver's rounding never
decides a zero or a cluster.  Pairs either share an eigenbasis (nested and
non-nested supports) or not.  The hypothesis profile is fixed in conftest.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from statediv import (
    DEFAULT_TOLS,
    bregman,
    bregman_trace_form,
    density_state,
    haar_unitary,
    jensen,
    jensen_max_constant,
    jensen_rank_one,
    jensen_via_bregman,
    parse_generator,
    random_state,
    rng_for,
    support_contained,
    transition_from_jensen,
)
from statediv.generators import catalog
from statediv.preserver import BISECT_TOL

GENERATORS = [parse_generator(s) for s in ("xlogx", "power:q=3/2", "quadratic")]
EPS, CT = DEFAULT_TOLS.eps_supp, DEFAULT_TOLS.cluster_tol
SMALL = (0.0, 0.3 * EPS, 0.9 * EPS, 1.1 * EPS, 3.0 * EPS, 0.4 * CT, 1.6 * CT, 6.0 * CT)
TWIN_GAPS = (0.0, 0.45 * CT, 0.9 * CT, 1.8 * CT, 3.0 * CT)


@st.composite
def spectra(draw, dim: int) -> np.ndarray:
    """A unit-trace spectrum: one dominant eigenvalue, bulk values, small values."""
    n_bulk = draw(st.integers(0, dim - 1))
    bulk = [
        0.04 * draw(st.integers(1, 4)) - draw(st.sampled_from(TWIN_GAPS)) for _ in range(n_bulk)
    ]
    small = [draw(st.sampled_from(SMALL)) for _ in range(dim - 1 - n_bulk)]
    rest = bulk + small
    return np.array([1.0 - sum(rest)] + rest)


def _state(spectrum: np.ndarray, basis: np.ndarray):
    matrix = (basis * spectrum) @ basis.conj().T
    return density_state((matrix + matrix.conj().T) / 2)


@st.composite
def state_pairs(draw):
    dim = draw(st.integers(2, 5))
    rng = rng_for(draw(st.integers(0, 2**16)))
    basis_x = haar_unitary(dim, rng)
    if draw(st.booleans()):
        basis_y = basis_x[:, draw(st.permutations(range(dim)))]
    else:
        basis_y = haar_unitary(dim, rng)
    return _state(draw(spectra(dim)), basis_x), _state(draw(spectra(dim)), basis_y), rng


def _same(u: float, v: float, tol: float = 1e-9) -> bool:
    if math.isinf(u) or math.isinf(v):
        return u == v
    return u == pytest.approx(v, abs=tol)


def _resolution(y) -> float:
    """How far H_f(., Y) may move when Y is rotated and decomposed again.

    eigh fixes a small eigenvalue b of Y only to about d * 1e-15, and dH/db
    is of size 1/b (for xlogx: (a - b) f''(b)), so H is resolved to
    d * 1e-15 / b_min beyond the usual 1e-9.
    """
    return 1e-9 + y.dim * 1e-15 / y.spectral.w[y.spectral.w > 0.0].min()


@given(state_pairs())
def test_zero_on_the_diagonal_and_nonnegative(pair):
    x, y, _ = pair
    for f in GENERATORS:
        assert bregman(f, x, x) == pytest.approx(0.0, abs=1e-9)
        assert bregman(f, x, y) >= 0.0


@given(state_pairs(), st.booleans())
def test_unitary_and_antiunitary_invariance(pair, antiunitary):
    x, y, rng = pair
    w = haar_unitary(x.dim, rng)

    def move(s):
        m = np.conj(s.matrix) if antiunitary else s.matrix
        return density_state(w @ m @ w.conj().T)

    for f in GENERATORS:
        assert _same(bregman(f, move(x), move(y)), bregman(f, x, y), _resolution(y))
        assert jensen(f, move(x), move(y)) == pytest.approx(jensen(f, x, y), abs=1e-9)


@given(state_pairs())
def test_two_bregman_routes_agree(pair):
    x, y, _ = pair
    for f in GENERATORS:
        assert _same(bregman_trace_form(f, x, y), bregman(f, x, y))


@given(state_pairs())
def test_jensen_symmetric_and_bounded(pair):
    x, y, _ = pair
    for f in GENERATORS:
        value = jensen(f, x, y)
        assert value == pytest.approx(jensen(f, y, x), abs=1e-12)
        assert value <= jensen_max_constant(f) + 1e-9


@given(state_pairs(), st.integers(1, 5), st.sampled_from((1.25, 1.5, 2.0, 3.0)))
def test_jensen_exactly_zero_on_equal_arguments(pair, rank, q):
    x, _, rng = pair
    drawn = random_state(x.dim, min(rank, x.dim), rng=rng)
    for f in (catalog("std_entropy"), catalog("power", q=q), catalog("quadratic")):
        assert jensen(f, x, x) == 0.0
        assert jensen(f, drawn, drawn) == 0.0


@given(state_pairs())
def test_jensen_via_bregman_agrees(pair):
    x, y, _ = pair
    for f in GENERATORS:
        assert jensen_via_bregman(f, x, y) == pytest.approx(jensen(f, x, y), abs=1e-8)


@given(state_pairs())
def test_infinite_iff_support_not_contained(pair):
    x, y, _ = pair
    contained = support_contained(x, y)
    for f in GENERATORS:
        expect_inf = not f.finite_zero_slope and not contained
        assert math.isinf(bregman(f, x, y)) == expect_inf
        assert math.isinf(bregman_trace_form(f, x, y)) == expect_inf


JENSEN_GENERATORS = [catalog("quadratic"), catalog("std_entropy")] + [
    catalog("power", q=q) for q in (1.25, 1.5, 3.0)
]


def _float_bisection(f, j: float) -> float:
    """The float loop of transition_from_jensen, written out as the reference."""
    m_f = jensen_max_constant(f)
    j = min(max(j, 0.0), m_f)
    lo, hi = 0.0, 1.0
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if jensen_rank_one(f, mid) > j:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@given(st.sampled_from(JENSEN_GENERATORS), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_array_jensen_inversion_equals_float_calls(f, fractions):
    m_f = jensen_max_constant(f)
    j = np.array([u * m_f for u in fractions] + [0.0, m_f, m_f * 1e-12])
    inverted = transition_from_jensen(f, j).tolist()
    assert inverted == [transition_from_jensen(f, x) for x in j.tolist()]
    assert inverted == [_float_bisection(f, x) for x in j.tolist()]
    p = np.array(fractions + [0.0, 1.0])
    assert jensen_rank_one(f, p).tolist() == [jensen_rank_one(f, x) for x in p.tolist()]
