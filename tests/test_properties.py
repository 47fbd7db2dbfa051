"""Divergence invariants as properties over drawn state pairs.

Spectra are drawn to straddle the two tolerance knobs: small eigenvalues on
both sides of ``eps_supp`` and across ``cluster_tol``, bulk eigenvalues with
twins just inside and just outside one ``cluster_tol``.  No drawn gap lies
within a tenth of a knob of its threshold, so the eigensolver's rounding never
decides a zero or a cluster.  Pairs either share an eigenbasis (nested and
non-nested supports) or not.  Stacks of such pairs go through the stacked
Bregman and Jensen cores, which must equal one-pair calls bit for bit.
So must the stacked trace form, midpoints, Jensen via Bregman, state draws
and ``from_matrix`` (d = 2..8, under tolerances other than the defaults).
Perturbed probe images of a conjugation either reconstruct within
``RECONSTRUCT_TOL`` or are rejected as no preserver.  The hypothesis profile is
fixed in conftest.py.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from statediv import (
    DEFAULT_TOLS,
    DensityState,
    GeneratorFunction,
    NotAPreserverError,
    RankOneProjection,
    SymmetryOp,
    ValidationError,
    bregman,
    bregman_trace_form,
    density_state,
    haar_unitary,
    jensen,
    jensen_max_constant,
    jensen_rank_one,
    jensen_via_bregman,
    parse_generator,
    random_pure,
    random_state,
    recover_rank_two_spectrum,
    rng_for,
    support_contained,
    transition_from_jensen,
    wigner_probes,
    wigner_reconstruct,
)
from statediv.bregman import _bregman_pairs, _clamp_nonneg, _trace_form_pairs
from statediv.generators import power_generator, quadratic, std_entropy
from statediv.hermitian import apply_function, hermitian_part, trace_on_support
from statediv.jensen import _jensen_pairs, _jensen_via_bregman_pairs, _midpoint_states, midpoint_state
from statediv.sampling import _build_states, _draw_state
from statediv.preserver import BISECT_TOL, BRACKET_EPS, RECONSTRUCT_TOL, _probe_residual

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
    return 1e-9 + y.dim * 1e-15 / y.w[y.w > 0.0].min()


@given(state_pairs())
def test_zero_on_the_diagonal_and_nonnegative(pair):
    x, y, _ = pair
    for f in GENERATORS:
        assert bregman(f, x, x) == pytest.approx(0.0, abs=1e-9)
        assert bregman(f, x, y) >= 0.0


SHIFT_TOL = 1e-12


@given(state_pairs(), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_affine_shift_is_taken_out_when_the_generator_is_built(pair, beta, alpha):
    # f + beta + alpha x has the divergences of f.  Built as a generator it is
    # shifted back to g(0) = g(1) = 0; the shift is beta and f(1) + alpha,
    # exact only up to rounding, so the values agree within SHIFT_TOL.
    x, y, _ = pair
    for f in GENERATORS:
        g = GeneratorFunction(
            name=f"{f.name}+affine",
            fn=lambda t, f=f: f.fn(t) + beta + alpha * t,
            dfn=lambda t, f=f: f.dfn(t) + alpha,
            value_at_zero=beta,
            slope_at_zero=f.slope_at_zero + alpha,
            matrix_entropy_member=f.matrix_entropy_member,
        )
        assert g(0.0) == g(1.0) == 0.0
        assert dataclasses.replace(g, name="h").fn is g.fn
        for divergence in (bregman, jensen, bregman_trace_form):
            assert _same(divergence(g, x, y), divergence(f, x, y), SHIFT_TOL)


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
    for f in (std_entropy(), power_generator(q), quadratic()):
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


JENSEN_GENERATORS = [quadratic(), std_entropy()] + [power_generator(q) for q in (1.25, 1.5, 3.0)]


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
    ties = jensen_rank_one(f, np.array([0.5, 0.25, 0.75])).tolist()  # values at bisection midpoints
    j = np.array([u * m_f for u in fractions] + [0.0, m_f, m_f * 1e-12] + ties)
    inverted = transition_from_jensen(f, j).tolist()
    assert inverted == [transition_from_jensen(f, x) for x in j.tolist()]
    assert inverted == [_float_bisection(f, x) for x in j.tolist()]
    grid = j[: 2 * (len(j) // 2)].reshape(2, -1)
    want = [[_float_bisection(f, x) for x in row] for row in grid.tolist()]
    assert transition_from_jensen(f, grid).tolist() == want
    assert transition_from_jensen(f, np.float64(j[0])) == _float_bisection(f, float(j[0]))
    p = np.array(fractions + [0.0, 1.0])
    assert jensen_rank_one(f, p).tolist() == [jensen_rank_one(f, x) for x in p.tolist()]
    grid = p[: 2 * (len(p) // 2)].reshape(2, -1)
    want = [[jensen_rank_one(f, x) for x in row] for row in grid.tolist()]
    assert jensen_rank_one(f, grid).tolist() == want
    assert jensen_rank_one(f, np.float64(p[0])) == jensen_rank_one(f, float(p[0]))


def _gap(f, lam: float) -> float:
    return f.slope(1.0 - lam) - f.slope(lam)


def _spectrum_bisection(f, delta: float) -> float:
    """The bisection of recover_rank_two_spectrum, written out as the reference."""
    lo, hi = BRACKET_EPS, 0.5 - BRACKET_EPS
    if delta < _gap(f, hi):
        return hi
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _gap(f, mid) >= delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@given(
    st.sampled_from(JENSEN_GENERATORS),
    st.floats(0.0, 1.0, exclude_min=True),
    st.lists(st.booleans(), max_size=33),
)
def test_rank_two_spectrum_equals_reference_bisection(f, fraction, path):
    # A drawn share of the bracket's largest gap, and a tie: the gap at the
    # midpoint the bisection reaches by the steps in ``path``.
    lo, hi = BRACKET_EPS, 0.5 - BRACKET_EPS
    for up in path:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if up else (lo, mid)
    for delta in (fraction * _gap(f, BRACKET_EPS), _gap(f, 0.5 * (lo + hi))):
        if delta > 0.0:
            assert recover_rank_two_spectrum(f, delta) == _spectrum_bisection(f, delta)


def _one_pair_bregman(f, x, y) -> float:
    """The one-pair double sum of bregman, written out as the reference."""
    inner = x.v.conj().T @ y.v
    weights = inner.real**2 + inner.imag**2
    n = y.dim
    if not f.finite_zero_slope:
        if x.w @ weights[:, y.rank :].sum(axis=1) >= EPS:
            return math.inf
        n = y.rank
    a, b, weights = x.w[:, None], y.w[:n], weights[:, :n]
    terms = (f.values(a) - f.values(b) - f.slopes(b) * (a - b)) * weights
    return _clamp_nonneg(terms.sum(where=weights >= DEFAULT_TOLS.tol_num**2), DEFAULT_TOLS.tol_num)


def _one_pair_jensen(f, a, b) -> float:
    """The one-pair midpoint spectrum and trace sums of jensen, written out as the reference."""
    if a.v is b.v:
        mid = (a.w + b.w) / 2.0
    else:
        mid = np.maximum(np.linalg.eigvalsh((a.reconstruct() + b.reconstruct()) / 2.0), 0.0)
    fa, fb, fm = (float(f.values(w).sum()) for w in (a.w, b.w, mid))
    return _clamp_nonneg(0.5 * (fa + fb) - fm, DEFAULT_TOLS.tol_num)


def _on_basis(spectrum: np.ndarray, v: np.ndarray) -> DensityState:
    """The state with eigenvector array ``v`` itself attached, zeros decided."""
    w = np.sort(spectrum)[::-1]
    w[w < EPS] = 0.0
    return DensityState(w, v, matrix=(v * w) @ v.conj().T)


@st.composite
def pair_stacks(draw, min_dim: int = 1, max_dim: int = 9):
    """Pairs of one dimension: independent bases, permuted bases, one shared
    eigenvector array (kernels nested or not) and a state with itself."""
    dim = draw(st.integers(min_dim, max_dim))
    rng = rng_for(draw(st.integers(0, 2**16)))
    xs, ys = [], []
    for _ in range(draw(st.integers(1, 6))):
        basis = haar_unitary(dim, rng)
        x = _state(draw(spectra(dim)), basis)
        relation = draw(st.sampled_from(("independent", "permuted", "shared", "self")))
        if relation == "independent":
            y = _state(draw(spectra(dim)), haar_unitary(dim, rng))
        elif relation == "permuted":
            y = _state(draw(spectra(dim)), basis[:, draw(st.permutations(range(dim)))])
        elif relation == "shared":
            y = _on_basis(draw(spectra(dim)), x.v)
        else:
            y = x
        if draw(st.booleans()):
            x, y = y, x
        xs.append(x)
        ys.append(y)
    return xs, ys


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@given(pair_stacks(), st.sampled_from(GENERATORS))
def test_stacked_bregman_equals_one_pair_calls(stack, f):
    xs, ys = stack
    stacked = _bregman_pairs(f, xs, ys, DEFAULT_TOLS)
    assert _bits(stacked) == _bits(bregman(f, x, y) for x, y in zip(xs, ys))
    assert _bits(stacked) == _bits(_one_pair_bregman(f, x, y) for x, y in zip(xs, ys))


@given(pair_stacks(), st.sampled_from(GENERATORS))
def test_stacked_jensen_equals_one_pair_calls(stack, f):
    xs, ys = stack
    stacked = _jensen_pairs(f, xs, ys, DEFAULT_TOLS)
    assert _bits(stacked) == _bits(jensen(f, x, y) for x, y in zip(xs, ys))
    assert _bits(stacked) == _bits(_one_pair_jensen(f, x, y) for x, y in zip(xs, ys))


def test_stacked_divergences_cover_every_branch():
    """One stack mixing full-rank, nested rank-deficient, leaking and pure second
    arguments with shared-eigenvector pairs: xlogx keeps three eigenvalue counts."""
    rng = rng_for(1301)
    dim = 8
    full = random_state(dim, rng=rng)
    low = random_state(dim, 3, rng=rng)
    nested = _on_basis(np.array([0.5, 0.3, 0.2] + [0.0] * (dim - 3)), low.v)
    pure = random_pure(dim, rng).to_state()
    xs = [full, nested, full, pure, low, full, nested]
    ys = [random_state(dim, rng=rng), low, low, pure, nested, full, nested]
    xlogx = GENERATORS[0]
    values = _bregman_pairs(xlogx, xs, ys, DEFAULT_TOLS)
    assert math.isinf(values[2]) and math.isfinite(values[1]) and values[3] == 0.0
    assert len({y.rank for y in ys}) == 3
    for f in GENERATORS:
        assert _bits(_bregman_pairs(f, xs, ys, DEFAULT_TOLS)) == _bits(
            _one_pair_bregman(f, x, y) for x, y in zip(xs, ys)
        )
        assert _bits(_jensen_pairs(f, xs, ys, DEFAULT_TOLS)) == _bits(
            _one_pair_jensen(f, x, y) for x, y in zip(xs, ys)
        )


# Tolerances other than the defaults: the support knob below, at and above the
# small eigenvalues ``spectra`` draws around the default one, and other clamps.
CORE_TOLS = [
    DEFAULT_TOLS.replace(eps_supp=eps, tol_num=num) for eps, num in ((1e-12, 1e-9), (2e-10, 1e-12), (1e-8, 1e-10))
]


def _one_pair_trace_form(f, x, y, tols) -> float:
    """The one-pair operator-function route of bregman_trace_form, written out as the reference."""
    finite = f.finite_zero_slope
    if not finite and not support_contained(x, y, tols=tols):
        return math.inf
    n = y.dim if finite else y.rank
    dfy = (y.v[:, :n] * f.slopes(y.w[:n])) @ y.v[:, :n].conj().T
    expr = apply_function(x, f.values) - apply_function(y, f.values) - dfy @ (x.reconstruct() - y.reconstruct())
    value = float(np.trace(expr).real) if finite else trace_on_support(expr, y.support, tols=tols)
    return _clamp_nonneg(value, tols.tol_num)


def _one_pair_midpoint(a, b) -> DensityState:
    """The one-pair midpoint state, written out as the reference."""
    matrix = hermitian_part((a.reconstruct() + b.reconstruct()) / 2.0)
    w, v = np.linalg.eigh(matrix)
    return DensityState(np.maximum(w[::-1], 0.0), np.ascontiguousarray(v[:, ::-1]), matrix=matrix)


def _same_state(s, t) -> bool:
    return all(
        np.ascontiguousarray(u).tobytes() == np.ascontiguousarray(v).tobytes()
        for u, v in ((s.w, t.w), (s.v, t.v), (s.matrix, t.matrix))
    )


@given(pair_stacks(2, 8), st.sampled_from(GENERATORS), st.sampled_from(CORE_TOLS))
def test_stacked_trace_form_equals_one_pair_calls(stack, f, tols):
    xs, ys = stack
    stacked = _trace_form_pairs(f, xs, ys, tols)
    assert _bits(stacked) == _bits(bregman_trace_form(f, x, y, tols=tols) for x, y in zip(xs, ys))
    assert _bits(stacked) == _bits(_one_pair_trace_form(f, x, y, tols) for x, y in zip(xs, ys))


@given(pair_stacks(2, 8))
def test_stacked_midpoints_equal_one_pair_calls(stack):
    xs, ys = stack
    for mid, x, y in zip(_midpoint_states(xs, ys), xs, ys, strict=True):
        assert _same_state(mid, midpoint_state(x, y))
        assert _same_state(mid, _one_pair_midpoint(x, y))


@given(pair_stacks(2, 8), st.sampled_from(GENERATORS), st.sampled_from(CORE_TOLS))
def test_stacked_jensen_via_bregman_equals_one_pair_calls(stack, f, tols):
    xs, ys = stack
    stacked = _jensen_via_bregman_pairs(f, xs, ys, _midpoint_states(xs, ys), tols)
    assert _bits(stacked) == _bits(jensen_via_bregman(f, x, y, tols=tols) for x, y in zip(xs, ys))
    halves = (
        (bregman(f, x, mid, tols=tols), bregman(f, y, mid, tols=tols))
        for x, y, mid in ((x, y, _one_pair_midpoint(x, y)) for x, y in zip(xs, ys))
    )
    assert _bits(stacked) == _bits(0.5 * (left + right) for left, right in halves)


@given(
    st.integers(2, 8),
    st.data(),
    st.sampled_from((0.0, 1e-3)),
    st.sampled_from((1e-10, 0.02, 0.1, 0.3)),
    st.integers(0, 2**16),
)
def test_draws_and_one_build_equal_consecutive_random_states(dim, data, floor, eps, seed):
    # eps_supp from the default up into the drawn spectra, so the knob decides zeros.
    rank, count = data.draw(st.integers(1, dim)), data.draw(st.integers(1, 6))
    tols = DEFAULT_TOLS.replace(eps_supp=eps)
    rng, reference = rng_for(seed), rng_for(seed)
    built = _build_states([_draw_state(dim, rank, rng) for _ in range(count)], eigenvalue_floor=floor, tols=tols)
    single = [random_state(dim, rank, rng=reference, eigenvalue_floor=floor, tols=tols) for _ in range(count)]
    assert all(_same_state(s, t) for s, t in zip(built, single, strict=True))
    assert rng.bit_generator.state == reference.bit_generator.state


def _negative(matrix: np.ndarray, rng) -> np.ndarray:
    """A unit-trace Hermitian matrix of the same dimension with eigenvalue -0.3."""
    u = haar_unitary(matrix.shape[0], rng)
    spectrum = np.zeros(matrix.shape[0])
    spectrum[:2] = (1.3, -0.3)
    return (u * spectrum) @ u.conj().T


BAD_MATRICES = {
    "non-finite": lambda m, rng: np.where(np.eye(len(m), k=-1) == 1, math.nan, m),
    "non-hermitian": lambda m, rng: m + np.triu(np.full(m.shape, 1e-6), k=1),
    "trace": lambda m, rng: 1.01 * m,
    "negative": _negative,
}


@given(
    st.integers(2, 8),
    st.integers(1, 6),
    st.data(),
    st.sampled_from(sorted(BAD_MATRICES)),
    st.sampled_from(CORE_TOLS),
    st.integers(0, 2**16),
)
def test_stacked_from_matrix_equals_one_matrix_calls(dim, count, data, bad, tols, seed):
    rng = rng_for(seed)
    stack = np.array([random_state(dim, data.draw(st.integers(1, dim)), rng=rng).matrix for _ in range(count)])
    built = DensityState._from_matrices(stack, tols)
    assert all(_same_state(s, DensityState.from_matrix(m, tols)) for s, m in zip(built, stack, strict=True))
    position = data.draw(st.integers(0, count - 1))
    stack[position] = BAD_MATRICES[bad](stack[position], rng)
    with pytest.raises(ValidationError) as one:
        DensityState.from_matrix(stack[position], tols)
    with pytest.raises(ValidationError) as stacked:
        DensityState._from_matrices(stack, tols)
    assert str(stacked.value) == str(one.value)


@given(
    st.integers(2, 6),
    st.booleans(),
    st.integers(0, 2**16),
    st.sampled_from((0.0, 1e-10, 1e-8, 1e-7, 1e-6, 1e-4, 1e-2)),
)
def test_perturbed_probe_images_reconstruct_or_are_rejected(dim, antiunitary, seed, noise):
    """Noise of every size, from far inside the residual gate to far outside the
    pair gate, and a random global phase on each image: the reconstruction fits
    within ``RECONSTRUCT_TOL`` or raises ``NotAPreserverError``, nothing else,
    and noise far inside the residual gate always fits."""
    rng = rng_for(seed)
    source = SymmetryOp(matrix=haar_unitary(dim, rng), antiunitary=antiunitary)
    images = []
    for probe in wigner_probes(dim):
        v = source.apply_vector(probe.vector)
        v = v + noise * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        images.append(RankOneProjection.from_vector(np.exp(2j * np.pi * rng.random()) * v))
    try:
        op, residual = wigner_reconstruct(images)
    except NotAPreserverError:
        assert noise > 1e-10
        return
    assert residual <= RECONSTRUCT_TOL
    assert residual == _probe_residual(op, wigner_probes(dim), images)
    assert op.antiunitary == antiunitary
