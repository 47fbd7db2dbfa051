import dataclasses
import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest

from statediv import (
    DEFAULT_TOLS,
    DensityState,
    DimensionMismatchError,
    NotAPreserverError,
    OracleError,
    ParameterError,
    PreserverOracle,
    RangeError,
    RankOneProjection,
    SymmetryOp,
    ValidationError,
    bregman,
    bregman_rank_one_pair,
    conjugation_oracle,
    density_state,
    depolarizing_oracle,
    diagonal_oracle,
    haar_unitary,
    is_pure_by_max,
    jensen,
    jensen_max_constant,
    jensen_rank_one,
    max_divergence_functional,
    parse_generator,
    probe_labels,
    probe_transitions_via_divergence,
    pure_reference_value,
    quadratic,
    random_pure,
    random_state,
    rank_two_mixture,
    rank_two_offset,
    recover_rank_two_spectrum,
    rng_for,
    std_entropy,
    transition_from_bregman,
    transition_from_bregman_rank_two,
    transition_from_jensen,
    transition_probability,
    transition_table,
    transpose_oracle,
    verify_preserver,
    wigner_probes,
    wigner_reconstruct,
)
from statediv import preserver
from statediv.preserver import PROBE_LAM, _pair_divergences, _probe_residual
from conftest import mixed_state_with_gap, orthogonal_pure_pair

XLOGX = std_entropy()
QUAD = quadratic()
P15 = parse_generator("power:q=3/2")
FINITE_GENERATORS = [P15, QUAD]
ALL_GENERATORS = [XLOGX, P15, QUAD]


class TestTransitionFromBregman:
    def test_zero_divergence_means_equal(self):
        assert transition_from_bregman(QUAD, 0.0) == 1.0

    def test_quadratic_span_endpoint(self):
        # f'(1) - f'(0) = 2 for the quadratic generator.
        assert transition_from_bregman(QUAD, 2.0) == 0.0

    def test_quadratic_midpoint(self):
        assert transition_from_bregman(QUAD, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            transition_from_bregman(QUAD, 2.5)
        with pytest.raises(RangeError):
            transition_from_bregman(QUAD, -0.5)

    def test_infinite_class_unsupported(self):
        with pytest.raises(ParameterError):
            transition_from_bregman(XLOGX, 0.3)

    @pytest.mark.parametrize("f", FINITE_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_roundtrip_random_pairs(self, f, dim):
        rng = rng_for(1300 + dim)
        for _ in range(10):
            p, q = random_pure(dim, rng), random_pure(dim, rng)
            h = bregman_rank_one_pair(f, p, q)
            assert transition_from_bregman(f, h) == pytest.approx(
                transition_probability(p, q), abs=1e-8
            )


class TestTransitionFromJensen:
    def test_endpoints(self):
        for f in ALL_GENERATORS:
            assert transition_from_jensen(f, 0.0) == pytest.approx(1.0, abs=1e-9)
            assert transition_from_jensen(f, jensen_max_constant(f)) == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_quarter(self):
        # jensen_rank_one(quadratic, p) = (1 - p)/2, so j = 1/4 inverts to 1/2.
        assert transition_from_jensen(QUAD, 0.25) == pytest.approx(0.5, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            transition_from_jensen(QUAD, 0.6)
        with pytest.raises(RangeError):
            transition_from_jensen(QUAD, -0.1)

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_roundtrip_random_pairs(self, f, dim):
        rng = rng_for(1400 + dim)
        for _ in range(10):
            p, q = random_pure(dim, rng), random_pure(dim, rng)
            j = jensen(f, p.to_state(), q.to_state())
            assert transition_from_jensen(f, j) == pytest.approx(
                transition_probability(p, q), abs=1e-6
            )


class TestTransitionRankTwoDevice:
    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_roundtrip_inside_span(self, f):
        rng = rng_for(141)
        for dim in (2, 3, 4):
            p, q = orthogonal_pure_pair(dim, rng)
            lam = 0.25
            for _ in range(5):
                theta = float(rng.uniform(0.0, math.pi / 2))
                r = RankOneProjection.from_vector(
                    math.cos(theta) * p.vector + math.sin(theta) * np.exp(0.9j) * q.vector
                )
                value = bregman(f, r.to_state(), rank_two_mixture(lam, p, q))
                recovered = transition_from_bregman_rank_two(f, lam, value)
                assert recovered == pytest.approx(transition_probability(r, p), abs=1e-8)

    def test_out_of_range(self):
        lam = 0.25
        high = -QUAD.slope(lam) + rank_two_offset(QUAD, lam)
        with pytest.raises(RangeError):
            transition_from_bregman_rank_two(QUAD, lam, high + 1.0)


class TestSpectrumRecovery:
    def test_quadratic_linear_gap(self):
        # delta = 2(1 - 2 lam), so delta = 1 gives lam = 1/4.
        assert recover_rank_two_spectrum(QUAD, 1.0) == pytest.approx(0.25, abs=1e-8)

    def test_xlogx_log_odds(self):
        # delta = log((1 - lam)/lam), so delta = log 3 gives lam = 1/4.
        assert recover_rank_two_spectrum(XLOGX, math.log(3.0)) == pytest.approx(0.25, abs=1e-8)

    def test_boundary_behavior(self):
        assert recover_rank_two_spectrum(XLOGX, 1e-6) == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_roundtrip_random_lambdas(self, f):
        rng = rng_for(151)
        for _ in range(25):
            lam = float(rng.uniform(0.01, 0.49))
            delta = f.slope(1.0 - lam) - f.slope(lam)
            assert recover_rank_two_spectrum(f, delta) == pytest.approx(lam, abs=1e-8)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            recover_rank_two_spectrum(QUAD, 0.0)
        with pytest.raises(RangeError):
            recover_rank_two_spectrum(QUAD, -1.0)
        with pytest.raises(RangeError):
            recover_rank_two_spectrum(QUAD, 2.5)  # beyond f'(1) - f'(0) = 2


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFiniteInversionInputs:
    RANK_TWO_MIDDLE = 0.5 * (-XLOGX.slope(0.25) - XLOGX.slope(0.75)) + rank_two_offset(XLOGX, 0.25)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_float_rejected(self, bad):
        with pytest.raises(RangeError):
            transition_from_bregman(QUAD, bad)
        with pytest.raises(RangeError):
            transition_from_bregman_rank_two(XLOGX, 0.25, bad)
        with pytest.raises(RangeError):
            transition_from_jensen(QUAD, bad)
        with pytest.raises(RangeError):
            recover_rank_two_spectrum(XLOGX, bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_array_entry_rejected(self, bad):
        with pytest.raises(RangeError):
            transition_from_bregman(QUAD, np.array([0.1, bad, 0.2]))
        with pytest.raises(RangeError):
            transition_from_bregman_rank_two(XLOGX, 0.25, np.array([self.RANK_TWO_MIDDLE, bad]))
        with pytest.raises(RangeError):
            transition_from_jensen(QUAD, np.array([0.1, bad, 0.2]))


class TestRankTwoExtremalValues:
    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_sampled_extremes_approach_closed_forms(self, f):
        rng = rng_for(161)
        p, q = orthogonal_pure_pair(3, rng)
        lam = 0.3
        mixture = rank_two_mixture(lam, p, q)
        offset = rank_two_offset(f, lam)
        top = -f.slope(lam) + offset
        bottom = -f.slope(1.0 - lam) + offset
        values = []
        for _ in range(500):
            theta = float(rng.uniform(0.0, math.pi / 2))
            phase = np.exp(1j * float(rng.uniform(0.0, 2 * math.pi)))
            r = RankOneProjection.from_vector(
                math.cos(theta) * p.vector + math.sin(theta) * phase * q.vector
            )
            values.append(bregman(f, r.to_state(), mixture))
        values = np.array(values)
        assert np.all(values <= top + 1e-9)
        assert np.all(values >= bottom - 1e-9)
        # sampling resolution: 500 draws come close to both extremes
        assert top - values.max() < 0.05 * (top - bottom)
        assert values.min() - bottom < 0.05 * (top - bottom)


    @pytest.mark.parametrize("lam", [1e-11, 5e-11, 2e-10, 0.25])
    def test_mixture_decides_zeros_as_from_matrix(self, lam):
        e1, e2 = (RankOneProjection.from_vector(np.eye(3)[k]) for k in (0, 1))
        mixture = rank_two_mixture(lam, e1, e2)
        decomposed = DensityState.from_matrix(mixture.matrix)
        assert mixture.matrix[0, 0] == lam  # the matrix keeps lam P; only the spectrum decides zeros
        assert mixture.rank == decomposed.rank == (1 if lam < DEFAULT_TOLS.eps_supp else 2)
        value = bregman(XLOGX, e1.to_state(), mixture)
        assert math.isinf(value) == math.isinf(bregman(XLOGX, e1.to_state(), decomposed)) == (lam < DEFAULT_TOLS.eps_supp)


class TestMaxDivergenceFunctional:
    def test_quadratic_pure_qubit(self):
        # max over the Bloch ball of tr(P - D)^2 is 2, at the antipodal pure state.
        pure = density_state(np.diag([1.0, 0.0]))
        assert max_divergence_functional(QUAD, pure) == pytest.approx(2.0, abs=1e-9)

    def test_quadratic_maximally_mixed_qubit(self):
        mixed = density_state(np.eye(2) / 2)
        assert max_divergence_functional(QUAD, mixed) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("f", FINITE_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3])
    def test_pure_exceeds_maximally_mixed(self, f, dim):
        rng = rng_for(171)
        pure = random_pure(dim, rng).to_state()
        mixed = density_state(np.eye(dim) / dim)
        assert max_divergence_functional(f, pure) > max_divergence_functional(f, mixed)

    def test_infinite_class_rejected(self):
        with pytest.raises(ParameterError):
            max_divergence_functional(XLOGX, density_state(np.eye(2) / 2))

    def test_search_is_lower_bound_certified_by_samples(self):
        rng = rng_for(172)
        x = random_state(3, rng=rng)
        best = max_divergence_functional(QUAD, x)
        for _ in range(50):
            d = random_state(3, rng=rng)
            assert bregman(QUAD, x, d) <= best + 1e-9

    def test_deterministic(self):
        rng = rng_for(173)
        x = random_state(3, rng=rng)
        assert max_divergence_functional(P15, x) == max_divergence_functional(P15, x)

    @pytest.mark.parametrize("f", FINITE_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_closed_form_bounds_random_pure_candidates(self, f, dim):
        # H_f(X, .) on pure states is linear on the overlap simplex, so no pure
        # state beats the best eigenvector of X.
        rng = rng_for(174 + dim)
        basis = haar_unitary(dim, rng)
        pure = RankOneProjection.from_vector(basis[:, 0])
        states = [
            random_state(dim, rng=rng),
            pure.to_state(),
            rank_two_mixture(0.25, pure, RankOneProjection.from_vector(basis[:, 1])),
        ]
        candidates = [random_pure(dim, rng).to_state() for _ in range(512)]
        for x in states:
            best = max_divergence_functional(f, x)
            assert max(bregman(f, x, c) for c in candidates) <= best + 1e-12


class TestPurityDetection:
    @pytest.mark.parametrize("f", FINITE_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3])
    def test_examples(self, f, dim):
        rng = rng_for(1800 + dim)
        ref = pure_reference_value(f, dim)
        assert is_pure_by_max(f, random_pure(dim, rng).to_state(), ref)
        assert not is_pure_by_max(f, density_state(np.eye(dim) / dim), ref)

    def test_slightly_mixed_rejected(self):
        rng = rng_for(181)
        basis = haar_unitary(3, rng)
        weights = np.array([0.9, 0.1, 0.0])
        matrix = (basis * weights) @ basis.conj().T
        state = density_state((matrix + matrix.conj().T) / 2)
        ref = pure_reference_value(QUAD, 3)
        assert not is_pure_by_max(QUAD, state, ref)

    @pytest.mark.parametrize("f", FINITE_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [2, 3])
    def test_separation_margin(self, f, dim):
        # Pure values cluster together; mixed values (eigenvalue gap >= 0.1)
        # stay strictly below all of them.
        rng = rng_for(1900 + dim)
        pure_values = [
            max_divergence_functional(f, random_pure(dim, rng).to_state()) for _ in range(10)
        ]
        mixed_values = [
            max_divergence_functional(f, mixed_state_with_gap(dim, rng)) for _ in range(10)
        ]
        assert min(pure_values) - max(mixed_values) > 0.01


class TestWignerProbes:
    def test_family_size_and_labels(self):
        for dim in (2, 3, 5):
            probes = wigner_probes(dim)
            labels = probe_labels(dim)
            assert len(probes) == 2 * dim
            assert len(labels) == 2 * dim
            assert labels[0] == "e1"
            assert labels[-1] == "e1+i*e2"

    @pytest.mark.parametrize("dim", [1, 0])
    def test_dim_one_rejected(self, dim):
        with pytest.raises(ParameterError, match=rf"need dim >= 2, got {dim}$"):
            wigner_probes(dim)

    def test_transition_table_of_basis_part_is_doubly_stochastic(self):
        table = transition_table(wigner_probes(4)[:4])
        assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= DEFAULT_TOLS.tol_num
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= DEFAULT_TOLS.tol_num


class TestWignerReconstruct:
    def test_identity_images(self):
        probes = wigner_probes(3)
        op, _ = wigner_reconstruct(probes)
        assert not op.antiunitary
        np.testing.assert_allclose(op.matrix, np.eye(3), atol=1e-9)

    def test_conjugated_images_detect_antiunitary(self):
        # Entrywise conjugation fixes the real probes and flips the i-probe.
        probes = wigner_probes(3)
        images = [RankOneProjection.from_vector(np.conj(p.vector)) for p in probes]
        op, _ = wigner_reconstruct(images)
        assert op.antiunitary
        np.testing.assert_allclose(op.matrix, np.eye(3), atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("antiunitary", [False, True])
    def test_seeded_roundtrip(self, dim, antiunitary):
        rng = rng_for(2000 + dim + int(antiunitary))
        source = SymmetryOp(matrix=haar_unitary(dim, rng), antiunitary=antiunitary)
        images = [source.apply_projection(p) for p in wigner_probes(dim)]
        rebuilt, residual = wigner_reconstruct(images)
        assert residual == _probe_residual(rebuilt, wigner_probes(dim), images)
        assert rebuilt.antiunitary == antiunitary
        worst = 0.0
        for _ in range(100):
            r = random_pure(dim, rng)
            worst = max(
                worst,
                float(np.max(np.abs(rebuilt.apply_matrix(r.matrix) - source.apply_matrix(r.matrix)))),
            )
        assert worst < 1e-8

    def test_phase_convention(self):
        rng = rng_for(201)
        source = SymmetryOp(matrix=haar_unitary(4, rng), antiunitary=False)
        images = [source.apply_projection(p) for p in wigner_probes(4)]
        rebuilt, _ = wigner_reconstruct(images)
        first = rebuilt.matrix[np.argmax(np.abs(rebuilt.matrix[:, 0]) > 1e-9), 0]
        leading = next(x for x in rebuilt.matrix[:, 0] if abs(x) > 1e-9)
        assert abs(leading.imag) < 1e-9
        assert leading.real > 0

    def test_corrupted_probe_rejected(self):
        rng = rng_for(202)
        source = SymmetryOp(matrix=haar_unitary(3, rng), antiunitary=False)
        images = [source.apply_projection(p) for p in wigner_probes(3)]
        images[4] = random_pure(3, rng)  # replace one superposition image
        with pytest.raises(NotAPreserverError):
            wigner_reconstruct(images)

    def test_nan_probe_residual_on_a_later_image_fails(self):
        # The vectors are intact, so the pair gate passes; only the residual,
        # read from the matrices, sees the NaN.
        rng = rng_for(203)
        source = SymmetryOp(matrix=haar_unitary(3, rng), antiunitary=False)
        images = [source.apply_projection(p) for p in wigner_probes(3)]
        matrix = images[2].matrix.copy()
        matrix[1, 1] = math.nan
        images[2] = RankOneProjection(vector=images[2].vector, source_matrix=matrix)
        assert math.isnan(_probe_residual(source, wigner_probes(3), images))
        with pytest.raises(NotAPreserverError, match="misses the probe images by nan"):
            wigner_reconstruct(images)

    def test_inconsistent_transitions_name_the_pair(self):
        probes = wigner_probes(2)
        images = list(probes)
        images[1] = probes[0]  # e2 mapped onto e1: transitions break
        with pytest.raises(NotAPreserverError, match="e1"):
            wigner_reconstruct(images)

    @pytest.mark.parametrize(
        "dim, index, pair",
        [
            # e3 mapped onto e2 breaks (e2, e3) and the pairs of e3 with the
            # superpositions; (e2, e3) comes first with a < b scanned row by row.
            (3, 2, "e2, e3"),
            # (e1 + e2)/sqrt(2) mapped onto e2, orthogonal to the image of e1,
            # leaves no phase anchor; the gate rejects it at its first pair.
            (2, 2, "e1, e1+e2"),
        ],
    )
    def test_gate_names_first_pair_in_loop_order(self, dim, index, pair):
        probes = wigner_probes(dim)
        images = list(probes)
        images[index] = probes[1]
        with pytest.raises(NotAPreserverError, match=rf"probe pair \({re.escape(pair)}\)"):
            wigner_reconstruct(images)

    def test_wrong_count_rejected(self):
        with pytest.raises(ParameterError):
            wigner_reconstruct(wigner_probes(3)[:-1])


class TestTransitionsViaDivergence:
    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("kind", ["bregman", "jensen"])
    def test_recovers_direct_table(self, f, kind):
        probes = wigner_probes(3)
        direct = transition_table(probes)
        recovered = probe_transitions_via_divergence(f, probes, kind)
        assert np.max(np.abs(recovered - direct)) < 1e-6

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("kind", ["bregman", "jensen"])
    @pytest.mark.parametrize("dim", [8, 16])
    def test_recovers_direct_table_at_larger_dim(self, f, kind, dim):
        probes = wigner_probes(dim)
        direct = transition_table(probes)
        recovered = probe_transitions_via_divergence(f, probes, kind)
        assert np.max(np.abs(recovered - direct)) < 1e-6

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_near_identical_pair_is_transition_one(self, f):
        # 1 - tr PQ = 1e-10 < tol_num: the pair counts as identical, as in
        # bregman_rank_one_pair (finite f'(0)) and on the rank-two route.
        angle = 1e-5
        family = [
            RankOneProjection.from_vector([1.0, 0.0]),
            RankOneProjection.from_vector([math.cos(angle), math.sin(angle)]),
        ]
        recovered = probe_transitions_via_divergence(f, family, "bregman")
        assert recovered[0, 1] == 1.0

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("dim", [3, 8, 16])
    def test_jensen_route_equals_per_pair_float_inversion(self, f, dim):
        # images of the probes under a random antiunitary: transitions off the dyadic grid
        op = SymmetryOp(matrix=haar_unitary(dim, rng_for(260 + dim)), antiunitary=True)
        images = [op.apply_projection(p) for p in wigner_probes(dim)]
        recovered = probe_transitions_via_divergence(f, images, "jensen")
        gram = transition_table(images)
        for a, b in zip(*np.triu_indices(len(images), 1)):
            expected = transition_from_jensen(f, jensen_rank_one(f, float(gram[a, b])))
            assert recovered[a, b] == recovered[b, a] == expected

    def test_case_one_uses_rank_two_probing(self):
        # xlogx rank-one Bregman values are 0/inf; the recovered table must
        # still match, which exercises the mixture device.
        rng = rng_for(211)
        family = [random_pure(3, rng) for _ in range(4)]
        direct = transition_table(family)
        recovered = probe_transitions_via_divergence(XLOGX, family, "bregman")
        assert np.max(np.abs(recovered - direct)) < 1e-8


def _family(name, dim):
    if name == "probes":
        return wigner_probes(dim)
    rng = rng_for(240 + dim)
    return [random_pure(dim, rng) for _ in range(8)]


class TestClosedFormPairValues:
    """The probe stage's closed-form pair values against the general routines."""

    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    @pytest.mark.parametrize("kind", ["bregman", "jensen"])
    @pytest.mark.parametrize("family", ["probes", "random"])
    @pytest.mark.parametrize("dim", [3, 8, 16])
    def test_matches_general_routine(self, f, kind, family, dim):
        lam = PROBE_LAM
        probes = _family(family, dim)
        rows, cols = np.triu_indices(len(probes), 1)
        p = transition_table(probes)[rows, cols]
        closed = _pair_divergences(f, p, kind, DEFAULT_TOLS)
        checked = 0
        for a, b, value in zip(rows, cols, closed):
            r, q = probes[a], probes[b]
            if kind == "jensen":
                general = jensen(f, r.to_state(), q.to_state())
            elif f.finite_zero_slope:
                general = bregman(f, r.to_state(), q.to_state())
            else:
                overlap = np.vdot(q.vector, r.vector)
                if 1.0 - abs(overlap) ** 2 < DEFAULT_TOLS.tol_num:
                    continue  # no orthocomplement: the stage takes transition 1
                residue = RankOneProjection.from_vector(r.vector - overlap * q.vector)
                general = bregman(f, r.to_state(), rank_two_mixture(lam, q, residue))
            assert value == pytest.approx(general, abs=1e-10)
            checked += 1
        assert checked > 0

    def test_gram_matches_transition_probability(self):
        probes = _family("random", 5)
        gram = transition_table(probes)
        for a, p in enumerate(probes):
            for b, q in enumerate(probes):
                want = 1.0 if a == b else transition_probability(p, q)
                assert gram[a, b] == pytest.approx(want, abs=1e-15)

    def test_gram_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            transition_table(wigner_probes(2) + wigner_probes(3))

    @pytest.mark.parametrize("kind", ["bregman", "jensen"])
    def test_empty_family_is_a_parameter_error(self, kind):
        with pytest.raises(ParameterError, match="at least one projection"):
            transition_table([])
        with pytest.raises(ParameterError, match="at least one projection"):
            probe_transitions_via_divergence(QUAD, [], kind)


class TestVerifyPreserver:
    def test_unitary_conjugation_bregman_xlogx(self):
        rng = rng_for(221)
        op = SymmetryOp(matrix=haar_unitary(3, rng), antiunitary=False)
        outcome = verify_preserver(XLOGX, conjugation_oracle(op), "bregman", sample_size=8, seed=3)
        assert outcome.passed
        assert outcome.max_divergence_deviation < 1e-8
        assert outcome.max_state_residual < 1e-8
        assert outcome.max_probe_residual < 1e-8
        assert outcome.antiunitary is False

    def test_transpose_is_antiunitary_preserver(self):
        outcome = verify_preserver(XLOGX, transpose_oracle(3), "jensen", sample_size=8, seed=4)
        assert outcome.passed
        assert outcome.antiunitary is True
        assert outcome.max_divergence_deviation < 1e-8
        assert outcome.max_state_residual < 1e-8

    def test_depolarizing_flagged(self):
        outcome = verify_preserver(
            XLOGX, depolarizing_oracle(3, 0.5), "bregman", sample_size=8, seed=5
        )
        assert not outcome.passed
        assert outcome.max_divergence_deviation > 1e-3
        assert not outcome.probe_images_rank_one

    def test_diagonal_projection_flagged(self):
        outcome = verify_preserver(QUAD, diagonal_oracle(3), "jensen", sample_size=8, seed=6)
        assert not outcome.passed
        assert outcome.max_divergence_deviation > 1e-3

    def test_report_is_serializable(self):
        rng = rng_for(222)
        op = SymmetryOp(matrix=haar_unitary(2, rng), antiunitary=True)
        outcome = verify_preserver(P15, conjugation_oracle(op), "bregman", sample_size=4, seed=7)
        payload = json.dumps(outcome.to_dict())
        assert "antiunitary" in payload

    def test_failed_stage_names_the_first_failed_stage(self):
        rng = rng_for(224)
        op = SymmetryOp(matrix=haar_unitary(3, rng), antiunitary=False)
        outcome = verify_preserver(QUAD, conjugation_oracle(op), "bregman", sample_size=4, seed=8)
        assert outcome.passed
        assert outcome.failed_stage is None
        assert outcome.to_dict()["failed_stage"] is None
        over = 2.0 * outcome.divergence_tol
        failures = [  # in the order verify_preserver runs the stages
            ("divergence-deviation", {"max_divergence_deviation": over}),
            ("divergence-deviation", {"max_divergence_deviation": math.nan}),
            ("probe-rank-one", {"probe_images_rank_one": False}),
            ("reconstruction", {"symmetry": None}),
            ("state-residual", {"max_state_residual": over}),
            ("state-residual", {"max_state_residual": math.nan}),
        ]
        for stage, change in failures:
            failed = dataclasses.replace(outcome, **change)
            assert failed.failed_stage == stage, change
            assert not failed.passed
            report = failed.to_dict()
            assert report["failed_stage"] == stage
            assert report["passed"] is False
        for i, (first, change) in enumerate(failures):
            for later, other in failures[i + 1 :]:
                if later != first:
                    both = dataclasses.replace(outcome, **change, **other)
                    assert both.failed_stage == first, (change, other)

    def test_nan_divergence_on_a_later_pair_fails(self, monkeypatch):
        # The oracle refuses a NaN eigenvalue, so the NaN enters as a divergence
        # value: the images' score, on the second sampled pair only.
        score, calls = preserver._bregman_pairs, []

        def nan_on_images(f, xs, ys, tols):
            values = score(f, xs, ys, tols)
            calls.append(xs)
            if len(calls) == 2:
                values[1] = math.nan
            return values

        monkeypatch.setattr(preserver, "_bregman_pairs", nan_on_images)
        outcome = verify_preserver(QUAD, transpose_oracle(3), "bregman", sample_size=4, seed=1)
        assert len(calls) == 2
        assert math.isnan(outcome.max_divergence_deviation)
        assert outcome.failed_stage == "divergence-deviation"

    def test_nan_state_residual_on_a_later_state_fails(self):
        calls = []

        def mapping(state):  # a NaN entry in the matrix of the third image; its spectrum is intact
            calls.append(state)
            if len(calls) != 3:
                return state
            matrix = state.matrix.copy()
            matrix[0, 0] = math.nan
            return DensityState(state.w, state.v, matrix=matrix)

        oracle = PreserverOracle(dim=3, mapping=mapping, label="nan-matrix")
        outcome = verify_preserver(QUAD, oracle, "bregman", sample_size=4, seed=1)
        assert outcome.max_divergence_deviation == 0.0
        assert outcome.reconstructed
        assert math.isnan(outcome.max_state_residual)
        assert outcome.failed_stage == "state-residual"
        assert not outcome.passed

    def test_zero_samples_score_only_the_pure_pairs(self):
        outcome = verify_preserver(QUAD, transpose_oracle(3), "bregman", sample_size=0, seed=9)
        assert outcome.passed
        assert outcome.sample_size == 0
        with pytest.raises(ParameterError, match="sample size"):
            verify_preserver(QUAD, transpose_oracle(3), "bregman", sample_size=-1)

    def test_bad_kind_rejected(self):
        rng = rng_for(223)
        op = SymmetryOp(matrix=haar_unitary(2, rng), antiunitary=False)
        with pytest.raises(ParameterError):
            verify_preserver(QUAD, conjugation_oracle(op), "hellinger")


# SHA-256 of json.dumps(verify_preserver(...).to_dict(), sort_keys=True) with
# default arguments; every numeric field equals the one taken when sampled
# states were drawn and scored one at a time.  The unitary, antiunitary and
# depolarizing cases were re-taken when probe images came to map one column
# and depolarizing images to carry their closed-form spectrum; every number
# moved by less than 1e-14 and no verdict changed.  Conjugation oracles use
# haar_unitary(dim, rng_for(1100 + dim)).
VERIFY_DIGESTS = {
    (3, "bregman", "xlogx", "unitary"):
        "480db151925c005bb910985376335a3d30c693e4916f729ee45821f37f800f06",
    (3, "bregman", "xlogx", "antiunitary"):
        "df16789af6e8e70cf7a0fa393288c4b138d06973d4ce344ff8078829a21b7309",
    (3, "bregman", "xlogx", "transpose"):
        "e4f7c29441e43ce30989422af0c6e9bba510a8cc216d52ca984071a40456721b",
    (3, "bregman", "xlogx", "depolarizing"):
        "63e4a098867e963cd7d0d775e47b3449ba0b68016de3a33ba2fc2f46982a85e7",
    (3, "bregman", "quadratic", "unitary"):
        "42850952097d52fa88d3c5a8c75e1360dcc4a6412d253aeee04c532f5d623083",
    (3, "bregman", "quadratic", "antiunitary"):
        "9ff871ee3620308d3601f3d5442e9b4b409301d7478cf899e66b91e8b53c9542",
    (3, "bregman", "quadratic", "transpose"):
        "c8dad17fe8aa8e4fe3458c9383e3511eb210623ffe97f2ca996ddc3486fc79b6",
    (3, "bregman", "quadratic", "depolarizing"):
        "3b34844eeea606e5c88e8f0893842e704fe8f2ca8c9844c71a3615a48b96e166",
    (3, "jensen", "quadratic", "unitary"):
        "11c7d6b1e3eb9f0482d12f6206cd0b025aa2d1d794311330ed437736cad4d5ba",
    (3, "jensen", "quadratic", "antiunitary"):
        "4c8c6422ee2caaa92b6db26fa8a2040ab2e82c923b58e742032570aa7f37e982",
    (3, "jensen", "quadratic", "transpose"):
        "4d30b1c4a6816dfc94a4c575cc92471b945c5a9848249935be5fb82a077fe366",
    (3, "jensen", "quadratic", "depolarizing"):
        "eae410f326efa933d7981db4d367aa8e4cd2dbae4ed19cd2bc6d4e41ff898606",
    (8, "bregman", "xlogx", "unitary"):
        "55c44763b8d13b5cb110b2be86d9571677f87ff0e4d6ad2ba88b186abafbcd05",
    (8, "bregman", "xlogx", "antiunitary"):
        "8e93645c2bdf616848778125bf0ca12be67d17ecd6d1ddedf102540341ebc38e",
    (8, "bregman", "xlogx", "transpose"):
        "58d44e4100e7a7b56c7b6dea9250b2f22f9f3176957402c6460a194cd95a09fb",
    (8, "bregman", "xlogx", "depolarizing"):
        "ca0e039ce4d862c1fe3ecce40c262deb8910ef4304d139c9d379294878fd3101",
    (8, "bregman", "quadratic", "unitary"):
        "f9dd369bf2c4eff1a58bd6c4c6f1f2323a6b38219e7bb45861fde792965b4844",
    (8, "bregman", "quadratic", "antiunitary"):
        "b279fc8707154f340da2b25e26f5ecfb90c57015d66ff2561537fe2f774ffc18",
    (8, "bregman", "quadratic", "transpose"):
        "427426832a98ec3ecd459393e429c57aabd40359f6b4dc2726396da5acaf3d5f",
    (8, "bregman", "quadratic", "depolarizing"):
        "5885b804623a03d7aa85431a1e25f8763202af29a179916e3581b71d81809377",
    (8, "jensen", "quadratic", "unitary"):
        "48b277fd358cc7deb4cfa6a7cbc913deb0dab1990816453eadb4aeb174880b44",
    (8, "jensen", "quadratic", "antiunitary"):
        "23391498d33c5445a819e002294bead18df81c05be2837ddd8c2612e78e79c59",
    (8, "jensen", "quadratic", "transpose"):
        "47c34aeb9ded9ddfc5e0eb897197c791a75d18973d630c67b14a8bd5c1d7658b",
    (8, "jensen", "quadratic", "depolarizing"):
        "b60145692a3e85de074e7f4dcb6f54a4046f79a3c297d251ce1d869e9e684196",
}


def _pinned_oracle(name: str, dim: int) -> PreserverOracle:
    if name == "transpose":
        return transpose_oracle(dim)
    if name == "depolarizing":
        return depolarizing_oracle(dim)
    op = SymmetryOp(matrix=haar_unitary(dim, rng_for(1100 + dim)), antiunitary=name == "antiunitary")
    return conjugation_oracle(op)


@pytest.mark.parametrize("dim, kind, spec, oracle", VERIFY_DIGESTS)
def test_verify_report_bytes_are_pinned(dim, kind, spec, oracle):
    outcome = verify_preserver(parse_generator(spec), _pinned_oracle(oracle, dim), kind)
    assert outcome.passed == (oracle != "depolarizing")
    payload = json.dumps(outcome.to_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == VERIFY_DIGESTS[dim, kind, spec, oracle]


class TestOracles:
    def test_oracle_validates_output_dimension(self):
        bad = PreserverOracle(dim=2, mapping=lambda s: density_state(np.eye(3) / 3), label="bad")
        with pytest.raises(OracleError):
            bad(density_state(np.eye(2) / 2))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_oracle_rejects_non_finite_eigenvalues(self, bad):
        def mapping(state):  # the matrix is intact; one eigenvalue is not finite
            w = state.w.copy()
            w[-1] = bad
            return DensityState(w, state.v, matrix=state.matrix)

        oracle = PreserverOracle(dim=3, mapping=mapping, label="non-finite")
        with pytest.raises(OracleError, match="non-finite eigenvalues"):
            oracle(density_state(np.eye(3) / 3))
        with pytest.raises(OracleError, match="non-finite eigenvalues"):
            verify_preserver(QUAD, oracle, "bregman", sample_size=2, seed=1)

    def test_oracle_validates_output_type(self):
        bad = PreserverOracle(dim=2, mapping=lambda s: s.matrix, label="bad")
        with pytest.raises(OracleError):
            bad(density_state(np.eye(2) / 2))

    def test_symmetry_op_validation(self):
        with pytest.raises(ValidationError):
            SymmetryOp.from_matrix(np.ones((2, 2)))
        rng = rng_for(232)
        op = SymmetryOp.from_matrix(haar_unitary(3, rng), antiunitary=True)
        assert op.antiunitary

    def test_symmetry_op_rejects_an_empty_matrix(self):
        with pytest.raises(ValidationError, match="dimension must be at least 1"):
            SymmetryOp.from_matrix(np.zeros((0, 0)))

    def test_symmetry_op_rejects_an_overflowing_gram_matrix(self):
        # U U* overflows to inf, or to NaN where inf meets -inf or 0; either
        # way the matrix is not unitary.  Only the two permutation matrices
        # over these entries are.
        big = 1e200
        values = [big, -big, big * 1j, -big * 1j, big * (1 + 1j), big * (1 - 1j), 0.0, 1.0]
        permutations = [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)]
        for entries in itertools.product(values, repeat=4):
            if entries not in permutations:
                with pytest.raises(ValidationError, match="not unitary"):
                    SymmetryOp.from_matrix(np.reshape(entries, (2, 2)))

    def test_symmetry_op_rejects_non_finite_entry(self):
        with pytest.raises(ValidationError, match=r"non-finite entries: \[1, 1\]"):
            SymmetryOp.from_matrix(np.array([[1.0, 0.0], [0.0, math.nan]]))
