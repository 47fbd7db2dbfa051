"""Named invariant suites with machine-readable, seed-deterministic reports.

Each suite samples seeded instances, measures worst-case deviations against
closed forms or independent routes, and returns a RunReport.  A sample set is
drawn once per dimension and scored with one stacked divergence call per
generator (``_bregman_pairs``, ``_jensen_pairs``), bit for bit the one-pair
calls.  The independent routes it is checked against are the operator log of
the raw matrices (one stacked ``eigh`` per argument), the trace form, Jensen
via Bregman and the rank-one and rank-two closed forms; all but the operator
log stay one call per pair.  Reports are deterministic given (inputs, seed,
tolerances); wall time is measured but kept out of the canonical
serialization so that identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .bregman import (
    _bregman_pairs,
    bregman_rank_one_pair,
    bregman_rank_one_vs_rank_two,
    bregman_trace_form,
)
from .config import DEFAULT_TOLS, Tolerances
from .errors import ParameterError
from .files import json_value
from .generators import GeneratorFunction, parse_generator
from .hermitian import DensityState, RankOneProjection, transition_probability
from .jensen import _jensen_pairs, jensen_max_constant, jensen_rank_one, jensen_via_bregman
from .preserver import (
    conjugation_oracle,
    depolarizing_oracle,
    diagonal_oracle,
    probe_transitions_via_divergence,
    recover_rank_two_spectrum,
    rank_two_mixture,
    transition_from_bregman,
    transition_from_jensen,
    verify_preserver,
    wigner_probes,
    wigner_reconstruct,
    SymmetryOp,
    transition_table,
)
from .sampling import _random_states, haar_unitary, random_pure, random_state, rng_for

__all__ = ["CheckResult", "RunReport", "run_suite", "SUITE_NAMES"]

DEFAULT_GENERATORS = ("xlogx", "power:q=3/2", "quadratic")
DEFAULT_DIMS = (2, 3, 4)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float | None
    tolerance: float | None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "deviation": None if self.deviation is None else json_value(self.deviation),
            "tolerance": None if self.tolerance is None else json_value(self.tolerance),
            "detail": self.detail,
        }


@dataclass
class RunReport:
    command: str
    suite: str
    seed: int
    dims: tuple[int, ...]
    generators: tuple[str, ...]
    tolerances: dict
    checks: list[CheckResult] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(bool(c.passed) for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "suite": self.suite,
            "seed": self.seed,
            "dims": list(self.dims),
            "generators": list(self.generators),
            "tolerances": self.tolerances,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _pairs(dim: int, count: int, rng):
    """``count`` pairs of random states, drawn as consecutive states of one call: (xs, ys)."""
    states = _random_states(2 * count, dim, rng=rng, eigenvalue_floor=1e-3)
    return states[0::2], states[1::2]


def _umegaki(xs, ys) -> np.ndarray:
    """Umegaki's relative entropy Tr A(log A - log B) of each pair, by the operator log.

    log M = V diag(log w) V* comes from one ``eigh`` on the stack of the raw A
    matrices and one on the B matrices, so it shares no code with the
    divergence it checks.  The states must be positive definite.
    """

    def log(stack):
        w, v = np.linalg.eigh(stack)
        return (v * np.log(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)

    a = np.array([x.matrix for x in xs])
    b = np.array([y.matrix for y in ys])
    return np.einsum("kij,kji->k", a, log(a) - log(b)).real


def _worst(devs) -> float:
    """The largest deviation, 0.0 if none; np.max keeps a NaN that the builtin can drop."""
    return float(np.max(devs)) if len(devs) else 0.0


def _within(name: str, devs, tol: float) -> CheckResult:
    """The check that the worst deviation in ``devs`` is at most ``tol``."""
    worst = _worst(devs)
    return CheckResult(name, worst <= tol, worst, tol)


# ---------------------------------------------------------------------------
# closed-forms suite


def _suite_closed_forms(
    report: RunReport, dims, generators: dict[str, GeneratorFunction], seed: int, tols: Tolerances
) -> None:
    samples = 20
    quad = parse_generator("quadratic")
    xlogx = parse_generator("xlogx")

    devs_hs_b, devs_hs_j, devs_umegaki = [], [], []
    for dim in dims:
        xs, ys = _pairs(dim, samples, rng_for(seed + 1000 * dim))
        quad_b = _bregman_pairs(quad, xs, ys, tols)
        quad_j = _jensen_pairs(quad, xs, ys, tols)
        relative = _bregman_pairs(xlogx, xs, ys, tols)
        for a, b, h, j in zip(xs, ys, quad_b, quad_j):
            diff = a.matrix - b.matrix
            hs = float(np.trace(diff @ diff).real)
            devs_hs_b.append(abs(h - hs))
            devs_hs_j.append(abs(j - hs / 4.0))
        devs_umegaki += np.abs(np.array(relative) - _umegaki(xs, ys)).tolist()
    report.checks.append(_within("quadratic-bregman-hilbert-schmidt", devs_hs_b, 1e-10))
    report.checks.append(_within("quadratic-jensen-hilbert-schmidt", devs_hs_j, 1e-10))
    report.checks.append(_within("umegaki-operator-log", devs_umegaki, 1e-8))

    # The sample streams do not depend on the generator: draw each sample once
    # and measure every generator on it.
    devs = {label: defaultdict(list) for label in generators}
    for dim in dims:
        rng = rng_for(seed + 2000 * dim)
        xs, ys = _pairs(dim, samples, rng)
        # The trace form is also checked on one rank-deficient X.
        trace_xs = xs + [random_state(dim, rank=dim - 1, rng=rng, eigenvalue_floor=1e-2)]
        trace_ys = ys + [random_state(dim, rng=rng, eigenvalue_floor=1e-2)]
        pure, mixed = [], []
        for _ in range(samples):
            p, q = random_pure(dim, rng), random_pure(dim, rng)
            lam = float(rng.uniform(0.05, 0.45))
            basis = haar_unitary(dim, rng)
            pp = RankOneProjection.from_vector(basis[:, 0])
            qq = RankOneProjection.from_vector(basis[:, 1])
            r_vec = basis[:, 0] * math.cos(0.7) + basis[:, 1] * math.sin(0.7) * np.exp(0.3j)
            rr = RankOneProjection.from_vector(r_vec)
            pure.append((p, q, transition_probability(p, q)))
            mixed.append((rr, lam, pp, qq))
        basis = haar_unitary(dim, rng_for(seed + 3000 * dim))
        orthogonal = [RankOneProjection.from_vector(basis[:, k]) for k in (0, 1)]
        # The orthogonal pair goes last on the pure states' stack.
        p_states = [p.to_state() for p, _, _ in pure] + [orthogonal[0].to_state()]
        q_states = [q.to_state() for _, q, _ in pure] + [orthogonal[1].to_state()]
        r_states = [rr.to_state() for rr, _, _, _ in mixed]
        mixtures = [rank_two_mixture(lam, pp, qq, tols=tols) for _, lam, pp, qq in mixed]
        for label, gen in generators.items():
            found = devs[label]
            for a, b, general in zip(trace_xs, trace_ys, _bregman_pairs(gen, trace_xs, trace_ys, tols)):
                found["trace"].append(abs(general - bregman_trace_form(gen, a, b, tols=tols)))
            for a, b, value in zip(xs, ys, _jensen_pairs(gen, xs, ys, tols)):
                found["jvb"].append(abs(value - jensen_via_bregman(gen, a, b, tols=tols)))
            *pure_values, orthogonal_value = _jensen_pairs(gen, p_states, q_states, tols)
            for (p, q, overlap), value in zip(pure, pure_values):
                found["r1"].append(abs(value - jensen_rank_one(gen, overlap, tols=tols)))
                if gen.finite_zero_slope:
                    closed = (1.0 - overlap) * (gen.slope(1.0) - gen.slope_at_zero)
                    found["pair"].append(abs(bregman_rank_one_pair(gen, p, q, tols=tols) - closed))
            for (rr, lam, pp, qq), value in zip(mixed, _bregman_pairs(gen, r_states, mixtures, tols)):
                closed = bregman_rank_one_vs_rank_two(gen, rr, lam, pp, qq, tols=tols)
                found["mix"].append(abs(closed - value))
            found["max"].append(abs(orthogonal_value - jensen_max_constant(gen)))

    for label in generators:
        found = devs[label]
        report.checks.append(_within(f"bregman-trace-form[{label}]", found["trace"], 1e-8))
        report.checks.append(_within(f"jensen-via-bregman[{label}]", found["jvb"], 1e-8))
        report.checks.append(_within(f"jensen-rank-one-law[{label}]", found["r1"], 1e-8))
        if found["pair"]:
            report.checks.append(_within(f"bregman-rank-one-pair[{label}]", found["pair"], 1e-8))
        report.checks.append(_within(f"bregman-rank-two-closed-form[{label}]", found["mix"], 1e-8))
        report.checks.append(_within(f"jensen-max-at-orthogonal[{label}]", found["max"], 1e-10))


# ---------------------------------------------------------------------------
# preserver-roundtrip suite


def _suite_preserver(
    report: RunReport, dims, generators: dict[str, GeneratorFunction], seed: int, tols: Tolerances
) -> None:
    lam_grid = np.linspace(0.02, 0.48, 12)
    probes = wigner_probes(max(dims))
    direct = transition_table(probes)

    devs = {label: defaultdict(list) for label in generators}
    for dim in dims:
        rng = rng_for(seed + 4000 * dim)
        pairs = [(random_pure(dim, rng), random_pure(dim, rng)) for _ in range(10)]
        truth = np.array([transition_probability(p, q) for p, q in pairs])
        p_states, q_states = [p.to_state() for p, _ in pairs], [q.to_state() for _, q in pairs]
        for label, gen in generators.items():
            j_vals = np.array(_jensen_pairs(gen, p_states, q_states, tols))
            devs[label]["j"] += np.abs(transition_from_jensen(gen, j_vals, tols=tols) - truth).tolist()
            if gen.finite_zero_slope:
                h_vals = np.array([bregman_rank_one_pair(gen, p, q, tols=tols) for p, q in pairs])
                devs[label]["b"] += np.abs(transition_from_bregman(gen, h_vals, tols=tols) - truth).tolist()
    for label, gen in generators.items():
        found = devs[label]
        recovered = probe_transitions_via_divergence(gen, probes, "bregman", tols=tols)
        recovery = float(np.max(np.abs(recovered - direct)))
        devs_spec = []
        for lam in lam_grid:
            delta = gen.slope(1.0 - lam) - gen.slope(lam)
            devs_spec.append(abs(recover_rank_two_spectrum(gen, delta) - lam))
        report.checks.append(_within(f"transition-from-jensen[{label}]", found["j"], 1e-6))
        if found["b"]:
            report.checks.append(_within(f"transition-from-bregman[{label}]", found["b"], 1e-8))
        report.checks.append(_within(f"transitions-via-divergence[{label}]", [recovery], 1e-6))
        report.checks.append(_within(f"spectrum-recovery[{label}]", devs_spec, 1e-8))

    gen_cycle = list(generators.items())
    kinds = ("bregman", "jensen")
    devs_conj, flag_errors = [], 0
    devs_wigner = []
    for dim in dims:
        rng = rng_for(seed + 5000 * dim)
        dim_probes = wigner_probes(dim)
        for idx, antiunitary in enumerate((False, True, False, True)):
            op = SymmetryOp(matrix=haar_unitary(dim, rng), antiunitary=antiunitary)
            label, gen = gen_cycle[idx % len(gen_cycle)]
            kind = kinds[idx % 2]
            outcome = verify_preserver(
                gen, conjugation_oracle(op, tols), kind, sample_size=6, seed=seed + idx, tols=tols
            )
            devs_conj.append(outcome.max_divergence_deviation)
            devs_conj.append(outcome.max_probe_residual)
            devs_conj.append(outcome.max_state_residual)
            if outcome.antiunitary != antiunitary:
                flag_errors += 1
            images = [op.apply_projection(probe) for probe in dim_probes]
            rebuilt, _ = wigner_reconstruct(images, tols=tols)
            for _ in range(25):
                r = random_pure(dim, rng)
                devs_wigner.append(
                    float(np.max(np.abs(rebuilt.apply_matrix(r.matrix) - op.apply_matrix(r.matrix))))
                )
    report.checks.append(_within("conjugation-verification", devs_conj, 1e-8))
    report.checks.append(
        CheckResult("antiunitary-flags", flag_errors == 0, float(flag_errors), 0.0)
    )
    report.checks.append(_within("wigner-roundtrip", devs_wigner, 1e-8))

    margins = []
    for dim in dims:
        label, gen = gen_cycle[dim % len(gen_cycle)]
        for oracle in (depolarizing_oracle(dim, 0.5, tols), diagonal_oracle(dim, tols)):
            outcome = verify_preserver(gen, oracle, "jensen", sample_size=6, seed=seed + dim, tols=tols)
            margins.append(outcome.max_divergence_deviation)
    worst_margin = float(np.min(margins, initial=math.inf))  # keeps a NaN that the builtin can drop
    report.checks.append(
        CheckResult(
            "non-preservers-rejected",
            worst_margin > 1e-3,
            worst_margin,
            1e-3,
            "deviation must exceed tolerance for every non-conjugation map",
        )
    )


# ---------------------------------------------------------------------------
# convexity suite


def _suite_convexity(
    report: RunReport, dims, generators: dict[str, GeneratorFunction], seed: int, tols: Tolerances
) -> None:
    samples = 40
    gaps = {label: [] for label in generators}
    violations = {label: [] for label in generators}
    # Members draw two more states per sample, so each membership value that
    # occurs has its own sample stream, shared by the generators that have it.
    for member in dict.fromkeys(gen.matrix_entropy_member for gen in generators.values()):
        group = {label: gen for label, gen in generators.items() if gen.matrix_entropy_member == member}
        for dim in dims:
            rng = rng_for(seed + 6000 * dim)
            # Per sample, the pairs (a, d), (b, d), (mix, d) and, for members,
            # (mix_a, mix_b), (a, b), (a2, b2): one row of the stack each.
            xs, ys, ts = [], [], []
            for _ in range(samples):
                a, b, d = _random_states(3, dim, rng=rng, eigenvalue_floor=1e-3)
                t = float(rng.uniform(0.1, 0.9))
                mix = DensityState.from_matrix(t * a.matrix + (1.0 - t) * b.matrix, tols)
                xs += [a, b, mix]
                ys += [d, d, d]
                if member:
                    a2, b2 = _random_states(2, dim, rng=rng, eigenvalue_floor=1e-3)
                    mix_a = DensityState.from_matrix(t * a.matrix + (1.0 - t) * a2.matrix, tols)
                    mix_b = DensityState.from_matrix(t * b.matrix + (1.0 - t) * b2.matrix, tols)
                    xs += [mix_a, a, a2]
                    ys += [mix_b, b, b2]
                ts.append(t)
            t = np.array(ts)
            for label, gen in group.items():
                h = np.array(_bregman_pairs(gen, xs, ys, tols)).reshape(samples, -1).T
                gaps[label] += (t * h[0] + (1.0 - t) * h[1] - h[2]).tolist()
                if member:
                    violations[label] += (h[3] - (t * h[4] + (1.0 - t) * h[5])).tolist()
    # np.min and np.max keep a NaN that the builtins can drop.
    min_gap = {label: float(np.min(found, initial=math.inf)) for label, found in gaps.items()}
    max_joint_violation = {label: float(np.max(found, initial=-math.inf)) for label, found in violations.items()}
    for label, gen in generators.items():
        report.checks.append(
            CheckResult(
                f"strict-convexity-first-argument[{label}]",
                min_gap[label] > 0.0,
                min_gap[label],
                0.0,
                "recorded value is the smallest sampled convexity gap (the f-dependent floor)",
            )
        )
        if gen.matrix_entropy_member:
            report.checks.append(
                CheckResult(
                    f"joint-convexity[{label}]",
                    max_joint_violation[label] <= 1e-9,
                    max_joint_violation[label],
                    1e-9,
                    "largest sampled violation of the joint convexity inequality",
                )
            )


_SUITES = {
    "closed-forms": _suite_closed_forms,
    "preserver-roundtrip": _suite_preserver,
    "convexity": _suite_convexity,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(
    name: str,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    seed: int = 0,
    generator_specs: tuple[str, ...] = DEFAULT_GENERATORS,
    *,
    command: str = "",
    tols: Tolerances = DEFAULT_TOLS,
) -> RunReport:
    """Run a named suite and return its deterministic report."""
    if name not in SUITE_NAMES:
        raise ParameterError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    if not dims or not generator_specs:
        raise ParameterError("a suite needs at least one dimension and at least one generator")
    if any(d < 2 for d in dims):
        raise ParameterError("suite dimensions must be >= 2")
    generators = {spec: parse_generator(spec) for spec in generator_specs}
    report = RunReport(
        command=command,
        suite=name,
        seed=seed,
        dims=tuple(dims),
        generators=tuple(generator_specs),
        tolerances=tols.as_dict(),
    )
    started = time.perf_counter()
    selected = _SUITES.values() if name == "all" else (_SUITES[name],)
    for suite_fn in selected:
        suite_fn(report, dims, generators, seed, tols)
    report.wall_time_s = time.perf_counter() - started
    return report
