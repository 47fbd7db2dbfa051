"""pair-grid: every ordered pair of seeded states, four divergences each.

States at d in {16, 64, 128}: full-rank, rank d/2 and pure (two full-rank
states at d <= 64, one at d = 128 so that a pass stays a few seconds).  Set-up
writes them as state files; each pass reads them back with
``files.read_state`` and evaluates every ordered pair with ``bregman``
(xlogx), ``bregman`` (power:q=3/2), ``jensen`` (quadratic) and, for d <= 64,
``bregman_trace_form`` (xlogx).  Rank-deficient and pure second arguments
send xlogx down the infinite branch; full-rank ones down the double sum.

The adversarial spectra near ``eps_supp`` and ``cluster_tol`` (the
``diag(1-5e-9, 5e-9, 0)`` support case and a run of eigenvalues 0.9 *
cluster_tol apart) are evaluated once per run, after the timed loop, and
reported by name with their own fail ratio.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc

import numpy as np

import reference as ref
from op import Op

DIMS = {"full": (16, 64, 128), "tiny": (4, 8)}
DIVERGENCES = (
    ("bregman", "xlogx"),
    ("bregman", "power:q=3/2"),
    ("jensen", "quadratic"),
    ("trace_form", "xlogx"),
)
TRACE_FORM_MAX_DIM = 64
CLUSTER_TOL = 1e-8  # statediv's documented default eigenvalue clustering width
EIGH_REPEATS = 10


def _labels(d: int, dims: tuple[int, ...]) -> tuple[str, ...]:
    return ("F1", "R", "P") if d == max(dims) else ("F1", "F2", "R", "P")


def setup(seed: int, size: str, work_dir) -> dict:
    """Seeded states written as state files (timed as set-up)."""
    import statediv as sd
    from statediv import files

    rng = np.random.Generator(np.random.PCG64(seed))
    dims = DIMS[size]
    states = {}
    for d in dims:
        for label in _labels(d, dims):
            if label == "R":
                state = sd.random_state(d, d // 2, rng=rng)
            elif label == "P":
                state = sd.random_pure(d, rng).to_state()
            else:
                state = sd.random_state(d, rng=rng)
            path = work_dir / f"d{d}-{label}.json"
            files.write_state(path, state)
            states[(d, label)] = (path, state.matrix)
    return {"seed": seed, "dims": dims, "states": states}


def _divergence(kind: str, spec: str):
    import statediv as sd

    gen = sd.parse_generator(spec)
    if kind == "bregman":
        return lambda x, y: sd.bregman(gen, x, y)
    if kind == "jensen":
        return lambda x, y: sd.jensen(gen, x, y)
    return lambda x, y: sd.bregman_trace_form(gen, x, y)


def _reference(kind: str, spec: str, x: np.ndarray, y: np.ndarray) -> float:
    return ref.jensen(spec, x, y) if kind == "jensen" else ref.bregman(spec, x, y)


def make_ops(inputs: dict, corrupt: bool = False) -> list[Op]:
    from statediv import files

    read: dict = {}
    ops: list[Op] = []
    corrupt_next = corrupt
    for (d, label), (path, matrix) in inputs["states"].items():

        def read_fn(path=path, key=(d, label)):
            read.pop(key, None)  # the previous pass's copy is not held during the read
            read[key] = files.read_state(path)
            return read[key]

        ops.append(
            Op(
                name=f"read.d{d}.{label}",
                span="op.read_state",
                fn=read_fn,
                # files round-trip floats exactly; states are stored symmetrized
                check=lambda s, m=(matrix + matrix.conj().T) / 2: np.array_equal(s.matrix, m),
                tags={"d": d},
            )
        )
    for d in inputs["dims"]:
        labels = _labels(d, inputs["dims"])
        for kind, spec in DIVERGENCES:
            if kind == "trace_form" and d > TRACE_FORM_MAX_DIM:
                continue
            fn = _divergence(kind, spec)
            for a in labels:
                for b in labels:
                    if a == b:
                        continue
                    expected = _reference(
                        kind, spec, inputs["states"][(d, a)][1], inputs["states"][(d, b)][1]
                    )
                    if corrupt_next:
                        expected = expected + 1e-3 if math.isfinite(expected) else 1.0
                        corrupt_next = False
                    ops.append(
                        Op(
                            name=f"div.d{d}.{kind}-{spec}.{a}-{b}",
                            span=f"op.{kind}",
                            fn=lambda fn=fn, x=(d, a), y=(d, b): fn(read[x], read[y]),
                            check=lambda v, e=expected: ref.close(v, e),
                            tags={"d": d, "kind": kind, "finite": math.isfinite(expected)},
                            stage=1,
                        )
                    )
    return ops


def _adversarial_matrices(d: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The support case of diag(1-5e-9, 5e-9, 0, ...) and a 0.9 * cluster_tol run."""
    u = ref.haar_unitary(d, rng)
    support = np.zeros(d)
    support[:2] = (1.0 - 5e-9, 5e-9)
    kernel_line = np.zeros(d)
    kernel_line[2] = 1.0
    run = 1.0 / d + (np.arange(d) - (d - 1) / 2.0) * 0.9 * CLUSTER_TOL
    return {
        "near_zero": ref.state(support, u),
        "kernel_pure": ref.state(kernel_line, u),
        "tight_run": ref.state(run, u),
    }


def extra_report(inputs: dict) -> dict:
    """Adversarial pairs (untimed) and the computed size of a bare eigh."""
    import statediv as sd

    d = inputs["dims"][0]
    rng = np.random.Generator(np.random.PCG64(inputs["seed"] + 1))
    mats = _adversarial_matrices(d, rng)
    mats["F1"] = inputs["states"][(d, "F1")][1]
    pairs = [
        ("kernel_pure", "near_zero"),
        ("F1", "near_zero"),
        ("near_zero", "F1"),
        ("F1", "tight_run"),
        ("tight_run", "F1"),
    ]
    failed, attempted = [], 0
    for a, b in pairs:
        for kind, spec in DIVERGENCES:
            name = f"adv.d{d}.{kind}-{spec}.{a}-{b}"
            attempted += 1
            expected = _reference(kind, spec, mats[a], mats[b])
            try:
                x, y = sd.density_state(mats[a]), sd.density_state(mats[b])
                ok = ref.close(_divergence(kind, spec)(x, y), expected)
            except Exception:
                ok = False
            if not ok:
                failed.append(name)
    return {
        "adversarial": {
            "attempted": attempted,
            "failed": len(failed),
            "fail_ratio": len(failed) / attempted,
            "failed_ops": failed,
            "note": "untimed; not part of the timed ops' fail_ratio",
        },
        "eigh_kernel": {
            f"d{d}": {"flops": eigh_flops(d), "bytes": eigh_bytes(d), "label": "computed"}
            for d in inputs["dims"]
        },
    }


def eigh_flops(d: int) -> float:
    """Real flops of a complex Hermitian eigh with vectors, from LAPACK counts:
    zhetrd 16/3 d^3 + tridiagonal divide and conquer 4/3 d^3 + zunmtr 8 d^3."""
    return (16.0 / 3.0 + 4.0 / 3.0 + 8.0) * d**3


def eigh_bytes(d: int) -> float:
    """Compulsory traffic: the complex input and eigenvector matrices, the eigenvalues."""
    return 16.0 * d * d * 2 + 8.0 * d


def layer_extras(inputs: dict, ops: list[Op], loop) -> dict:
    """eigh yardstick at d = 128 and the allocation peak of one from_matrix."""
    out: dict[str, float] = {}
    for d in (16, 64, 128):
        out[f"kernel.eigh_flops.d{d}"] = eigh_flops(d)
        out[f"kernel.eigh_bytes.d{d}"] = eigh_bytes(d)
    if 128 not in inputs["dims"]:
        return out
    import statediv as sd

    finite = [
        latency
        for index, latency in enumerate(loop.latencies)
        if (op := ops[index % len(ops)]).tags.get("d") == 128
        and op.tags.get("kind") == "bregman"
        and op.tags.get("finite")
    ]
    eigh_times = []
    for label in _labels(128, inputs["dims"]):
        matrix = inputs["states"][(128, label)][1]
        for _ in range(EIGH_REPEATS):
            start = time.perf_counter()
            np.linalg.eigh(matrix)
            eigh_times.append(time.perf_counter() - start)
    breg, eigh = statistics.median(finite), statistics.median(eigh_times)
    out["bregman.finite_median_ms.d128"] = 1e3 * breg
    out["bregman.eigh_median_ms.d128"] = 1e3 * eigh
    out["bregman.eigh_multiple.d128"] = breg / eigh

    matrix = inputs["states"][(128, "F1")][1]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sd.DensityState.from_matrix(matrix)
        out["hermitian.from_matrix.alloc_peak_mb.d128"] = (
            tracemalloc.get_traced_memory()[1] - base
        ) / 2**20
    finally:
        tracemalloc.stop()
    return out
