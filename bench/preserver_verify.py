"""preserver-verify: the preserver engine at small d, where its scalar work dominates.

Per pass: ``verify_preserver`` with default arguments at d in {8, 16, 32} on
unitary and antiunitary conjugation oracles and on ``transpose_oracle``,
which must pass (the last as antiunitary), and on ``depolarizing_oracle`` and
``diagonal_oracle``, which must fail.  d = 8 runs every (kind, generator) of
(bregman, xlogx), (bregman, quadratic) and (jensen, quadratic) on all five
oracles; d = 16 runs (bregman, quadratic) on all five and (bregman, xlogx)
on the three preservers; d = 32 runs (bregman, quadratic) on the three
preservers.  Then one op checks ``is_pure_by_max`` on pure and mixed states
at d in {4, 8, 16}, and one op sweeps ``recover_rank_two_spectrum`` and
``transition_from_*`` over fixed grids against their closed forms.

The pass is kept to a few seconds so a run holds several passes and every
op is timed several times: a single sample of an op moves by a third on a
shared host.  That is why (jensen, quadratic) at d >= 16 and (bregman,
xlogx) at d = 32, at 1 to 5 s a call, are left out.  The median op falls
among the ~0.1 s ops (d = 8 xlogx preservers, d = 16 quadratic), and the
tail among the six ~0.4 s ops (d = 16 xlogx, d = 32 quadratic).
"""

from __future__ import annotations

import numpy as np

import reference as ref
from op import Op

ORACLES = ("unitary", "antiunitary", "transpose", "depolarize", "diagonal")
PRESERVERS = ORACLES[:3]
EVERY = {("bregman", "xlogx"): ORACLES, ("bregman", "quadratic"): ORACLES,
         ("jensen", "quadratic"): ORACLES}
PLAN = {
    "full": {
        8: EVERY,
        16: {("bregman", "quadratic"): ORACLES, ("bregman", "xlogx"): PRESERVERS},
        32: {("bregman", "quadratic"): PRESERVERS},
    },
    "tiny": {3: EVERY, 4: EVERY},
}
PURITY_DIMS = {"full": (4, 8, 16), "tiny": (3, 4)}
FINITE = ("power:q=3/2", "quadratic")
ALL = ("xlogx",) + FINITE
# transition probabilities
GRID = (0.02, 0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 0.55, 0.7, 0.85, 0.9, 0.97)
LAMBDAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49)  # rank-two weights in (0, 1/2)
RANK_TWO = ((0.1, 0.2), (0.25, 0.5), (0.4, 0.9))  # (lam, t)
SCALAR_TOL = 1e-8


def setup(seed: int, size: str, work_dir) -> dict:
    """Seeded oracles and purity test states (no files)."""
    import statediv as sd

    rng = np.random.Generator(np.random.PCG64(seed))
    oracles = {}
    for d in PLAN[size]:
        for anti, label in ((False, "unitary"), (True, "antiunitary")):
            op = sd.SymmetryOp(matrix=sd.haar_unitary(d, rng), antiunitary=anti)
            oracles[(d, label)] = sd.conjugation_oracle(op)
        oracles[(d, "transpose")] = sd.transpose_oracle(d)
        oracles[(d, "depolarize")] = sd.depolarizing_oracle(d)
        oracles[(d, "diagonal")] = sd.diagonal_oracle(d)
    purity = {}
    for d in PURITY_DIMS[size]:
        p, q = sd.random_pure(d, rng), sd.random_pure(d, rng)
        orth = sd.RankOneProjection.from_vector(q.vector - np.vdot(p.vector, q.vector) * p.vector)
        purity[d] = {
            "pure": (p.to_state(), True),
            "full_rank": (sd.random_state(d, rng=rng), False),
            "rank_two": (sd.rank_two_mixture(0.25, p, orth), False),
        }
    return {"size": size, "oracles": oracles, "purity": purity}


def make_ops(inputs: dict, corrupt: bool = False) -> list[Op]:
    import statediv as sd

    gens = {spec: sd.parse_generator(spec) for spec in ALL}
    ops: list[Op] = []

    for d, runs in PLAN[inputs["size"]].items():
        for (kind, spec), labels in runs.items():
            for label in labels:
                passes = label in PRESERVERS
                anti = label != "unitary"

                def check(v, passes=passes, anti=anti):
                    return v.passed == passes and (not passes or v.antiunitary == anti)

                ops.append(
                    Op(
                        name=f"verify.d{d}.{kind}-{spec}.{label}",
                        span="op.verify_preserver",
                        fn=lambda g=gens[spec], o=inputs["oracles"][(d, label)], k=kind: (
                            sd.verify_preserver(g, o, k)
                        ),
                        check=check,
                    )
                )

    # purity: the pure reference value M(d), then is_pure_by_max against it
    cases, expected = [], []
    for d, states in inputs["purity"].items():
        for spec in FINITE:
            cases.append((spec, d, None))
            expected.append(ref.pure_max(spec))
            for state, is_pure in states.values():
                cases.append((spec, d, state))
                expected.append(is_pure)
    if corrupt:
        expected[0] += 1e-3

    def purity():
        out, m = [], None
        for spec, d, state in cases:
            if state is None:
                m = sd.pure_reference_value(gens[spec], d)
                out.append(m)
            else:
                out.append(sd.is_pure_by_max(gens[spec], state, m))
        return out

    def purity_check(values):
        return all(
            v is e if isinstance(e, bool) else ref.close(v, e)
            for v, e in zip(values, expected, strict=True)
        )

    ops.append(Op(name="purity", span="op.purity", fn=purity, check=purity_check))

    # scalar grids: every point has a closed form
    sweeps = []
    for spec in ALL:
        g = gens[spec]
        sweeps.append((lambda gap, g=g: sd.recover_rank_two_spectrum(g, gap),
                       [ref.rank_two_gap(spec, lam) for lam in LAMBDAS], LAMBDAS))
        sweeps.append((lambda j, g=g: sd.transition_from_jensen(g, j),
                       [ref.rank_one_jensen(spec, p) for p in GRID], GRID))
        sweeps.append((lambda lam_h, g=g: sd.transition_from_bregman_rank_two(g, *lam_h),
                       [(lam, ref.rank_two_bregman(spec, lam, t)) for lam, t in RANK_TWO],
                       [t for _, t in RANK_TWO]))
        if spec in FINITE:
            sweeps.append((lambda h, g=g: sd.transition_from_bregman(g, h),
                           [ref.rank_one_bregman(spec, p) for p in GRID], GRID))

    def scalar_check(values):
        return all(
            ref.close(v, e, SCALAR_TOL)
            for got, (_, _, want) in zip(values, sweeps, strict=True)
            for v, e in zip(got, want, strict=True)
        )

    ops.append(
        Op(
            name="scalar_grids",
            span="op.scalar_grids",
            fn=lambda: [[fn(x) for x in grid] for fn, grid, _ in sweeps],
            check=scalar_check,
        )
    )
    return ops


def extra_report(inputs: dict) -> dict:
    return {}


def layer_extras(inputs: dict, ops: list[Op], loop) -> dict:
    return {}
