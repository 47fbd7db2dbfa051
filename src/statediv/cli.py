"""Command-line front end.

Subcommands: div, gen, table, probes, reconstruct, verify, suite.  Tolerances
come from STATEDIV_* environment variables, overridden by --tol-* flags.
Distinct exit codes identify the failure class:

    0  success / all checks passed
    1  a check failed (suite, verify, reconstruct residual)
    2  usage error
    3  file error: unreadable, unwritable or unparsable
    4  matrix/state validation error
    5  dimension mismatch
    6  domain/parameter/range error
    7  not a preserver
    8  oracle error
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from . import files
from .bregman import _bregman_pairs, bregman
from .config import Tolerances, tolerances_from_env
from .errors import (
    DimensionMismatchError,
    DomainError,
    FileFormatError,
    NotAPreserverError,
    OracleError,
    ParameterError,
    RangeError,
    StateDivError,
    ValidationError,
)
from .generators import parse_generator
from .jensen import _jensen_pairs, jensen
from .preserver import (
    PreserverOracle,
    SymmetryOp,
    _probe_images,
    conjugation_oracle,
    depolarizing_oracle,
    diagonal_oracle,
    transpose_oracle,
    verify_preserver,
    wigner_reconstruct,
)
from .sampling import haar_unitary, random_pure, random_state, rng_for
from .suites import DEFAULT_DIMS, DEFAULT_GENERATORS, SUITE_NAMES, run_suite

EXIT_CHECK_FAILED = 1
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_DIMENSION = 5
EXIT_DOMAIN = 6
EXIT_NOT_PRESERVER = 7
EXIT_ORACLE = 8

_TOL_FLAGS = tuple(field.name for field in dataclasses.fields(Tolerances))


def _tolerance_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("tolerances")
    for name in _TOL_FLAGS:
        group.add_argument(
            f"--{name.replace('_', '-')}",
            type=float,
            default=None,
            help=f"override {name} (also via STATEDIV_{name.upper()})",
        )
    return parent


def _resolve_tols(args: argparse.Namespace) -> Tolerances:
    tols = tolerances_from_env()
    overrides = {
        name: getattr(args, name) for name in _TOL_FLAGS if getattr(args, name) is not None
    }
    return tols.replace(**overrides) if overrides else tols


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statediv",
        description="Bregman and Jensen divergences on density matrices, "
        "with divergence-preserver reconstruction.",
    )
    tol_parent = _tolerance_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("div", parents=[tol_parent], help="divergence of two state files")
    p_div.add_argument("kind", choices=["bregman", "jensen"])
    p_div.add_argument("--f", dest="generator", required=True, help="xlogx | quadratic | power:q=<rational>")
    p_div.add_argument("file_a")
    p_div.add_argument("file_b")

    p_gen = sub.add_parser("gen", parents=[tol_parent], help="generate seeded states and unitaries")
    p_gen.add_argument("kind", choices=["state", "pure", "unitary", "antiunitary"])
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--rank", type=int, default=None, help="rank of the generated state")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)

    p_table = sub.add_parser("table", parents=[tol_parent], help="pairwise divergence table")
    p_table.add_argument("--kind", choices=["bregman", "jensen"], required=True)
    p_table.add_argument("--f", dest="generator", required=True)
    p_table.add_argument("files", nargs="+", help="state files")
    p_table.add_argument("-o", "--output", default=None, help="write JSON here (default stdout)")

    p_probes = sub.add_parser(
        "probes", parents=[tol_parent], help="apply an oracle to the canonical probe family"
    )
    p_probes.add_argument("--dim", type=int, required=True)
    p_probes.add_argument("--oracle", required=True, help=_ORACLE_HELP)
    p_probes.add_argument("-o", "--output", required=True)

    p_rec = sub.add_parser(
        "reconstruct", parents=[tol_parent], help="reconstruct the implementing operator from probe images"
    )
    p_rec.add_argument("probes", help="probe-images file")
    p_rec.add_argument("-o", "--output", required=True, help="where to write the operator file")
    p_rec.add_argument("--report", default=None, help="optional JSON report path")

    p_ver = sub.add_parser(
        "verify", parents=[tol_parent], help="test whether a map preserves a divergence"
    )
    p_ver.add_argument("--kind", choices=["bregman", "jensen"], required=True)
    p_ver.add_argument("--f", dest="generator", required=True)
    p_ver.add_argument("--oracle", required=True, help=_ORACLE_HELP)
    p_ver.add_argument("--dim", type=int, required=True)
    p_ver.add_argument("--samples", type=int, default=20)
    p_ver.add_argument("--seed", type=int, default=0)

    p_suite = sub.add_parser("suite", parents=[tol_parent], help="run a named invariant suite")
    p_suite.add_argument("name", choices=list(SUITE_NAMES))
    p_suite.add_argument("--dims", type=int, nargs="+", default=list(DEFAULT_DIMS))
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--f", dest="generators", nargs="+", default=list(DEFAULT_GENERATORS))
    p_suite.add_argument("-o", "--output", default=None, help="write the report here (default stdout)")

    return parser


_ORACLE_HELP = (
    "conjugate:<operator.json> | transpose | depolarize:<alpha> | diagonal"
)


def _parse_oracle(spec: str, dim: int, tols: Tolerances) -> PreserverOracle:
    if spec == "transpose":
        return transpose_oracle(dim)
    if spec == "diagonal":
        return diagonal_oracle(dim, tols)
    if spec.startswith("depolarize:"):
        try:
            alpha = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"bad depolarize weight in {spec!r}") from exc
        return depolarizing_oracle(dim, alpha, tols)
    if spec.startswith("conjugate:"):
        op = files.read_symmetry(spec.split(":", 1)[1], tols)
        if op.dim != dim:
            raise DimensionMismatchError(f"operator file has dim {op.dim}, expected {dim}")
        return conjugation_oracle(op, tols)
    raise ParameterError(f"unknown oracle spec {spec!r}; expected {_ORACLE_HELP}")


def _cmd_div(args: argparse.Namespace, tols: Tolerances) -> int:
    generator = parse_generator(args.generator)
    state_a = files.read_state(args.file_a, tols)
    state_b = files.read_state(args.file_b, tols)
    if args.kind == "bregman":
        value = bregman(generator, state_a, state_b, tols=tols)
    else:
        value = jensen(generator, state_a, state_b, tols=tols)
    print(files.format_divergence(value))
    return 0


def _cmd_gen(args: argparse.Namespace, tols: Tolerances) -> int:
    if args.dim < 1:
        raise ParameterError(f"--dim must be positive, got {args.dim}")
    rng = rng_for(args.seed)
    if args.kind in ("unitary", "antiunitary"):
        op = SymmetryOp(matrix=haar_unitary(args.dim, rng), antiunitary=args.kind == "antiunitary")
        files.write_symmetry(args.output, op)
    elif args.kind == "pure":
        files.write_state(args.output, random_pure(args.dim, rng).to_state())
    else:
        state = random_state(args.dim, args.rank, rng=rng, tols=tols)
        files.write_state(args.output, state)
    return 0


def _cmd_table(args: argparse.Namespace, tols: Tolerances) -> int:
    generator = parse_generator(args.generator)
    states = [files.read_state(path, tols) for path in args.files]
    labels = [Path(path).name for path in args.files]
    n = len(states)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    values = [[0.0] * n for _ in range(n)]
    if pairs:
        score = _jensen_pairs if args.kind == "jensen" else _bregman_pairs
        found = score(generator, [states[i] for i, _ in pairs], [states[j] for _, j in pairs], tols)
        for (i, j), value in zip(pairs, found):
            values[i][j] = value

    table = files.DivergenceTable(
        kind=args.kind,
        generator=args.generator,
        labels=tuple(labels),
        values=tuple(tuple(row) for row in values),
    )
    files.write_table(args.output, table)
    return 0


def _cmd_probes(args: argparse.Namespace, tols: Tolerances) -> int:
    oracle = _parse_oracle(args.oracle, args.dim, tols)
    files.write_probe_images(args.output, _probe_images(oracle, tols))
    return 0


def _cmd_reconstruct(args: argparse.Namespace, tols: Tolerances) -> int:
    images = files.read_probe_images(args.probes, tols)
    op, residual = wigner_reconstruct(images, tols=tols)
    files.write_symmetry(args.output, op)
    report = {
        "probes": args.probes,
        "antiunitary": op.antiunitary,
        "max_probe_residual": residual,
        "output": args.output,
    }
    if args.report:
        files.write_json(args.report, report)
    files.write_json(None, report)
    return 0


def _cmd_verify(args: argparse.Namespace, tols: Tolerances) -> int:
    generator = parse_generator(args.generator)
    oracle = _parse_oracle(args.oracle, args.dim, tols)
    outcome = verify_preserver(
        generator, oracle, args.kind, sample_size=args.samples, seed=args.seed, tols=tols
    )
    payload = {k: files.json_value(v) if isinstance(v, float) else v for k, v in outcome.to_dict().items()}
    files.write_json(None, payload)
    return 0 if outcome.passed else EXIT_CHECK_FAILED


def _cmd_suite(args: argparse.Namespace, tols: Tolerances) -> int:
    command = "statediv " + " ".join(args.argv)
    report = run_suite(
        args.name,
        dims=tuple(args.dims),
        seed=args.seed,
        generator_specs=tuple(args.generators),
        command=command,
        tols=tols,
    )
    files.write_json(args.output, report.to_dict())
    print(f"suite {args.name}: wall time {report.wall_time_s:.3f}s", file=sys.stderr)
    return 0 if report.passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "div": _cmd_div,
    "gen": _cmd_gen,
    "table": _cmd_table,
    "probes": _cmd_probes,
    "reconstruct": _cmd_reconstruct,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
}

_ERROR_CODES = (
    (FileFormatError, EXIT_PARSE),
    (DimensionMismatchError, EXIT_DIMENSION),
    (ValidationError, EXIT_VALIDATION),
    ((DomainError, ParameterError, RangeError), EXIT_DOMAIN),
    (NotAPreserverError, EXIT_NOT_PRESERVER),
    (OracleError, EXIT_ORACLE),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args.argv = argv  # the suite report records the command it ran
    try:
        return _COMMANDS[args.command](args, _resolve_tols(args))
    except StateDivError as exc:
        for types, code in _ERROR_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
