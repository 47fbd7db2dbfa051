"""cli-small-d: in-process ``statediv.cli.main`` at d in {2, 3, 4}, stdout captured.

Per d and pass: ``gen`` for state, pure, unitary and antiunitary (file
writes); ``div`` for each kind x generator on a finite and an infinite
ordered pair, and ``table`` (file reads); ``probes`` then ``reconstruct``;
``verify`` with two conjugations and transpose (exit 0) and with
``depolarize:0.5`` (exit 1); ``suite all`` at that d.  Every call uses the
command's default options.  Set-up writes the input state and operator
files with the benchmark's own JSON writer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import reference as ref
from op import Op

DIMS = {"full": (2, 3, 4), "tiny": (2,)}
GENERATORS = ("xlogx", "power:q=3/2", "quadratic")
VERIFY = (
    ("conjugate:U", "bregman", "xlogx", 0, False),
    ("conjugate:V", "jensen", "quadratic", 0, True),
    ("transpose", "bregman", "power:q=3/2", 0, True),
    ("depolarize:0.5", "bregman", "quadratic", 1, None),
)


def _payload(matrix: np.ndarray) -> dict:
    return {"re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def _write(path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def _load_matrix(path) -> tuple[dict, np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    return obj, np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def setup(seed: int, size: str, work_dir) -> dict:
    """Input state files A (full rank), C (rank d - 1) and operator files U, V."""
    rng = np.random.Generator(np.random.PCG64(seed))
    files = {}
    for d in DIMS[size]:
        full = rng.dirichlet(np.ones(d))
        deficient = np.zeros(d)
        deficient[: d - 1] = rng.dirichlet(np.ones(d - 1))
        for label, spectrum in (("A", full), ("C", deficient)):
            matrix = ref.state(spectrum, ref.haar_unitary(d, rng))
            path = work_dir / f"d{d}-{label}.json"
            _write(path, {"dim": d, **_payload(matrix)})
            files[(d, label)] = (path, matrix)
        for label, anti in (("U", False), ("V", True)):
            matrix = ref.haar_unitary(d, rng)
            path = work_dir / f"d{d}-{label}.json"
            _write(path, {"dim": d, "antiunitary": anti, **_payload(matrix)})
            files[(d, label)] = (path, matrix)
    gen_seeds = {d: int(s) for d, s in zip(DIMS[size], rng.integers(0, 2**31, len(DIMS[size])))}
    return {"size": size, "dir": work_dir, "files": files, "gen_seeds": gen_seeds}


def _main(argv: list[str]) -> tuple[int, str]:
    from statediv import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_gen(kind: str, d: int, path):
    def check(result) -> bool:
        code, _ = result
        obj, m = _load_matrix(path)
        if code != 0 or obj.get("dim") != d or m.shape != (d, d):
            return False
        if kind in ("unitary", "antiunitary"):
            unitary = float(np.max(np.abs(m @ m.conj().T - np.eye(d)))) < 1e-9
            return unitary and obj.get("antiunitary") is (kind == "antiunitary")
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        valid = float(np.max(np.abs(m - m.conj().T))) < 1e-9 and abs(float(np.sum(w)) - 1.0) < 1e-9
        valid = valid and float(w.min()) > -1e-9
        return valid and (kind != "pure" or abs(float(w.max()) - 1.0) < 1e-9)

    return check


def _check_value(expected: float):
    def check(result) -> bool:
        code, out = result
        text = out.strip()
        value = math.inf if text == "inf" else float(text)
        return code == 0 and ref.close(value, expected)

    return check


def _check_table(expected: list[list[float]]):
    def check(result) -> bool:
        code, out = result
        rows = json.loads(out)["values"]
        return code == 0 and all(
            ref.close(math.inf if v == "inf" else v, e)
            for row, erow in zip(rows, expected, strict=True)
            for v, e in zip(row, erow, strict=True)
        )

    return check


def _check_reconstruct(u: np.ndarray, path):
    def check(result) -> bool:
        code, out = result
        obj, m = _load_matrix(path)
        return (
            code == 0
            and json.loads(out)["antiunitary"] is False
            and obj["antiunitary"] is False
            and ref.equal_up_to_phase(m, u)
        )

    return check


def _check_verify(code_expected: int, anti):
    def check(result) -> bool:
        code, out = result
        payload = json.loads(out)
        if code != code_expected or payload["passed"] is not (code_expected == 0):
            return False
        return anti is None or payload["antiunitary"] is anti

    return check


def make_ops(inputs: dict, corrupt: bool = False) -> list[Op]:
    ops: list[Op] = []
    corrupt_next = corrupt
    work = inputs["dir"]
    files = inputs["files"]

    def add(name, argv, check):
        # reconstruct reads the file probes writes in the same pass
        stage = 1 if argv[0] == "reconstruct" else 0
        ops.append(Op(name=name, span=f"cli.{argv[0]}", fn=lambda: _main(argv), check=check, stage=stage))

    for d in DIMS[inputs["size"]]:
        seed = str(inputs["gen_seeds"][d])
        for kind in ("state", "pure", "unitary", "antiunitary"):
            path = work / f"d{d}-gen-{kind}.json"
            add(f"gen.d{d}.{kind}", ["gen", kind, "--dim", str(d), "--seed", seed, "-o", str(path)],
                _check_gen(kind, d, path))
        (a_path, a), (c_path, c) = files[(d, "A")], files[(d, "C")]
        for kind in ("bregman", "jensen"):
            for spec in GENERATORS:
                for (x_label, x_path, x), (y_label, y_path, y) in (
                    (("C", c_path, c), ("A", a_path, a)),
                    (("A", a_path, a), ("C", c_path, c)),
                ):
                    expected = ref.bregman(spec, x, y) if kind == "bregman" else ref.jensen(spec, x, y)
                    if corrupt_next:
                        expected = expected + 1e-3 if math.isfinite(expected) else 1.0
                        corrupt_next = False
                    add(f"div.d{d}.{kind}-{spec}.{x_label}-{y_label}",
                        ["div", kind, "--f", spec, str(x_path), str(y_path)], _check_value(expected))
        u_path, u = files[(d, "U")]
        table = [[0.0, ref.bregman("xlogx", a, c)], [ref.bregman("xlogx", c, a), 0.0]]
        add(f"table.d{d}", ["table", "--kind", "bregman", "--f", "xlogx", str(a_path), str(c_path)],
            _check_table(table))
        probes, rec = work / f"d{d}-probes.json", work / f"d{d}-rec.json"
        add(f"probes.d{d}", ["probes", "--dim", str(d), "--oracle", f"conjugate:{u_path}", "-o", str(probes)],
            lambda r: r[0] == 0)
        add(f"reconstruct.d{d}", ["reconstruct", str(probes), "-o", str(rec)], _check_reconstruct(u, rec))
        for oracle, kind, spec, code, anti in VERIFY:
            name = f"verify.d{d}.{oracle.replace(':', '-')}.{kind}-{spec}"
            if oracle.startswith("conjugate:"):
                oracle = f"conjugate:{files[(d, oracle[-1])][0]}"
            add(name, ["verify", "--kind", kind, "--f", spec, "--oracle", oracle, "--dim", str(d)],
                _check_verify(code, anti))
        add(f"suite.d{d}", ["suite", "all", "--dims", str(d)],
            lambda r: r[0] == 0 and json.loads(r[1])["passed"] is True)
    return ops


def extra_report(inputs: dict) -> dict:
    return {}


def layer_extras(inputs: dict, ops: list[Op], loop) -> dict:
    return {}
