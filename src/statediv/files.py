"""Text-based state, operator, probe and table files.

Matrices are stored as explicit re/im arrays in JSON: desk-scale dimensions
make readability worth the size, and a reimplementation in another language
needs a bit-exact, trivially parseable format.  Floats are written with
Python's shortest round-tripping repr, so write -> read -> write is
byte-identical.  The infinite divergence value is serialized as the literal
string "inf" -- never as a sentinel number -- because the finite/infinite
dichotomy is semantic, not numeric.  Every JSON document the package writes
follows one rule for non-finite numbers (``json_value``): the strings "inf",
"-inf" and "nan", since JSON has no token for them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import FileFormatError, ParameterError, ValidationError
from .generators import parse_generator
from .hermitian import DensityState, RankOneProjection, hermitian_part
from .preserver import SymmetryOp, probe_labels

__all__ = [
    "read_state",
    "write_state",
    "read_symmetry",
    "write_symmetry",
    "read_probe_images",
    "write_probe_images",
    "DivergenceTable",
    "read_table",
    "write_table",
    "format_divergence",
    "json_value",
    "write_json",
]


def format_divergence(value: float) -> str:
    """Fixed 12-decimal rendering for the CLI; 'inf' for the infinite branch."""
    return "inf" if math.isinf(value) else f"{value:.12f}"


def json_value(value: float) -> "float | str":
    """``value`` as a float, or as "inf", "-inf" or "nan" when it is not finite."""
    value = float(value)
    return value if math.isfinite(value) else str(value)


def _parse_value(raw: object, context: str) -> float:
    if raw == "inf":
        return math.inf
    # abs(raw) <= max rejects nan, inf and JSON integers beyond the float range.
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and abs(raw) <= sys.float_info.max:
        return float(raw)
    raise FileFormatError(f"{context}: expected a finite number or 'inf', got {raw!r}")


def _matrix_payload(matrix: np.ndarray) -> dict:
    return {
        "re": [[float(x) for x in row] for row in matrix.real],
        "im": [[float(x) for x in row] for row in matrix.imag],
    }


def _payload_matrix(obj: dict, dim: int, context: str) -> np.ndarray:
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{context}: malformed re/im arrays: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise FileFormatError(
            f"{context}: expected {dim}x{dim} re/im arrays, got {re.shape} and {im.shape}"
        )
    matrix = np.empty((dim, dim), dtype=complex)
    matrix.real, matrix.imag = re, im  # re + 1j * im would turn some -0.0 into 0.0
    return matrix


def _load_json(path: "str | Path") -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return obj


def write_json(path: "str | Path | None", obj: dict) -> None:
    """``obj`` as indented JSON and a newline, to the file ``path``, or to stdout when None."""
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def _read_dim(obj: dict, path: "str | Path") -> int:
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: 'dim' must be a positive integer, got {dim!r}")
    return dim


def write_state(path: "str | Path", state: DensityState) -> None:
    write_json(path, {"dim": state.dim, **_matrix_payload(state.matrix)})


def read_state(path: "str | Path", tols: Tolerances = DEFAULT_TOLS) -> DensityState:
    obj = _load_json(path)
    dim = _read_dim(obj, path)
    matrix = _payload_matrix(obj, dim, str(path))
    return DensityState.from_matrix(matrix, tols)


def write_symmetry(path: "str | Path", op: SymmetryOp) -> None:
    write_json(
        path,
        {"dim": op.dim, "antiunitary": bool(op.antiunitary), **_matrix_payload(op.matrix)},
    )


def read_symmetry(path: "str | Path", tols: Tolerances = DEFAULT_TOLS) -> SymmetryOp:
    obj = _load_json(path)
    dim = _read_dim(obj, path)
    antiunitary = obj.get("antiunitary")
    if not isinstance(antiunitary, bool):
        raise FileFormatError(f"{path}: 'antiunitary' must be a boolean")
    matrix = _payload_matrix(obj, dim, str(path))
    return SymmetryOp.from_matrix(matrix, antiunitary, tols)


def write_probe_images(path: "str | Path", images: Sequence[RankOneProjection]) -> None:
    """Write probe images in canonical probe order, labeled, each as the
    Hermitian part of its matrix (what reading it back yields)."""
    dim = images[0].dim if images else 0
    labels = probe_labels(dim)
    if len(images) != len(labels):
        raise ValidationError(f"expected {len(labels)} probe images for dim {dim}, got {len(images)}")
    payload = {
        "dim": dim,
        "images": [
            {"label": label, **_matrix_payload(hermitian_part(image.matrix))}
            for label, image in zip(labels, images)
        ],
    }
    write_json(path, payload)


def read_probe_images(
    path: "str | Path", tols: Tolerances = DEFAULT_TOLS
) -> list[RankOneProjection]:
    """Read probe images; entries may appear in any order but must cover the
    canonical label set exactly: 2 dim distinct known labels.  Each image must
    validate as a pure state and keeps its matrix as read."""
    obj = _load_json(path)
    dim = _read_dim(obj, path)
    entries = obj.get("images")
    if not isinstance(entries, list):
        raise FileFormatError(f"{path}: 'images' must be a list")
    if len(entries) != 2 * dim:
        raise FileFormatError(f"{path}: a dim-{dim} probe file needs {2 * dim} images, got {len(entries)}")
    labels = probe_labels(dim)
    by_label: dict[str, RankOneProjection] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "label" not in entry:
            raise FileFormatError(f"{path}: each image needs a 'label'")
        label = entry["label"]
        if label not in labels:
            raise FileFormatError(f"{path}: unknown probe label {label!r}")
        if label in by_label:
            raise FileFormatError(f"{path}: duplicate probe label {label!r}")
        matrix = _payload_matrix(entry, dim, f"{path}[{label}]")
        state = DensityState.from_matrix(matrix, tols)
        vector = state.as_rank_one(tols).vector
        by_label[label] = RankOneProjection(vector=vector, source_matrix=state.matrix)
    return [by_label[label] for label in labels]


@dataclass(frozen=True)
class DivergenceTable:
    """A square table of pairwise divergence values between labeled states."""

    kind: str
    generator: str
    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValidationError("divergence table must be square and match its labels")
        for i in range(n):
            if self.values[i][i] != 0.0:
                raise ValidationError(f"divergence table diagonal must be 0, got {self.values[i][i]!r}")
        if any(math.isinf(v) for row in self.values for v in row):
            if self.kind != "bregman":
                raise ValidationError("only Bregman tables may contain 'inf'")
            try:
                generator = parse_generator(self.generator)
            except ParameterError:
                generator = None
            if generator is not None and generator.finite_zero_slope:
                raise ValidationError(
                    f"generator {self.generator!r} has finite f'(0); its table cannot contain 'inf'"
                )


def write_table(path: "str | Path | None", table: DivergenceTable) -> None:
    """Write the table as JSON to ``path``, or to stdout when None."""
    payload = {
        "kind": table.kind,
        "generator": table.generator,
        "labels": list(table.labels),
        "values": [[json_value(v) for v in row] for row in table.values],
    }
    write_json(path, payload)


def read_table(path: "str | Path") -> DivergenceTable:
    obj = _load_json(path)
    kind = obj.get("kind")
    generator = obj.get("generator")
    labels = obj.get("labels")
    rows = obj.get("values")
    if kind not in ("bregman", "jensen"):
        raise FileFormatError(f"{path}: 'kind' must be 'bregman' or 'jensen', got {kind!r}")
    if not isinstance(generator, str):
        raise FileFormatError(f"{path}: 'generator' must be a string")
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise FileFormatError(f"{path}: 'labels' must be a list of strings")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FileFormatError(f"{path}: 'values' must be a list of rows")
    values = tuple(
        tuple(_parse_value(v, f"{path} values[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )
    try:
        return DivergenceTable(kind=kind, generator=generator, labels=tuple(labels), values=values)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
