import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from statediv import (
    FileFormatError,
    SymmetryOp,
    ValidationError,
    conjugation_oracle,
    haar_unitary,
    random_pure,
    random_state,
    rng_for,
    transpose_oracle,
    wigner_probes,
)
from statediv.files import (
    DivergenceTable,
    format_divergence,
    read_probe_images,
    read_state,
    read_symmetry,
    read_table,
    write_probe_images,
    write_state,
    write_symmetry,
    write_table,
)


class TestStateFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        state = random_state(4, rng=rng_for(41))
        path1 = tmp_path / "a.json"
        path2 = tmp_path / "b.json"
        write_state(path1, state)
        loaded = read_state(path1)
        np.testing.assert_array_equal(loaded.matrix, state.matrix)
        write_state(path2, loaded)
        assert path1.read_bytes() == path2.read_bytes()

    def test_rejects_invalid_state(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2}))
        with pytest.raises(ValidationError):
            read_state(path)  # trace 2

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            read_state(path)

    def test_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"dim": 3, "re": [[1.0]], "im": [[0.0]]}))
        with pytest.raises(FileFormatError):
            read_state(path)

    def test_rejects_bad_dim(self, tmp_path):
        path = tmp_path / "dim.json"
        path.write_text(json.dumps({"dim": 0, "re": [], "im": []}))
        with pytest.raises(FileFormatError):
            read_state(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_state(tmp_path / "missing.json")


class TestSymmetryFiles:
    def test_roundtrip(self, tmp_path):
        op = SymmetryOp(matrix=haar_unitary(3, rng_for(42)), antiunitary=True)
        path = tmp_path / "u.json"
        write_symmetry(path, op)
        loaded = read_symmetry(path)
        assert loaded.antiunitary
        np.testing.assert_array_equal(loaded.matrix, op.matrix)

    def test_rejects_non_unitary(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(
            json.dumps(
                {"dim": 2, "antiunitary": False, "re": [[2.0, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2}
            )
        )
        with pytest.raises(ValidationError):
            read_symmetry(path)

    def test_requires_flag(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2}))
        with pytest.raises(FileFormatError):
            read_symmetry(path)


class TestProbeImageFiles:
    def test_roundtrip_preserves_canonical_order(self, tmp_path):
        op = SymmetryOp(matrix=haar_unitary(3, rng_for(43)), antiunitary=False)
        images = [op.apply_projection(p) for p in wigner_probes(3)]
        path = tmp_path / "probes.json"
        write_probe_images(path, images)
        loaded = read_probe_images(path)
        assert len(loaded) == len(images)
        for got, want in zip(loaded, images):
            np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-12)

    def test_reorders_shuffled_entries(self, tmp_path):
        images = wigner_probes(2)
        path = tmp_path / "probes.json"
        write_probe_images(path, images)
        obj = json.loads(path.read_text())
        obj["images"] = obj["images"][::-1]
        path.write_text(json.dumps(obj))
        loaded = read_probe_images(path)
        for got, want in zip(loaded, images):
            np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-12)

    def test_missing_label_rejected(self, tmp_path):
        images = wigner_probes(2)
        path = tmp_path / "probes.json"
        write_probe_images(path, images)
        obj = json.loads(path.read_text())
        obj["images"] = obj["images"][:-1]
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError):
            read_probe_images(path)

    def test_non_pure_image_rejected(self, tmp_path):
        path = tmp_path / "probes.json"
        images = wigner_probes(2)
        write_probe_images(path, images)
        obj = json.loads(path.read_text())
        obj["images"][0]["re"] = [[0.5, 0.0], [0.0, 0.5]]
        obj["images"][0]["im"] = [[0.0, 0.0], [0.0, 0.0]]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            read_probe_images(path)


class TestTableFiles:
    # A generator name that does not parse cannot be checked for finite f'(0), so it may carry inf.
    @pytest.mark.parametrize("generator", ["xlogx", "my-entropy"])
    def test_roundtrip_with_inf(self, tmp_path, generator):
        table = DivergenceTable(
            kind="bregman",
            generator=generator,
            labels=("a", "b"),
            values=((0.0, math.inf), (0.42, 0.0)),
        )
        path = tmp_path / "t.json"
        write_table(path, table)
        raw = json.loads(path.read_text())
        assert raw["values"][0][1] == "inf"
        loaded = read_table(path)
        assert loaded.values[0][1] == math.inf
        assert loaded.values[1][0] == 0.42

    def test_inf_forbidden_for_jensen(self):
        with pytest.raises(ValidationError):
            DivergenceTable(
                kind="jensen", generator="xlogx", labels=("a", "b"), values=((0.0, math.inf), (1.0, 0.0))
            )

    def test_inf_forbidden_for_finite_class_generator(self):
        with pytest.raises(ValidationError):
            DivergenceTable(
                kind="bregman",
                generator="quadratic",
                labels=("a", "b"),
                values=((0.0, math.inf), (1.0, 0.0)),
            )

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            DivergenceTable(kind="jensen", generator="quadratic", labels=("a",), values=((0.1,),))

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"kind": "renyi", "generator": "x", "labels": [], "values": []}))
        with pytest.raises(FileFormatError):
            read_table(path)


class TestFormatting:
    def test_fixed_twelve_decimals(self):
        assert format_divergence(2.0) == "2.000000000000"
        assert format_divergence(math.log(2.0)) == "0.693147180560"
        assert format_divergence(math.inf) == "inf"


def _round_trip_bytes(write, read, obj) -> tuple[bytes, bytes]:
    """The bytes of write(obj) and of write(read(that file))."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        write(first, obj)
        write(second, read(first))
        return first.read_bytes(), second.read_bytes()


class TestRoundTripProperty:
    """write -> read -> write is byte-identical for every file kind."""

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**16), st.booleans())
    def test_state_files(self, dim, rank, seed, pure):
        rng = rng_for(seed)
        state = random_pure(dim, rng).to_state() if pure else random_state(dim, min(rank, dim), rng=rng)
        first, second = _round_trip_bytes(write_state, read_state, state)
        assert first == second

    @given(st.integers(1, 6), st.integers(0, 2**16), st.booleans())
    def test_operator_files(self, dim, seed, antiunitary):
        op = SymmetryOp(matrix=haar_unitary(dim, rng_for(seed)), antiunitary=antiunitary)
        first, second = _round_trip_bytes(write_symmetry, read_symmetry, op)
        assert first == second

    @given(
        st.integers(2, 6),
        st.integers(0, 2**16),
        st.sampled_from(["vector", "unitary", "antiunitary", "transpose"]),
    )
    def test_probe_image_files(self, dim, seed, route):
        probes = wigner_probes(dim)
        op = SymmetryOp(matrix=haar_unitary(dim, rng_for(seed)), antiunitary=route == "antiunitary")
        if route == "vector":
            images = [op.apply_projection(p) for p in probes]
        else:
            oracle = transpose_oracle(dim) if route == "transpose" else conjugation_oracle(op)
            images = [oracle(p.to_state()).as_rank_one() for p in probes]
        first, second = _round_trip_bytes(write_probe_images, read_probe_images, images)
        assert first == second

    @given(st.data())
    def test_table_files(self, data):
        n = data.draw(st.integers(1, 4))
        kind, generator = data.draw(
            st.sampled_from([("bregman", "xlogx"), ("bregman", "quadratic"), ("jensen", "power:q=3/2")])
        )
        entry = st.floats(allow_nan=False, allow_infinity=False)
        if generator == "xlogx":
            entry = entry | st.just(math.inf)
        values = tuple(
            tuple(0.0 if i == j else data.draw(entry) for j in range(n)) for i in range(n)
        )
        labels = tuple(f"s{i}" for i in range(n))
        table = DivergenceTable(kind=kind, generator=generator, labels=labels, values=values)
        first, second = _round_trip_bytes(write_table, read_table, table)
        assert first == second
