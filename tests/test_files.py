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
    StateDivError,
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


def _documents() -> dict:
    """One valid JSON document per reader, at d = 2."""
    documents = {}
    with tempfile.TemporaryDirectory() as tmp:
        written = {
            read_state: (write_state, random_state(2, rng=rng_for(3))),
            read_symmetry: (write_symmetry, SymmetryOp(matrix=haar_unitary(2, rng_for(4)), antiunitary=True)),
            read_probe_images: (write_probe_images, wigner_probes(2)),
            read_table: (write_table, DivergenceTable("bregman", "xlogx", ("a", "b"), ((0, math.inf), (1.5, 0)))),
        }
        for read, (write, obj) in written.items():
            path = Path(tmp) / "doc.json"
            write(path, obj)
            documents[read] = json.loads(path.read_text())
    return documents


DOCUMENTS = _documents()
READERS = list(DOCUMENTS)
# What a field is swapped for: a bool, null, a string, or nested lists of these and small integers.
_LEAF = st.booleans() | st.none() | st.integers(-3, 3) | st.text(max_size=2)
JUNK = st.booleans() | st.none() | st.text(max_size=4) | st.recursive(_LEAF, st.lists, max_leaves=6)


def _paths(node, prefix=()) -> list[tuple]:
    """The key path of every value inside a JSON document, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths += _paths(child, prefix + (key,))
    return paths


def _read_only_raises_statediv_errors(read, content: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(content)
        try:
            read(path)
        except StateDivError:
            pass


class TestMalformedInputProperty:
    """Every reader turns a malformed file into a ``StateDivError``, never another exception."""

    @pytest.mark.parametrize("read", READERS, ids=lambda r: r.__name__)
    @given(content=st.binary(max_size=64) | st.binary(max_size=8).map(lambda b: b'{"dim": 2, ' + b))
    def test_arbitrary_bytes(self, read, content):
        _read_only_raises_statediv_errors(read, content)

    @pytest.mark.parametrize("read", READERS, ids=lambda r: r.__name__)
    @given(data=st.data())
    def test_fields_swapped_for_junk(self, read, data):
        document = json.loads(json.dumps(DOCUMENTS[read]))
        for _ in range(data.draw(st.integers(1, 3))):
            *parents, key = data.draw(st.sampled_from(_paths(document)))
            target = document
            for step in parents:
                target = target[step]
            target[key] = data.draw(JUNK)
        _read_only_raises_statediv_errors(read, json.dumps(document).encode())


class TestBooleansAreNotNumbers:
    @pytest.mark.parametrize("read", READERS[:3], ids=lambda r: r.__name__)
    def test_boolean_dim_is_a_file_error(self, tmp_path, read):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**DOCUMENTS[read], "dim": True}))
        with pytest.raises(FileFormatError, match="'dim' must be a positive integer, got True"):
            read(path)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_table_value_is_a_file_error(self, tmp_path, flag):
        path = tmp_path / "table.json"
        document = DOCUMENTS[read_table]
        path.write_text(json.dumps({**document, "values": [[0.0, flag], [1.5, 0.0]]}))
        expected = rf"values\[0\]\[1\]: expected a finite number or 'inf', got {flag}"
        with pytest.raises(FileFormatError, match=expected):
            read_table(path)


def test_non_utf8_file_is_a_file_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 1, "re": [[1.0]], "im": [[0.0]], "note": "\xe9"}')
    with pytest.raises(FileFormatError, match="is not valid JSON: 'utf-8' codec can't decode"):
        read_state(path)


def test_unwritable_path_is_a_file_error(tmp_path):
    path = tmp_path / "missing" / "state.json"
    with pytest.raises(FileFormatError, match="cannot write .*state.json"):
        write_state(path, random_state(2, rng=rng_for(1)))


def test_integer_beyond_float_range_is_a_file_error(tmp_path):
    state, table = tmp_path / "state.json", tmp_path / "table.json"
    state.write_text(json.dumps({"dim": 1, "re": [[10**400]], "im": [[0]]}))
    table.write_text(json.dumps({**DOCUMENTS[read_table], "values": [[0, 10**400], [1, 0]]}))
    with pytest.raises(FileFormatError, match="int too large to convert to float"):
        read_state(state)
    with pytest.raises(FileFormatError, match=r"values\[0\]\[1\]: expected a finite number"):
        read_table(table)
