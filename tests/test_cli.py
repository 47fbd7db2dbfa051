import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from statediv import (
    DensityState,
    ParameterError,
    PreserverOracle,
    Tolerances,
    bregman,
    density_state,
    jensen,
    parse_generator,
    random_state,
    rng_for,
)
from statediv import cli as statediv_cli
from statediv.cli import _parser, _resolve_tols, main
from statediv.files import read_state, read_symmetry, read_table, write_state

RUN = [sys.executable, "-m", "statediv"]


def cli(*args, **kwargs):
    return subprocess.run(
        RUN + [str(a) for a in args], capture_output=True, text=True, timeout=300, **kwargs
    )


@pytest.fixture()
def basis_states(tmp_path):
    e1 = tmp_path / "e1.json"
    e2 = tmp_path / "e2.json"
    write_state(e1, density_state(np.diag([1.0, 0.0])))
    write_state(e2, density_state(np.diag([0.0, 1.0])))
    return e1, e2


class TestDiv:
    def test_bregman_quadratic_fixed_digits(self, basis_states):
        e1, e2 = basis_states
        result = cli("div", "bregman", "--f", "quadratic", e1, e2)
        assert result.returncode == 0
        assert result.stdout.strip() == "2.000000000000"

    def test_jensen_xlogx_log_two(self, basis_states):
        e1, e2 = basis_states
        result = cli("div", "jensen", "--f", "xlogx", e1, e2)
        assert result.returncode == 0
        assert result.stdout.strip() == "0.693147180560"

    def test_bregman_xlogx_infinite(self, basis_states):
        e1, e2 = basis_states
        result = cli("div", "bregman", "--f", "xlogx", e1, e2)
        assert result.returncode == 0
        assert result.stdout.strip() == "inf"

    def test_parse_error_exit_code(self, tmp_path, basis_states):
        e1, _ = basis_states
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli("div", "bregman", "--f", "quadratic", e1, bad).returncode == 3

    def test_validation_error_exit_code(self, tmp_path, basis_states):
        e1, _ = basis_states
        invalid = tmp_path / "invalid.json"
        invalid.write_text(
            json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
        )
        assert cli("div", "bregman", "--f", "quadratic", e1, invalid).returncode == 4

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_entry_exit_code(self, tmp_path, basis_states, bad, capsys):
        e1, _ = basis_states
        invalid = tmp_path / "non_finite.json"
        invalid.write_text(f'{{"dim": 2, "re": [[{bad}, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}}')
        assert main(["div", "bregman", "--f", "quadratic", str(e1), str(invalid)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite entries: [0, 0]" in captured.err

    def test_dimension_mismatch_exit_code(self, tmp_path, basis_states):
        e1, _ = basis_states
        other = tmp_path / "three.json"
        write_state(other, density_state(np.eye(3) / 3))
        assert cli("div", "bregman", "--f", "quadratic", e1, other).returncode == 5

    @pytest.mark.parametrize("spec", ["power:q=1", "power:q=1e999"])  # 1e999 overflows a float
    def test_bad_generator_exit_code(self, basis_states, spec):
        e1, e2 = basis_states
        result = cli("div", "bregman", "--f", spec, e1, e2)
        assert result.returncode == 6
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestFileErrors:
    """Every unreadable, unwritable or unparsable file exits 3 with one ``error:`` line."""

    @pytest.mark.parametrize("kind", ["state", "operator", "probes"])
    def test_boolean_dim_exits_3(self, tmp_path, kind, capsys):
        path = tmp_path / f"{kind}.json"
        document = {"dim": True, "re": [[1.0]], "im": [[0.0]]}
        if kind == "operator":
            document["antiunitary"] = False
        if kind == "probes":
            document = {"dim": True, "images": []}
        path.write_text(json.dumps(document))
        argv = {
            "state": ["div", "bregman", "--f", "quadratic", str(path), str(path)],
            "operator": [
                "verify", "--kind", "bregman", "--f", "quadratic", "--dim", "2", "--oracle", f"conjugate:{path}"
            ],
            "probes": ["reconstruct", str(path), "-o", str(tmp_path / "op.json")],
        }[kind]
        assert main(argv) == 3
        assert "'dim' must be a positive integer, got True" in _one_error_line(capsys)

    def test_non_utf8_file_exits_3(self, tmp_path, basis_states, capsys):
        e1, _ = basis_states
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(e1.read_bytes().replace(b'"dim"', b'"note": "\xe9", "dim"'))
        assert main(["div", "bregman", "--f", "quadratic", str(e1), str(latin1)]) == 3
        assert "is not valid JSON: 'utf-8' codec can't decode" in _one_error_line(capsys)

    @pytest.mark.parametrize("command", ["gen", "table", "probes", "reconstruct", "suite"])
    def test_unwritable_output_exits_3(self, tmp_path, basis_states, command, capsys):
        probes_file = tmp_path / "probes.json"
        assert main(["probes", "--dim", "2", "--oracle", "transpose", "-o", str(probes_file)]) == 0
        missing = tmp_path / "missing" / "out.json"
        argv = {
            "gen": ["gen", "state", "--dim", "2"],
            "table": ["table", "--kind", "bregman", "--f", "quadratic", *map(str, basis_states)],
            "probes": ["probes", "--dim", "2", "--oracle", "transpose"],
            "reconstruct": ["reconstruct", str(probes_file)],
            "suite": ["suite", "convexity", "--dims", "2", "--f", "quadratic"],
        }[command]
        assert main([*argv, "-o", str(missing)]) == 3
        assert f"cannot write {missing}" in _one_error_line(capsys)


class TestGen:
    def test_state_file_validates_and_is_deterministic(self, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        assert cli("gen", "state", "--dim", 3, "--seed", 7, "-o", out1).returncode == 0
        assert cli("gen", "state", "--dim", 3, "--seed", 7, "-o", out2).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        state = read_state(out1)
        assert state.dim == 3

    def test_rank_restriction(self, tmp_path):
        out = tmp_path / "rk.json"
        assert cli("gen", "state", "--dim", 4, "--rank", 2, "--seed", 1, "-o", out).returncode == 0
        assert read_state(out).rank == 2

    def test_pure_state(self, tmp_path):
        out = tmp_path / "p.json"
        assert cli("gen", "pure", "--dim", 2, "--seed", 7, "-o", out).returncode == 0
        assert read_state(out).rank == 1

    def test_unitary_file(self, tmp_path):
        out = tmp_path / "u.json"
        assert cli("gen", "unitary", "--dim", 4, "--seed", 3, "-o", out).returncode == 0
        op = read_symmetry(out)
        assert not op.antiunitary
        np.testing.assert_allclose(op.matrix @ op.matrix.conj().T, np.eye(4), atol=1e-12)

    def test_antiunitary_flag(self, tmp_path):
        out = tmp_path / "v.json"
        assert cli("gen", "antiunitary", "--dim", 3, "--seed", 6, "-o", out).returncode == 0
        assert read_symmetry(out).antiunitary

    def test_invalid_rank(self, tmp_path):
        out = tmp_path / "x.json"
        assert cli("gen", "state", "--dim", 2, "--rank", 5, "--seed", 1, "-o", out).returncode == 6

    @pytest.mark.parametrize(
        "args,digest",
        [
            (["state", "--dim", "5"], "1c043f16592e7087e0706edd75fe73b52ee614cc67c340da2736c54b4648f889"),
            (
                ["state", "--dim", "6", "--rank", "3"],
                "1367fa6a97a6b46a7ad690044fdd40ae6a1ee448b44c166e82a4c0ce3e72ddc0",
            ),
            (["pure", "--dim", "3"], "dcf868728d40baf7a5e0b08d03d6c01a98d8e4b4c86422e050588366990c61a0"),
            (["pure", "--dim", "8"], "540ed464c4a9552b6cf66496cf5fb7c10717d98ee1f836d6a088201c00246282"),
        ],
    )
    def test_sampling_contract_bytes(self, tmp_path, args, digest):
        """The seeded state files are part of the file-format contract."""
        out = tmp_path / "s.json"
        assert main(["gen", *args, "--seed", "7", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTable:
    def test_table_structure(self, tmp_path, basis_states):
        e1, e2 = basis_states
        mixed = tmp_path / "m.json"
        write_state(mixed, density_state(np.eye(2) / 2))
        out = tmp_path / "t.json"
        result = cli("table", "--kind", "bregman", "--f", "xlogx", e1, e2, mixed, "-o", out)
        assert result.returncode == 0
        table = read_table(out)
        n = len(table.labels)
        assert all(table.values[i][i] == 0.0 for i in range(n))
        assert table.values[0][1] == float("inf")  # e1 vs e2: supports not nested
        assert np.isfinite(table.values[0][2])  # full-rank second argument

    def test_jensen_table_never_infinite(self, tmp_path, basis_states):
        e1, e2 = basis_states
        out = tmp_path / "t.json"
        assert cli("table", "--kind", "jensen", "--f", "xlogx", e1, e2, "-o", out).returncode == 0
        table = read_table(out)
        assert all(np.isfinite(v) for row in table.values for v in row)

    def test_stdout_equals_the_output_file(self, tmp_path, basis_states, capsys):
        e1, e2 = basis_states
        out = tmp_path / "t.json"
        args = ["table", "--kind", "bregman", "--f", "xlogx", str(e1), str(e2)]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert main(args + ["-o", str(out)]) == 0
        assert '"inf"' in stdout
        assert stdout == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("kind, core", [("bregman", "_bregman_pairs"), ("jensen", "_jensen_pairs")])
    def test_a_table_is_one_stacked_core_call(self, tmp_path, kind, core):
        """One stacked call scores the ordered off-diagonal pairs; the entries are
        the one-pair values bit for bit."""
        paths = []
        for seed, rank in enumerate((None, None, 1)):
            paths.append(str(tmp_path / f"s{seed}.json"))
            write_state(paths[-1], random_state(3, rank, rng=rng_for(seed)))
        out = str(tmp_path / "t.json")
        args = ["table", "--kind", kind, "--f", "power:q=3/2", "-o", out]
        with mock.patch.object(statediv_cli, core, wraps=getattr(statediv_cli, core)) as calls:
            assert main(args + paths[:1]) == 0
            assert calls.call_count == 0
            assert read_table(out).values == ((0.0,),)
            assert main(args + paths) == 0
        assert calls.call_count == 1
        assert len(calls.call_args.args[1]) == 6
        divergence = bregman if kind == "bregman" else jensen
        f, states = parse_generator("power:q=3/2"), [read_state(p) for p in paths]
        expected = [[0.0 if a is b else divergence(f, a, b) for b in states] for a in states]
        assert [list(row) for row in read_table(out).values] == expected

    def test_jobs_flag_is_usage_error(self, tmp_path, basis_states):
        e1, e2 = basis_states
        result = cli("table", "--kind", "jensen", "--f", "quadratic", e1, e2, "--jobs", 4)
        assert result.returncode == 2
        assert "--jobs" in result.stderr


class TestReconstructAndVerify:
    def test_probes_refuses_an_image_with_non_finite_eigenvalues(self, tmp_path, monkeypatch, capsys):
        def mapping(state):  # the matrix is intact; one eigenvalue is NaN
            w = state.w.copy()
            w[-1] = math.nan
            return DensityState(w, state.v, matrix=state.matrix)

        oracle = PreserverOracle(dim=3, mapping=mapping, label="nan-image")
        monkeypatch.setattr("statediv.cli._parse_oracle", lambda spec, dim, tols: oracle)
        probes_file = tmp_path / "probes.json"
        assert main(["probes", "--dim", "3", "--oracle", "transpose", "-o", str(probes_file)]) == 8
        assert "non-finite eigenvalues" in capsys.readouterr().err
        assert not probes_file.exists()

    def test_probe_reconstruct_roundtrip_unitary(self, tmp_path):
        u_file = tmp_path / "u.json"
        probes_file = tmp_path / "probes.json"
        w_file = tmp_path / "w.json"
        assert cli("gen", "unitary", "--dim", 3, "--seed", 11, "-o", u_file).returncode == 0
        assert (
            cli("probes", "--dim", 3, "--oracle", f"conjugate:{u_file}", "-o", probes_file).returncode == 0
        )
        result = cli("reconstruct", probes_file, "-o", w_file)
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["antiunitary"] is False
        assert report["max_probe_residual"] < 1e-8
        rebuilt = read_symmetry(w_file)
        source = read_symmetry(u_file)
        rng = rng_for(77)
        from statediv import random_pure

        for _ in range(20):
            r = random_pure(3, rng)
            np.testing.assert_allclose(
                rebuilt.apply_matrix(r.matrix), source.apply_matrix(r.matrix), atol=1e-8
            )

    def test_reconstruct_transpose_probes_flags_antiunitary(self, tmp_path):
        probes_file = tmp_path / "probes.json"
        w_file = tmp_path / "w.json"
        assert cli("probes", "--dim", 4, "--oracle", "transpose", "-o", probes_file).returncode == 0
        result = cli("reconstruct", probes_file, "-o", w_file)
        assert result.returncode == 0
        assert json.loads(result.stdout)["antiunitary"] is True

    def test_reconstruct_rejects_corrupted_probe(self, tmp_path):
        u_file = tmp_path / "u.json"
        probes_file = tmp_path / "probes.json"
        assert cli("gen", "unitary", "--dim", 3, "--seed", 12, "-o", u_file).returncode == 0
        assert (
            cli("probes", "--dim", 3, "--oracle", f"conjugate:{u_file}", "-o", probes_file).returncode == 0
        )
        obj = json.loads(probes_file.read_text())
        # replace one superposition image with an unrelated basis projection
        obj["images"][4]["re"] = np.diag([0.0, 0.0, 1.0]).tolist()
        obj["images"][4]["im"] = np.zeros((3, 3)).tolist()
        probes_file.write_text(json.dumps(obj))
        result = cli("reconstruct", probes_file, "-o", tmp_path / "w.json")
        assert result.returncode == 7
        assert "transition" in result.stderr

    def test_verify_conjugation_passes(self, tmp_path):
        v_file = tmp_path / "v.json"
        assert cli("gen", "antiunitary", "--dim", 3, "--seed", 13, "-o", v_file).returncode == 0
        result = cli(
            "verify",
            "--kind",
            "jensen",
            "--f",
            "power:q=3/2",
            "--oracle",
            f"conjugate:{v_file}",
            "--dim",
            3,
            "--samples",
            6,
            "--seed",
            2,
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["passed"] is True
        assert payload["antiunitary"] is True

    def test_verify_depolarizing_fails(self):
        result = cli(
            "verify",
            "--kind",
            "bregman",
            "--f",
            "quadratic",
            "--oracle",
            "depolarize:0.5",
            "--dim",
            3,
            "--samples",
            6,
            "--seed",
            2,
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["passed"] is False
        assert payload["max_divergence_deviation"] > 1e-3

    def test_verify_names_the_failed_stage(self, capsys):
        argv = ["verify", "--kind", "bregman", "--f", "quadratic", "--oracle", "depolarize:0.5", "--dim", "3"]
        assert main(argv) == 1
        assert '"failed_stage": "divergence-deviation"' in capsys.readouterr().out

    def test_verify_rejects_non_finite_operator(self, tmp_path, capsys):
        operator = tmp_path / "nan_op.json"
        re = [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]]
        operator.write_text(json.dumps({"dim": 3, "antiunitary": False, "re": re, "im": [[0.0] * 3] * 3}))
        argv = ["verify", "--kind", "bregman", "--f", "quadratic", "--oracle", f"conjugate:{operator}"]
        assert main([*argv, "--dim", "3"]) == 4
        assert "non-finite entries: [1, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("samples, code", [("0", 0), ("-1", 6)])
    def test_verify_sample_count(self, samples, code, capsys):
        argv = ["verify", "--kind", "bregman", "--f", "quadratic", "--oracle", "transpose", "--dim", "3"]
        assert main([*argv, "--samples", samples]) == code
        if code == 6:
            assert "sample size must be >= 0" in capsys.readouterr().err


class TestSuite:
    def test_unknown_suite_is_usage_error(self):
        assert cli("suite", "nonsense").returncode == 2

    def test_suite_runs_and_reports(self, tmp_path):
        out = tmp_path / "report.json"
        result = cli("suite", "closed-forms", "--dims", 2, 3, "--seed", 5, "-o", out)
        assert result.returncode == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["suite"] == "closed-forms"
        assert report["checks"]

    def test_byte_identical_reports_for_same_seed(self):
        # identical invocations (stdout reports) must agree byte for byte
        first = cli("suite", "convexity", "--dims", 2, "--seed", 3)
        second = cli("suite", "convexity", "--dims", 2, "--seed", 3)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout

    def test_wall_time_goes_to_stderr_not_report(self, tmp_path):
        out = tmp_path / "r.json"
        result = cli("suite", "convexity", "--dims", 2, "--seed", 3, "-o", out)
        assert "wall time" in result.stderr
        report = json.loads(out.read_text())
        assert "wall_time_s" not in report


    def test_in_process_report_records_its_own_arguments(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["host-program", "--some", "flag"])
        assert main(["suite", "convexity", "--dims", "2", "--f", "quadratic"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "statediv suite convexity --dims 2 --f quadratic"


class TestInProcessReuse:
    """``main`` reuses one parser per process: no call may leak into the next."""

    @staticmethod
    def _run(calls, monkeypatch, capsys):
        results = []
        for argv, env in calls:
            with monkeypatch.context() as m:
                m.delenv("STATEDIV_TOL_TRACE", raising=False)
                for name, value in env.items():
                    m.setenv(name, value)
                try:
                    code = main([str(a) for a in argv])
                except SystemExit as exc:
                    code = exc.code
            results.append((code, capsys.readouterr().out))
        return results

    def test_call_order_does_not_matter(self, tmp_path, basis_states, monkeypatch, capsys):
        e1, e2 = basis_states
        off_trace = tmp_path / "off.json"
        matrix = np.diag([0.52, 0.52])
        off_trace.write_text(json.dumps({"dim": 2, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}))
        loose = {"STATEDIV_TOL_TRACE": "1e-1"}
        calls = [
            (["div", "bregman", "--f", "quadratic", e1, e2], {}),
            (["div", "bregman", "--f", "quadratic", e1, off_trace], {}),
            (["div", "bregman", "--f", "quadratic", e1, off_trace], loose),
            (["div", "bregman", "--f", "quadratic", "--tol-trace", "1e-9", e1, off_trace], loose),
            (["table", "--kind", "bregman", "--f", "xlogx", e1, e2, "--jobs", 2], {}),
            (["div", "jensen", "--f", "xlogx", "--eps-supp", "1e-6", e1, e2], {}),
            (["table", "--kind", "jensen", "--f", "power:q=3/2", e1, e2], {}),
            (["verify", "--kind", "jensen", "--f", "quadratic", "--oracle", "transpose", "--dim", 3], {}),
            (["suite", "convexity", "--dims", 2, "--seed", 3, "--f", "quadratic"], {}),
            (["suite", "nonsense"], {}),
        ]
        forward = self._run(calls, monkeypatch, capsys)
        backward = self._run(calls[::-1], monkeypatch, capsys)
        assert forward == backward[::-1]
        assert [code for code, _ in forward] == [0, 4, 0, 4, 2, 0, 0, 0, 0, 2]


class TestToleranceFlags:
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
    def test_every_tolerance_has_a_flag(self, field):
        args = _parser().parse_args(["suite", "all", f"--{field.replace('_', '-')}", "0.125"])
        assert getattr(_resolve_tols(args), field) == 0.125

    @pytest.mark.parametrize(
        "flags,env,named",
        [
            (["--tol-num", "inf"], {}, "tol_num"),
            (["--tol-herm=-1e-9"], {}, "tol_herm"),
            ([], {"STATEDIV_EPS_SUPP": "nan"}, "eps_supp"),
            ([], {"STATEDIV_TOL_NUM": "abc"}, "STATEDIV_TOL_NUM"),
        ],
    )
    def test_bad_tolerance_exits_6(self, flags, env, named, monkeypatch, capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["suite", "convexity", "--dims", "2", "--f", "quadratic", *flags]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1e-12])
    def test_tolerances_reject_non_finite_or_negative(self, value):
        with pytest.raises(ParameterError, match="eps_supp"):
            Tolerances(eps_supp=value)
        with pytest.raises(ParameterError, match="cluster_tol"):
            Tolerances().replace(cluster_tol=value)
        assert Tolerances(eps_supp=0.0).eps_supp == 0.0

    def test_env_override_is_honored(self, tmp_path, basis_states):
        import os

        e1, e2 = basis_states
        env = dict(os.environ, STATEDIV_TOL_TRACE="1e-1")
        off_trace = tmp_path / "off.json"
        matrix = np.diag([0.52, 0.52])
        off_trace.write_text(
            json.dumps(
                {"dim": 2, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}
            )
        )
        strict = cli("div", "bregman", "--f", "quadratic", e1, off_trace)
        assert strict.returncode == 4
        loose = subprocess.run(
            RUN + ["div", "bregman", "--f", "quadratic", str(e1), str(off_trace)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert loose.returncode == 0

    def test_flag_beats_env(self, tmp_path, basis_states):
        import os

        e1, _ = basis_states
        off_trace = tmp_path / "off.json"
        matrix = np.diag([0.52, 0.52])
        off_trace.write_text(
            json.dumps({"dim": 2, "re": matrix.real.tolist(), "im": matrix.imag.tolist()})
        )
        env = dict(os.environ, STATEDIV_TOL_TRACE="1e-1")
        result = subprocess.run(
            RUN
            + [
                "div",
                "bregman",
                "--f",
                "quadratic",
                "--tol-trace",
                "1e-9",
                str(e1),
                str(off_trace),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 4
