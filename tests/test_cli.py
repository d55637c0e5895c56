"""End-to-end command line checks, run in process against main()."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls, hyperbolic
import pseudounitary
from pseudounitary import (
    LieElement,
    canonical,
    cli,
    dumps_matrix,
    exp_us,
    extract_generators,
    loads_matrix,
    make_metric,
    sample_upq,
    sample_us_lie,
)
from pseudounitary.cli import main
from pseudounitary.matrixfile import KIND_BLOCK, KIND_SQUARE

LN2 = np.log(2.0)
LN3 = np.log(3.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_square(path, m, metric):
    path.write_text(dumps_matrix(m, metric, KIND_SQUARE))
    return str(path)


class TestFileFormat:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        text = dumps_matrix(m, make_metric(1, 2), KIND_SQUARE)
        doc = loads_matrix(text)
        assert np.array_equal(doc.matrix, m)
        assert dumps_matrix(doc.matrix, doc.metric, doc.kind) == text

    def test_unknown_keys_survive_loading(self):
        text = dumps_matrix(np.eye(2), make_metric(1, 1), KIND_SQUARE,
                            extra={"note": "kept"})
        assert np.array_equal(loads_matrix(text).matrix, np.eye(2))
        assert json.loads(text)["note"] == "kept"


class TestCheck:
    def test_member_passes(self, tmp_path, capsys):
        path = write_square(tmp_path / "m.json", hyperbolic(LN2), make_metric(1, 1))
        code, out, err = run_cli(capsys, "check", path)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "check"
        assert report["result"]["is_member"] is True
        assert report["result"]["is_hermitian"] is True
        assert report["result"]["membership_residual"] <= 1e-12
        assert err == ""

    def test_non_member_exits_one(self, tmp_path, capsys):
        path = write_square(tmp_path / "m.json", 2.0 * np.eye(2), make_metric(1, 1))
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 1
        assert json.loads(out)["result"]["is_member"] is False

    def test_stdin_input(self, capsys, monkeypatch):
        text = dumps_matrix(np.eye(2), make_metric(1, 1), KIND_SQUARE)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(capsys, "check", "-")
        assert code == 0
        assert json.loads(out)["input"]["path"] == "<stdin>"

    def test_tol_flag_loosens_the_check(self, tmp_path, capsys):
        m = hyperbolic(LN2) + 1e-6
        path = write_square(tmp_path / "m.json", m, make_metric(1, 1))
        assert run_cli(capsys, "check", path)[0] == 1
        assert run_cli(capsys, "check", path, "--tol", "1e-3")[0] == 0

    def test_a_non_finite_report_value_exits_two(self, tmp_path, capsys, monkeypatch):
        # a report is strict JSON: a NaN is refused rather than printed as NaN
        path = write_square(tmp_path / "m.json", np.eye(2), make_metric(1, 1))
        monkeypatch.setattr(cli, "membership_residual", lambda M, metric: float("nan"))
        code, out, err = run_cli(capsys, "check", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")

    @pytest.mark.parametrize("raw", ["-1", "nan"])
    def test_tol_flag_must_be_finite_nonnegative(self, tmp_path, capsys, raw):
        path = write_square(tmp_path / "m.json", np.eye(2), make_metric(1, 1))
        code, out, err = run_cli(capsys, "check", path, "--tol", raw)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--tol" in err


class TestInvert:
    def test_product_is_identity(self, tmp_path, capsys):
        metric = make_metric(2, 1)
        M = sample_upq(metric, seed=6)
        path = write_square(tmp_path / "m.json", M, metric)
        code, out, _ = run_cli(capsys, "invert", path)
        assert code == 0
        doc = loads_matrix(out)
        assert doc.kind == KIND_SQUARE
        assert doc.metric == metric
        assert np.linalg.norm(doc.matrix @ M - np.eye(3)) <= 1e-9

    def test_non_member_rejected(self, tmp_path, capsys):
        path = write_square(tmp_path / "m.json", 3.0 * np.eye(2), make_metric(1, 1))
        code, _, err = run_cli(capsys, "invert", path)
        assert code == 1
        assert "error" in err


class TestGenerators:
    def test_rank_one_example(self, tmp_path, capsys):
        # (5/3, 4/3; 4/3, 5/3): one generator, lambda 10/3, weights 0.8 / 0.2
        M = np.array([[5 / 3, 4 / 3], [4 / 3, 5 / 3]], dtype=complex)
        path = write_square(tmp_path / "m.json", M, make_metric(1, 1))
        code, out, _ = run_cli(capsys, "generators", path)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["sigma"] == 1
        assert result["count"] == 1
        g = result["generators"][0]
        assert g["lambda"] == pytest.approx(10 / 3, abs=1e-12)
        assert g["alpha"] == pytest.approx(np.sqrt(0.8), abs=1e-12)
        assert g["beta"] == pytest.approx(np.sqrt(0.2), abs=1e-12)

    def test_metric_itself_has_none(self, tmp_path, capsys):
        metric = make_metric(1, 2)
        path = write_square(tmp_path / "m.json", -metric.matrix, metric)
        code, out, _ = run_cli(capsys, "generators", path)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["count"] == 0
        assert result["sigma"] == 1


    @pytest.mark.parametrize("source", [("uspp", p, p, seed) for p in (1, 2, 3, 6, 11, 16)
                                        for seed in (1, 2)]
                             + [("exp", 3, 5, 7), ("exp", 5, 3, 7)], ids=str)
    def test_report_is_bitwise_the_extracted_arrays(self, tmp_path, capsys, source):
        family, p, q, seed = source
        metric = make_metric(p, q)
        if family == "uspp":
            code, text, _ = run_cli(capsys, "sample", "--family", "uspp", "--p", str(p),
                                    "--q", str(q), "--seed", str(seed))
            assert code == 0
            path = tmp_path / "m.json"
            path.write_text(text)
            path = str(path)
        else:
            path = write_square(tmp_path / "m.json", exp_us(sample_us_lie(metric, seed)), metric)
        code, out, _ = run_cli(capsys, "generators", path)
        assert code == 0
        gens = extract_generators(loads_matrix(Path(path).read_text()).matrix, metric)
        result = json.loads(out)["result"]
        assert (result["sigma"], result["count"]) == (gens.sigma, gens.k) and gens.k
        for field, values in (("lambda", gens.lambdas), ("alpha", gens.alphas),
                              ("beta", gens.betas)):
            assert np.array([g[field] for g in result["generators"]]).tobytes() == values.tobytes()
        vectors = np.array([g["vector"] for g in result["generators"]]).view(complex)
        assert vectors.reshape(gens.k, metric.n).tobytes() == gens.vectors.tobytes()

    def test_sample_past_t_19_reassembles(self, capsys, monkeypatch):
        # a uspp sample with t up to 25: the generators come off the frame, so
        # the rounding of size eps cosh t of an n x n route does not refuse it
        argv = ("sample", "--family", "uspp", "--p", "2", "--q", "2", "--seed", "3", "--tmax", "25")
        code, sample, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(sample))
        code, out, err = run_cli(capsys, "generators", "-")
        assert code == 0, err
        result = json.loads(out)["result"]
        M = loads_matrix(sample).matrix
        rebuilt = -result["sigma"] * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        for g in result["generators"]:
            z = np.array(g["vector"]).view(complex).reshape(-1)
            rebuilt += result["sigma"] * g["lambda"] * np.outer(z, z.conj())
        assert np.linalg.norm(rebuilt - M) <= 1e-9 * max(1.0, np.linalg.norm(M))


class TestDecomposeAndInvariants:
    def test_reports_agree_with_embedded_truth(self, tmp_path, capsys):
        code, sample_out, _ = run_cli(
            capsys, "sample", "--family", "uspp", "--p", "3", "--q", "3",
            "--seed", "14")
        assert code == 0
        path = tmp_path / "s.json"
        path.write_text(sample_out)
        truth = json.loads(sample_out)["ground_truth"]

        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        result = json.loads(out)["result"]
        assert len(result["blocks"]) == 3
        assert result["reconstruction_residual"] <= 1e-9

        code, out, _ = run_cli(capsys, "invariants", str(path))
        assert code == 0
        got = json.loads(out)["result"]["invariant"]
        want = truth["invariant"]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a["kind"] == b["kind"]
            assert a["sign"] == b["sign"]
            assert a["t"] == pytest.approx(b["t"], abs=1e-8)

    @pytest.mark.parametrize("t", [400.0, 600.0, 709.0])
    def test_top_of_the_range_reports_valid_json_without_warnings(self, tmp_path, capsys, t):
        # the residual is the one block_decompose measured with scaling; an
        # unscaled reassembly would overflow to Infinity, which is not JSON
        m = make_metric(1, 1)
        M = exp_us(LieElement(m, np.array([[t * np.exp(0.7j)]])))
        path = write_square(tmp_path / "m.json", M, m)

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "decompose", path)
        assert code == 0, err
        result = json.loads(out, parse_constant=refuse)["result"]
        (piece,) = result["blocks"]
        assert (piece["kind"], piece["sign"]) == ("hyperbolic", 1)
        assert abs(piece["t"] - t) <= 1e-8 * t / 20.0
        assert 0.0 <= result["reconstruction_residual"] <= 1e-9 * np.cosh(t)

    def test_rectangular_signature_exits_two(self, tmp_path, capsys):
        path = write_square(tmp_path / "m.json", np.eye(3), make_metric(1, 2))
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == 2
        assert "error" in err


class TestEquiv:
    def test_conjugated_pair(self, tmp_path, capsys):
        metric = make_metric(1, 1)
        M = hyperbolic(LN2)
        theta = 0.7
        Q = np.diag([np.exp(1j * theta), np.exp(-0.3j)])
        a = write_square(tmp_path / "a.json", M, metric)
        b = write_square(tmp_path / "b.json", Q.conj().T @ M @ Q, metric)
        code, out, _ = run_cli(capsys, "equiv", a, b)
        assert code == 0
        assert json.loads(out)["result"]["equivalent"] is True

    def test_distinct_parameters(self, tmp_path, capsys):
        metric = make_metric(1, 1)
        a = write_square(tmp_path / "a.json", hyperbolic(LN2), metric)
        b = write_square(tmp_path / "b.json", hyperbolic(LN3), metric)
        code, out, _ = run_cli(capsys, "equiv", a, b)
        assert code == 1
        assert json.loads(out)["result"]["equivalent"] is False

    def test_one_stacked_pass_for_both_files(self, tmp_path, capsys, monkeypatch):
        metric = make_metric(1, 1)
        a = write_square(tmp_path / "a.json", hyperbolic(LN2), metric)
        b = write_square(tmp_path / "b.json", -hyperbolic(LN2), metric)
        passes = count_calls(monkeypatch, "_invariants", canonical, cli)
        code, out, _ = run_cli(capsys, "equiv", a, b)
        assert code == 0 and len(passes) == 1 and len(passes[0]) == 2
        result = json.loads(out)["result"]
        assert result["invariant_1"] == result["invariant_2"] == [
            {"kind": "hyperbolic", "t": pytest.approx(LN2, abs=1e-14), "sign": 1}]

    def test_first_refused_file_gives_the_message(self, tmp_path, capsys):
        metric = make_metric(1, 1)
        a = write_square(tmp_path / "a.json", hyperbolic(LN2), metric)
        b = write_square(tmp_path / "b.json", 2.0 * np.eye(2), metric)
        code, _, err = run_cli(capsys, "equiv", b, a)
        assert code == 1 and "membership residual" in err
        code, _, err2 = run_cli(capsys, "equiv", a, b)
        assert code == 1 and err2 == err

    def test_signature_mismatch_is_usage_error(self, tmp_path, capsys):
        a = write_square(tmp_path / "a.json", np.eye(2), make_metric(1, 1))
        b = write_square(tmp_path / "b.json", np.eye(4), make_metric(2, 2))
        code, _, err = run_cli(capsys, "equiv", a, b)
        assert code == 2
        assert "signature mismatch" in err


class TestExpLog:
    def test_round_trip_through_files(self, tmp_path, capsys, monkeypatch):
        metric = make_metric(1, 2)
        block = np.array([[0.4 - 0.2j, 1.1j]])
        path = tmp_path / "t.json"
        path.write_text(dumps_matrix(block, metric, KIND_BLOCK))

        code, exp_out, _ = run_cli(capsys, "exp", str(path))
        assert code == 0
        doc = loads_matrix(exp_out)
        assert doc.kind == KIND_SQUARE

        monkeypatch.setattr("sys.stdin", io.StringIO(exp_out))
        code, log_out, _ = run_cli(capsys, "log", "-")
        assert code == 0
        back = loads_matrix(log_out)
        assert back.kind == KIND_BLOCK
        assert back.matrix.shape == (1, 2)
        assert np.linalg.norm(back.matrix - block) <= 1e-10

    def test_log_outside_image_exits_one(self, tmp_path, capsys):
        metric = make_metric(1, 1)
        path = write_square(tmp_path / "j.json", metric.matrix, metric)
        code, _, err = run_cli(capsys, "log", str(path))
        assert code == 1
        assert "not positive definite" in err

    def test_sampled_tangent_at_64_round_trips(self, capsys, monkeypatch):
        # n = 128 with t_max 15.7: the smallest eigenvalue of the exponential is
        # about 1.6e-7 against a largest of about 6e6
        argv = ("sample", "--family", "lie", "--p", "64", "--q", "64", "--seed", "3")
        code, block_out, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(block_out))
        code, exp_out, _ = run_cli(capsys, "exp", "-")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(exp_out))
        code, log_out, err = run_cli(capsys, "log", "-")
        assert code == 0, err
        block = loads_matrix(block_out).matrix
        back = loads_matrix(log_out).matrix
        assert np.linalg.norm(back - block) <= 1e-10 * np.linalg.norm(block)

    def test_exp_past_the_overflow_bound_exits_two(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(dumps_matrix(np.array([[800.0]]), make_metric(1, 1), KIND_BLOCK))
        code, out, err = run_cli(capsys, "exp", str(path))
        assert code == 2
        assert out == ""
        # the range rule every analysis route shares
        assert "hyperbolic parameter t = 800.0 is past the limit" in err

    def test_exp_requires_block_kind(self, tmp_path, capsys):
        path = write_square(tmp_path / "m.json", np.eye(2), make_metric(1, 1))
        code, _, err = run_cli(capsys, "exp", str(path))
        assert code == 2
        assert "block" in err


class TestSample:
    def test_deterministic_output(self, capsys):
        argv = ("sample", "--family", "upq", "--p", "2", "--q", "2", "--seed", "5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_families_produce_expected_kinds(self, capsys):
        for family, kind, shape in (
            ("uspp", KIND_SQUARE, (4, 4)),
            ("lie", KIND_BLOCK, (2, 2)),
            ("upq", KIND_SQUARE, (4, 4)),
            ("haar", KIND_SQUARE, (4, 4)),
        ):
            code, out, _ = run_cli(
                capsys, "sample", "--family", family, "--p", "2", "--q", "2",
                "--seed", "1")
            assert code == 0
            doc = loads_matrix(out)
            assert doc.kind == kind
            assert doc.matrix.shape == shape

    def test_invalid_signature_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--family", "uspp", "--p", "1", "--q", "2",
            "--seed", "0")
        assert code == 2
        assert "error" in err

    def test_parameters_past_the_float_range_exit_two_without_warnings(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "sample", "--family", "uspp", "--p", "1", "--q", "1",
                "--seed", "1", "--tmax", "1e300")
        assert code == 2
        assert out == ""
        assert err.startswith("error: hyperbolic parameter t = ") and err.count("\n") == 1
        assert caught == []


class TestDim:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--p", "2", "--q", "3")
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == 6

    @pytest.mark.parametrize("p,q,d", [(1, 1, 1), (1, 2, 2), (2, 3, 6), (3, 0, 0)])
    def test_counts(self, capsys, p, q, d):
        code, out, _ = run_cli(capsys, "dim", "--p", str(p), "--q", str(q))
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == d


class TestModuleForm:
    def test_python_dash_m_runs_main(self, capsys):
        src = str(Path(pseudounitary.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            x for x in (src, os.environ.get("PYTHONPATH")) if x))
        argv = ["dim", "--p", "2", "--q", "3"]
        proc = subprocess.run([sys.executable, "-m", "pseudounitary.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        code, out, _ = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
        assert code == 0 and json.loads(out)["result"]["dimension"] == 6

    @pytest.mark.parametrize("argv, code", [
        (["dim", "--p", "2", "--q", "3"], 0),
        (["invert", "-"], 1),
        (["check", "/nonexistent/never.json"], 2),
    ])
    def test_run_exits_with_the_code_main_returns(self, monkeypatch, argv, code):
        # run() is the installed upq script: it reads sys.argv and exits with main's code
        monkeypatch.setattr(sys, "argv", ["upq", *argv])
        monkeypatch.setattr(sys, "stdin", io.StringIO(dumps_matrix(2 * np.eye(2), make_metric(1, 1))))
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == code


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/never.json")
        assert code == 2
        assert "error" in err

    def test_corrupt_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert "error" in err

    def test_wrong_format_version(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "upq-matrix/9", "kind": "square",
                                    "p": 1, "q": 1, "entries": []}))
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2

    def test_boolean_signature(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"format": "upq-matrix/1", "kind": "square",
                                    "p": True, "q": True,
                                    "entries": [[1.0, 0.0], [0.0, 0.0],
                                                [0.0, 0.0], [-1.0, 0.0]]}))
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_float_signature(self, tmp_path, capsys):
        # a float is not truncated to a dimension
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"format": "upq-matrix/1", "kind": "square",
                                    "p": 1.5, "q": 1,
                                    "entries": [[1.0, 0.0], [0.0, 0.0],
                                                [0.0, 0.0], [-1.0, 0.0]]}))
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_deeply_nested_file(self, tmp_path, capsys):
        # json.loads raises RecursionError here, which is not a non-member's exit 1
        path = tmp_path / "deep.json"
        path.write_text('{"format": "upq-matrix/1", "note": ' + "[" * 100000 + "]" * 100000 + "}")
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: matrix file nests too deeply to parse\n"

    @pytest.mark.parametrize("entry", ['"1"', "true", "null", "1" + "0" * 400],
                             ids=["string", "boolean", "null", "huge_integer"])
    def test_non_numeric_entries(self, tmp_path, capsys, entry):
        # numpy alone would read "1" and true as numbers and call this a member
        path = tmp_path / "entries.json"
        path.write_text('{"format": "upq-matrix/1", "kind": "square", "p": 1, "q": 1, '
                        f'"entries": [[{entry}, 0], [0, 0], [0, 0], [-1, 0]]}}')
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: entries must be numeric [re, im] pairs")


    @pytest.mark.parametrize("tmax", ["inf", "nan"])
    def test_non_finite_tmax(self, capsys, tmax):
        code, out, err = run_cli(capsys, "sample", "--family", "uspp", "--p", "1",
                                 "--q", "1", "--seed", "0", "--tmax", tmax)
        assert code == 2
        assert out == ""
        assert err == f"error: t_max must be a finite nonnegative number, got {tmax}\n"


class TestPipelineInvariant:
    def test_sampled_invariants_match_truth_over_seed_range(self, tmp_path, capsys):
        # the full sample -> file -> invariants chain must reproduce the
        # embedded ground truth for every seed in a contiguous range
        for seed in range(100):
            code, sample_out, _ = run_cli(
                capsys, "sample", "--family", "uspp", "--p", "2", "--q", "2",
                "--seed", str(seed))
            assert code == 0
            path = tmp_path / "chain.json"
            path.write_text(sample_out)
            truth = json.loads(sample_out)["ground_truth"]["invariant"]

            code, out, _ = run_cli(capsys, "invariants", str(path))
            assert code == 0, f"seed {seed}"
            got = json.loads(out)["result"]["invariant"]
            assert len(got) == len(truth), f"seed {seed}"
            for a, b in zip(got, truth):
                assert a["kind"] == b["kind"], f"seed {seed}"
                assert a["sign"] == b["sign"], f"seed {seed}"
                assert a["t"] == pytest.approx(b["t"], abs=1e-8), f"seed {seed}"
