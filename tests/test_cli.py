import json
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from harmspec import spectrum
from harmspec.cli import build_parser, main
from harmspec.graphs import decode_graph6, encode_graph6
from harmspec.harmonic import harmonic_matrix

from conftest import random_graph

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload: dict, schema_name: str):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("harmspec").joinpath("schemas", f"{schema_name}.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)


class TestGen:
    def test_friendship(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "friendship", "--n", "3")
        assert code == 0
        g = decode_graph6(out.strip())
        assert g.n == 7

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "petersen", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "gen")
        assert decode_graph6(payload["graph6"]).n == 10


class TestMatrix:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "matrix", "--family", "path", "--n", "3")
        assert code == 0
        assert "2/3" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "matrix", "--family", "complete", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "matrix")
        assert payload["entries"][0][1] == {"num": 1, "den": 3}


class TestIndex:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "index", "--family", "path", "--n", "3")
        assert code == 0
        assert out.strip() == "4/3"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "index", "--family", "complete", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "index")
        assert payload["harmonic_index"] == {"num": 5, "den": 2}


class TestExactGoldens:
    @pytest.mark.parametrize("command, fmt, suffix", [
        ("gen", "text", "txt"), ("gen", "graph6", "txt"), ("gen", "json", "json"),
        ("matrix", "text", "txt"), ("matrix", "json", "json"),
        ("index", "text", "txt"), ("index", "json", "json"),
    ])
    def test_small_golden(self, capsys, command, fmt, suffix):
        # Orders 4, 5 and 6, one graph with an isolated vertex.
        code, out, err = run(
            capsys, command, "--from-file", str(DATA / "exact_small.g6"), "--format", fmt
        )
        assert (code, err) == (0, "")
        assert out == (DATA / f"{command}_small.{suffix}").read_text()


class TestCharpoly:
    def test_text_includes_factored(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--family", "complete", "--n", "3")
        assert code == 0
        assert "(λ - 1)(λ + 1/2)^2" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--family", "petersen", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "charpoly")
        assert payload["degree"] == 10

    @pytest.mark.parametrize("n,p", [(20, 0.15), (20, 0.5), (40, 0.15), (40, 0.5)])
    def test_random_graph_time_bound(self, capsys, tmp_path, n, p):
        # Measured under 1.5 s per graph at n = 40 (2-core VM, Python 3.11).
        src = tmp_path / "g.g6"
        src.write_text(encode_graph6(random_graph(random.Random(n), n, p)) + "\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "charpoly", "--from-file", str(src), "--format", "json")
        assert time.perf_counter() - start < 10.0
        assert code == 0
        payload = json.loads(out)
        validate(payload, "charpoly")
        assert payload["degree"] == n

    @pytest.mark.parametrize("p", [0.15, 0.5])
    def test_order60_time_bound(self, capsys, tmp_path, p):
        # Measured 0.5 s and 0.8 s (2-core VM, Python 3.11); with the O(n^4)
        # Faddeev-LeVerrier recursion for the exact characteristic
        # polynomial the same runs took 2.5 s and 8.6 s.
        src = tmp_path / "g.g6"
        src.write_text(encode_graph6(random_graph(random.Random(60), 60, p)) + "\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "charpoly", "--from-file", str(src), "--format", "json")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        payload = json.loads(out)
        validate(payload, "charpoly")
        assert payload["degree"] == 60

    @pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt")])
    def test_mixed_orders_golden(self, capsys, fmt, suffix):
        # Orders 0 to 40 interleaved, their polynomials taken as one batch.
        code, out, err = run(
            capsys, "charpoly", "--from-file", str(DATA / "energy_mixed.g6"), "--format", fmt
        )
        assert (code, err) == (0, "")
        assert out == (DATA / f"charpoly_mixed.{suffix}").read_text()

    def test_no_float_eigensolver(self, capsys, monkeypatch):
        # The factored display takes its rational roots from the exact
        # polynomial alone; energy shows that the spy sees solver calls.
        calls = []
        solve = spectrum.jacobi_eigenvalues_stack
        monkeypatch.setattr(spectrum, "jacobi_eigenvalues_stack",
                            lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
        code, out, err = run(capsys, "charpoly", "--from-file", str(DATA / "energy_mixed.g6"))
        assert (code, err, calls) == (0, "", [])
        assert out == (DATA / "charpoly_mixed.txt").read_text()
        assert run(capsys, "energy", "--from-file", str(DATA / "energy_mixed.g6"))[0] == 0
        assert calls


class TestEnergy:
    def test_petersen_text(self, capsys):
        code, out, _ = run(capsys, "energy", "--family", "petersen")
        assert code == 0
        assert "HE = 5.3333333" in out

    def test_decimals(self, capsys):
        code, out, _ = run(capsys, "energy", "--family", "petersen", "--decimals", "3")
        assert code == 0
        assert "HE = 5.333" in out

    @pytest.mark.parametrize("family,n", [("star", "6"), ("path", "5")])
    def test_zero_eigenvalues_print_unsigned(self, capsys, family, n):
        # Exact zeros come out of Jacobi as +-1e-17 noise; the text shows no sign.
        code, out, _ = run(capsys, "energy", "--family", family, "--n", n)
        assert code == 0
        tokens = out.split("spectrum: [")[1].split("]")[0].split(", ")
        assert "0.0000000" in tokens
        assert "-0.0000000" not in tokens

    @pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt")])
    def test_mixed_orders_golden(self, capsys, fmt, suffix):
        # Orders 0 to 40 interleaved, solved as one stack per order; the
        # expected outputs are those of the solver that took one graph at a time.
        code, out, err = run(
            capsys, "energy", "--from-file", str(DATA / "energy_mixed.g6"), "--format", fmt
        )
        assert (code, err) == (0, "")
        assert out == (DATA / f"energy_mixed.{suffix}").read_text()

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "energy", "--family", "star", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "energy")
        assert payload["method"] == "jacobi"

    def test_from_file_multiple(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("D?{\nC~\n")
        code, out, _ = run(capsys, "energy", "--from-file", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "energy")
        assert len(payload["results"]) == 2


class TestCensus:
    def test_from_file_mixed_orders(self, capsys, tmp_path):
        # K3 and K3 + K1 fall into one energy class.
        path = tmp_path / "mixed.g6"
        path.write_text("Bw\nCw\n")
        code, out, err = run(capsys, "census", "--from-file", str(path), "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        validate(payload, "census")
        assert [(c["members"], c["eigen_diffs"]) for c in payload["classes"]] == [([1, 2], [])]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "census", "--n", "6", "--degree", "3", "--format", "csv", "--quiet"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,graph6,connected,he,spectrum"
        assert len(lines) == 3

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "census", "--n", "6", "--degree", "3", "--format", "json", "--quiet"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "census")
        assert len(payload["records"]) == 2

    def test_quiet_suppresses_progress(self, capsys):
        _, _, err = run(capsys, "census", "--n", "4", "--degree", "3", "--quiet")
        assert err == ""
        _, _, err = run(capsys, "census", "--n", "4", "--degree", "3")
        assert "enumerating" in err

    def test_from_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "census", "--n", "6", "--degree", "3", "--format", "csv", "--quiet")
        lines = out.strip().splitlines()[1:]
        path = tmp_path / "c.g6"
        path.write_text("".join(line.split(",")[1] + "\n" for line in lines))
        code, out, _ = run(capsys, "census", "--from-file", str(path), "--format", "json", "--quiet")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "census")
        assert payload["n"] is None
        assert len(payload["records"]) == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "census.csv"
        code, out, _ = run(
            capsys, "census", "--n", "4", "--degree", "3", "--format", "csv",
            "--quiet", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("index,")

    def test_infeasible_is_error(self, capsys):
        code, _, err = run(capsys, "census", "--n", "5", "--degree", "3", "--quiet")
        assert code == 1
        assert "even" in err

    def test_full_cubic10_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "census", "--n", "10", "--degree", "3", "--format", "csv", "--quiet"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 22  # header plus 21 rows

    def test_21_other_graphs_get_no_reference_comparison(self, capsys, tmp_path):
        rng = random.Random(21)
        path = tmp_path / "random21.g6"
        path.write_text("".join(
            encode_graph6(random_graph(rng, 10 if k % 2 else 20, 0.3)) + "\n" for k in range(21)
        ))
        code, out, _ = run(capsys, "census", "--from-file", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["records"]) == 21
        assert payload["reference_comparison"] is None
        code, out, _ = run(capsys, "census", "--from-file", str(path))
        assert code == 0
        assert "reference" not in out

    def test_cubic10_from_file_keeps_reference_comparison(self, capsys, tmp_path):
        _, text, _ = run(capsys, "census", "--n", "10", "--degree", "3", "--quiet")
        _, js, _ = run(capsys, "census", "--n", "10", "--degree", "3", "--format", "json", "--quiet")
        assert "reference comparison: 21/21 matched" in text
        path = tmp_path / "cubic10.g6"
        path.write_text("".join(r["graph6"] + "\n" for r in json.loads(js)["records"]))
        assert run(capsys, "census", "--from-file", str(path)) == (0, text, "")
        code, out, _ = run(capsys, "census", "--from-file", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["reference_comparison"] == json.loads(js)["reference_comparison"]

    def test_energy_and_census_build_no_exact_matrix(self, capsys, monkeypatch, tmp_path):
        # The spectra come from the float matrix; Fractions are for exact outputs.
        def forbidden(g):
            raise AssertionError("harmonic_matrix called")

        for module in list(sys.modules.values()):
            if getattr(module, "harmonic_matrix", None) is harmonic_matrix:
                monkeypatch.setattr(module, "harmonic_matrix", forbidden)
        with pytest.raises(AssertionError):
            run(capsys, "charpoly", "--family", "petersen")
        assert run(capsys, "energy", "--from-file", str(DATA / "energy_mixed.g6"))[0] == 0
        assert run(capsys, "census", "--n", "8", "--degree", "3", "--quiet")[0] == 0
        path = tmp_path / "mixed.g6"
        path.write_text("Bw\nCw\n")
        assert run(capsys, "census", "--from-file", str(path))[0] == 0


class TestBlasKernels:
    # OpenBLAS kernels, by OPENBLAS_CORETYPE name, and the CPU feature each
    # needs: those of AVX2-only and AVX-only CPUs among them.
    KERNELS = (("Prescott", "SSE3"), ("Sandybridge", "AVX"), ("Haswell", "AVX2"),
               ("SkylakeX", "AVX512_SKX"))
    COMMANDS = (
        ("energy", "--from-file", str(DATA / "energy_mixed.g6"), "--format", "json"),
        ("charpoly", "--from-file", str(DATA / "energy_mixed.g6"), "--format", "json"),
        ("census", "--from-file", str(DATA / "census_12_3.g6"), "--format", "json", "--quiet"),
    )

    def test_same_bytes_under_every_kernel(self):
        # No printed float may depend on the summation order of the BLAS
        # kernel that OpenBLAS picks for the CPU: each forced kernel this
        # CPU can run must print what the default one prints.
        import numpy as np
        from numpy._core._multiarray_umath import __cpu_features__

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas:
            pytest.skip(f"numpy is backed by {blas}, not OpenBLAS: no kernel to force")
        kernels = [name for name, feature in self.KERNELS if __cpu_features__.get(feature)]
        if not kernels:
            pytest.skip("this CPU runs none of the forced OpenBLAS kernels")
        script = ("from harmspec.cli import main\n"
                  f"for argv in {self.COMMANDS!r}:\n    main(list(argv))\n")
        outputs = {}
        for kernel in [None, *kernels]:
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = str(DATA.parents[1] / "src")
            if kernel:
                env["OPENBLAS_CORETYPE"] = kernel
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, (kernel, result.stderr)
            outputs[kernel] = result.stdout
        assert outputs[None].count('"off_norm"') == 21
        assert all(out == outputs[None] for out in outputs.values())


class TestAudit:
    def test_restricted_run_json(self, capsys, tmp_path):
        baseline = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "audit", "--claim", "thm-complete-energy",
            "--write-baseline", str(baseline), "--quiet",
        )
        assert code == 0
        code, out, _ = run(
            capsys, "audit", "--claim", "thm-complete-energy",
            "--baseline", str(baseline), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "audit")
        assert payload["drift"] == []

    def test_drift_exit_code(self, capsys, tmp_path):
        baseline = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "audit", "--claim", "thm-complete-energy",
            "--write-baseline", str(baseline), "--quiet",
        )
        data = json.loads(baseline.read_text())
        first = sorted(data["verdicts"])[0]
        data["verdicts"][first] = "MISMATCH"
        baseline.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, "audit", "--claim", "thm-complete-energy", "--baseline", str(baseline)
        )
        assert code == 2
        assert "DRIFT" in out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_repeated_claim_runs_once(self, capsys, fmt):
        once = run(capsys, "audit", "--claim", "thm-petersen-energy", "--format", fmt)
        twice = run(
            capsys, "audit", "--claim", "thm-petersen-energy",
            "--claim", "thm-petersen-energy", "--format", fmt,
        )
        assert once[0] == 0
        assert twice == once
        assert once[1].count("thm-petersen-energy") == 1

    @pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt"), ("csv", "csv")])
    def test_full_audit_golden(self, capsys, fmt, suffix):
        # Committed from the audit that solved one graph at a time.
        code, out, err = run(capsys, "audit", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (DATA / f"audit.{suffix}").read_text()

    def test_csv(self, capsys, tmp_path):
        baseline = tmp_path / "b.json"
        run(capsys, "audit", "--claim", "thm-cycle-charpoly",
            "--write-baseline", str(baseline), "--quiet")
        code, out, _ = run(
            capsys, "audit", "--claim", "thm-cycle-charpoly",
            "--baseline", str(baseline), "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "claim,params,verdict,evidence"


class TestErrors:
    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "moebius")
        assert code == 1

    def test_out_of_range_parameter(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "cycle", "--n", "2")
        assert code == 1
        assert "cycle" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("gen", "--family", "cycle", "--n", "5", "--m", "3"), "cycle: does not take parameter m"),
            (("gen", "--family", "petersen", "--n", "7"), "petersen: does not take parameter n"),
            (("energy", "--family", "star", "--n", "5", "--m", "2"), "star: does not take parameter m"),
            (("charpoly", "--family", "petersen", "--m", "3"), "petersen: does not take parameter m"),
        ],
    )
    def test_unused_family_parameter(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert message in err

    def test_missing_family(self, capsys):
        code, _, err = run(capsys, "matrix")
        assert code == 1
        assert "--family" in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (("energy", "--family", "cycle", "--n", "5"), "--family, --n"),
            (("gen", "--family", "petersen"), "--family"),
            (("matrix", "--m", "3"), "--m"),
            (("charpoly", "--n", "0"), "--n"),
            (("census", "--n", "4", "--degree", "3"), "--n, --degree"),
            (("census", "--degree", "3", "--quiet"), "--degree"),
        ],
    )
    def test_from_file_with_other_inputs(self, capsys, argv, flags):
        # The file would be read and the other inputs dropped without a word.
        code, out, err = run(capsys, *argv, "--from-file", str(DATA / "exact_small.g6"))
        assert (code, out) == (1, "")
        assert err == f"harmspec: error: --from-file cannot be combined with {flags}\n"

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "energy", "--from-file", "/does/not/exist.g6")
        assert code == 1
        assert "cannot read" in err

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "petersen", "--bogus")
        assert code == 1

    @pytest.mark.parametrize(
        "flag, commands",
        [
            (("--tol", "1e-10"), {"energy"}),
            (("--decimals", "3"), {"energy", "census"}),
            (("--quiet",), {"census", "audit"}),
        ],
    )
    def test_flag_belongs_to_its_subcommands(self, capsys, flag, commands):
        # These flags are not shared: every other subcommand rejects them.
        takes = set()
        for command in ("gen", "matrix", "index", "charpoly", "energy", "census", "audit"):
            try:
                build_parser().parse_args([command, *flag])
            except SystemExit as exc:
                assert exc.code == 1
                assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
            else:
                takes.add(command)
        assert takes == commands

    @pytest.mark.parametrize(
        "argv",
        [
            ("energy", "--family", "petersen", "--decimals", "-1"),
            ("census", "--n", "4", "--degree", "3", "--quiet", "--decimals", "-2"),
        ],
        ids=["energy", "census"],
    )
    def test_negative_decimals(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"harmspec {argv[0]}: error: argument --decimals: "
            f"must be a non-negative integer, got {argv[-1]}\n"
        )

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance(self, capsys, tol):
        code, out, err = run(capsys, "energy", "--family", "petersen", "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("harmspec: error: tolerance must be finite and positive")

    @pytest.mark.parametrize("command", ["energy", "census"])
    def test_jacobi_non_convergence(self, capsys, monkeypatch, tmp_path, command):
        def stuck(*args, **kwargs):
            raise spectrum.JacobiConvergenceError(0.5, spectrum.MAX_SWEEPS)

        # Every solve, a stack of one included, goes through the stacked solver.
        monkeypatch.setattr(spectrum, "jacobi_eigenvalues_stack", stuck)
        source = tmp_path / "petersen.g6"
        source.write_text("IheA@GUAo\n")
        argv = ("--from-file", str(source)) if command == "census" else ("--family", "petersen")
        code, _, err = run(capsys, command, *argv)
        assert code == 1
        assert err == (
            "harmspec: error: Jacobi sweep did not converge after 100 sweeps "
            "(off-diagonal residual 5.000e-01); the input looks pathological\n"
        )
