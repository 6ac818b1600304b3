import os
import re
import subprocess
import sys

import numpy as np
import pytest

import consensuslab
import scalar_reference as ref
from conftest import bipartite_with_loops, bridged_cliques, relabelled_rings
from consensuslab import (
    eigendecompose_symmetric,
    make_ring,
    random_symmetric_stochastic,
    read_matrix,
    validate,
    write_matrix,
)
from consensuslab.cli import build_parser, main


def porcelain(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.strip().splitlines())


def read_envelope(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    ks = np.array([int(r[0]) for r in rows])
    lo = np.array([float(r[1]) for r in rows])
    hi = np.array([float(r[2]) for r in rows])
    return ks, hi - lo


class TestValidateCommand:
    def test_pure_ring(self, capsys):
        assert main(["validate", "--ring", "4"]) == 0
        out = capsys.readouterr().out
        assert "symmetric:   True" in out
        assert "irreducible: True" in out
        assert "primitive:   False" in out

    def test_ring_with_loops_porcelain(self, capsys):
        assert main(["validate", "--ring", "4", "--self-loop", "0.1", "--porcelain"]) == 0
        kv = porcelain(capsys.readouterr().out)
        assert kv["primitive"] == "true"
        assert kv["witness_k"] == "2"

    def test_bad_matrix_file_fails_validation(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("2\n0.5 0.6\n0.5 0.5\n")
        assert main(["validate", "--input", str(p)]) == 1

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("2\n0.5\n")
        assert main(["validate", "--input", str(p)]) == 2

    def test_nan_weight_fails_validation(self, tmp_path, capsys):
        p = tmp_path / "nan.txt"
        p.write_text("2\n0.5 nan\n0.5 0.5\n")
        assert main(["validate", "--input", str(p)]) == 1
        assert "(0, 1)" in capsys.readouterr().err

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "absent.txt"
        assert main(["validate", "--input", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot read {p}: No such file or directory\n"

    def test_directory_input_is_usage_error(self, tmp_path, capsys):
        assert main(["validate", "--input", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_binary_input_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "m.bin"
        p.write_bytes(b"2\n0.5 0.5\n\x00\xff\xfe\x80\n")
        assert main(["validate", "--input", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: line 3: byte 11 is not UTF-8 text\n"

    def test_a_long_first_line_is_cut_short(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text(" ".join(["0.1"] * 10**6) + "\n")
        assert main(["validate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: expected the matrix size, got '0.1 0.1")
        assert len(err.encode()) <= 200

    def test_a_long_path_is_cut_short(self, tmp_path, capsys):
        path = str(tmp_path / ("x" * 100_000))
        assert main(["validate", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path[:98]}...xxx")
        assert len(err.encode()) <= 300

    def test_input_and_ring_are_exclusive(self, tmp_path):
        p = tmp_path / "m.txt"
        write_matrix(make_ring(4, 0.0), p)
        with pytest.raises(SystemExit) as ei:
            main(["validate", "--input", str(p), "--ring", "4"])
        assert ei.value.code == 2

    def test_bad_self_loop_is_usage_error(self, capsys):
        assert main(["validate", "--ring", "4", "--self-loop", "1.5"]) == 2


class TestSpectrumCommand:
    def test_pure_ring_csv(self, capsys):
        assert main(["spectrum", "--ring", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.allclose(vals, [1.0, 0.0, 0.0, -1.0], atol=1e-10)

    def test_asymmetric_input_fails(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        p.write_text("2\n0.2 0.8\n0.5 0.5\n")
        assert main(["spectrum", "--input", str(p)]) == 1

    def test_stdout_matches_row_loop(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_matrix(random_symmetric_stochastic(17, 4), p)
        assert main(["spectrum", "--input", str(p)]) == 0
        spec = eigendecompose_symmetric(read_matrix(p))
        rows = [f"{i},{v:.17g}\n" for i, v in enumerate(spec.eigenvalues, start=1)]
        assert capsys.readouterr().out == "index,eigenvalue\n" + "".join(rows)


class TestAnalyzeCommand:
    def test_ring_with_loops_porcelain(self, capsys):
        assert main(
            ["analyze", "--ring", "4", "--self-loop", "0.1", "--porcelain"]
        ) == 0
        kv = porcelain(capsys.readouterr().out)
        assert float(kv["rho_ess"]) == pytest.approx(0.8, abs=1e-10)
        assert float(kv["gamma_star"]) == pytest.approx(0.8541019662, abs=1e-9)
        assert float(kv["mla_rate"]) == pytest.approx(0.3416407865, abs=1e-9)
        assert float(kv["beta_star"]) == pytest.approx(1.25, abs=1e-6)
        assert float(kv["accelerated_rate"]) == pytest.approx(0.5, abs=1e-12)
        assert float(kv["degroot_rate"]) == pytest.approx(0.8, abs=1e-10)
        assert kv["mla_hypotheses_met"] == "true"
        assert kv["rate_chain_ok"] == "true"

    def test_gamma_boundary_verdict(self, capsys):
        assert main(["analyze", "--ring", "4", "--gamma", "1.0", "--porcelain"]) == 0
        kv = porcelain(capsys.readouterr().out)
        assert kv["gamma_converges"] == "false"
        assert kv["gamma_in_range"] == "true"
        assert abs(float(kv["criterion_ii_value"])) <= 1e-12

    def test_gamma_half_is_convergent(self, capsys):
        assert main(["analyze", "--ring", "4", "--gamma", "0.5", "--porcelain"]) == 0
        kv = porcelain(capsys.readouterr().out)
        assert kv["gamma_converges"] == "true"
        assert float(kv["mla_rate_at_gamma"]) == pytest.approx(
            np.sqrt(0.5), abs=1e-10
        )
        # pure ring has rho_ess = 1: no optimal parameters exist
        assert kv["gamma_star"] == "nan"

    def test_human_output_mentions_rates(self, capsys):
        assert main(["analyze", "--ring", "4", "--self-loop", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "rho_ess(A):" in out
        assert "gamma*" in out and "beta*" in out

    def test_beta_star_without_gamma_star(self, capsys):
        # the lazy ring's spectrum lies in [0, 1]: gamma* needs lambda_n < 0,
        # beta* only 0 < rho_ess < 1
        argv = ["analyze", "--ring", "64", "--self-loop", "0.5"]
        assert main([*argv, "--porcelain"]) == 0
        kv = porcelain(capsys.readouterr().out)
        assert kv["beta_star"] == "1.87029435667541"
        assert kv["accelerated_rate"] == "0.93289568370499498"
        for key in ("gamma_star", "mla_rate", "mla_hypotheses_met"):
            assert kv[key] == "nan"
        assert kv["rate_chain_ok"] == "false"
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3:] == [
            "gamma* unavailable: needs a negative smallest eigenvalue",
            "beta*  = 1.87029435668   accelerated rate 0.932895683705",
        ]

    def test_pure_even_ring_prints_no_optima(self, capsys):
        assert main(["analyze", "--ring", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3:] == [
            "optimal parameters unavailable: essential radius 1.0 "
            "is not inside (2.84e-14, 1)"
        ]

    def test_complete_graph_says_why_there_are_no_optima(self, capsys):
        # K_3: the radius is rounding noise below 16 n eps, not a radius in (0, 1)
        assert main(["analyze", "--ring", "3", "--self-loop", "0.3333333333333333"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == [
            "rho_ess(A):  3.44432470187e-16   (DeGroot rate)",
            "optimal parameters unavailable: essential radius "
            "3.4443247018676697e-16 is not inside (1.07e-14, 1)",
        ]

    def test_complete_graph_prints_no_optima(self, tmp_path, capsys):
        # rho_ess is rounding noise, below the certificate bound
        path = tmp_path / "k4.txt"
        write_matrix(validate(np.full((4, 4), 0.25)), path)
        assert main(["analyze", "--input", str(path), "--porcelain"]) == 0
        kv = porcelain(capsys.readouterr().out)
        for key in ("gamma_star", "mla_rate", "mla_hypotheses_met", "beta_star"):
            assert kv[key] == "nan"
        assert kv["rate_chain_ok"] == "false"
        assert main(["analyze", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "optimal parameters unavailable" in out

    def test_asymmetric_input_exits_one(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        p.write_text("2\n0.2 0.8\n0.5 0.5\n")
        assert main(["analyze", "--input", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix is asymmetric by 3.000e-01\n"

    def test_reducible_input_exits_one(self, tmp_path, capsys):
        # two disconnected 2-agent swap networks: eigenvalues {1, 1, -1, -1}
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = W[2, 3] = W[3, 2] = 1.0
        path = tmp_path / "pair.txt"
        write_matrix(validate(W), path)
        assert main(["analyze", "--input", str(path), "--porcelain"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: network is reducible: second eigenvalue 1")
        assert "np.float64" not in captured.err

    @pytest.mark.parametrize("gamma", ["nan", "inf", "1e200", "-1e308"])
    def test_unusable_gamma_is_usage_error(self, capsys, gamma):
        argv = ["analyze", "--ring", "8", "--self-loop", "0.1", f"--gamma={gamma}"]
        assert main([*argv, "--porcelain"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: gamma={float(gamma)!r} ")


def _two_swaps():
    # two disconnected 2-agent swap networks: reducible, eigenvalues {1, 1, -1, -1}
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = W[2, 3] = W[3, 2] = 1.0
    return validate(W)


# the networks the reference renderer pins: a ring as (n, self-loop), a
# file as the network written to it
PINNED_NETWORKS = {
    "ring3": (3, None),
    "ring8": (8, None),
    "ring9": (9, None),
    "ring4-loops": (4, "0.1"),
    "ring32-loops": (32, "0.1"),
    "lazy-ring64": (64, "0.5"),
    "k3": (3, "0.3333333333333333"),
    "k44-loops": lambda: bipartite_with_loops(8, 0.05, seed=8),
    "random40": lambda: random_symmetric_stochastic(40, 0),
    "reducible": _two_swaps,
}


class TestAgainstReferenceRenderer:
    """`analyze` and `validate` print, byte for byte and with the same
    stderr and exit code, what the reference renderer prints from the
    library's optima, verdict and structure report."""

    @pytest.fixture(params=list(PINNED_NETWORKS), ids=list(PINNED_NETWORKS))
    def network(self, request, tmp_path):
        """(input arguments, the network main reads from them)."""
        source = PINNED_NETWORKS[request.param]
        if callable(source):
            path = tmp_path / "net.txt"
            write_matrix(source(), path)
            return ["--input", str(path)], read_matrix(path)
        n, eps = source
        argv = ["--ring", str(n)] + (["--self-loop", eps] if eps else [])
        return argv, make_ring(n, float(eps or 0.0))

    @staticmethod
    def _same_as_reference(capsys, argv, render, *args):
        want_code = ref.cli_exit_code(render, *args)
        want = capsys.readouterr()
        assert main(argv) == want_code
        got = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)

    @pytest.mark.parametrize("porcelain", [False, True], ids=["human", "porcelain"])
    @pytest.mark.parametrize("gamma", [None, "0.5", "1.0", "1.9", "-0.2", "nan"])
    def test_analyze(self, network, gamma, porcelain, capsys):
        inputs, A = network
        argv = ["analyze", *inputs]
        argv += [] if gamma is None else [f"--gamma={gamma}"]
        argv += ["--porcelain"] if porcelain else []
        g = None if gamma is None else float(gamma)
        self._same_as_reference(capsys, argv, ref.cli_analyze, A, g, porcelain)

    @pytest.mark.parametrize("porcelain", [False, True], ids=["human", "porcelain"])
    def test_validate(self, network, porcelain, capsys):
        inputs, A = network
        argv = ["validate", *inputs] + (["--porcelain"] if porcelain else [])
        self._same_as_reference(capsys, argv, ref.cli_validate, A, porcelain)


class TestSimulateCommand:
    def test_mla_on_pure_ring_collapses(self, tmp_path, capsys):
        out = tmp_path / "mla.csv"
        code = main(
            [
                "simulate", "--ring", "4", "--model", "mla", "--param", "0.5",
                "--steps", "100", "--runs", "50", "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        ks, width = read_envelope(out)
        assert ks[-1] == 100
        assert width[-1] <= 1e-10
        text = capsys.readouterr().out
        assert "final envelope width" in text
        assert "fitted decay rate" in text

    def test_degroot_on_pure_ring_oscillates(self, tmp_path, capsys):
        out = tmp_path / "dg.csv"
        code = main(
            [
                "simulate", "--ring", "4", "--model", "degroot",
                "--steps", "100", "--runs", "50", "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        ks, width = read_envelope(out)
        assert width[-1] >= 0.1 * width[0]
        assert "not convergent" in capsys.readouterr().out

    def test_reducible_network_is_not_convergent(self, tmp_path, capsys):
        # two disconnected 2-agent swap networks: eigenvalues {1, 1, -1, -1}
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = W[2, 3] = W[3, 2] = 1.0
        path = tmp_path / "pair.txt"
        write_matrix(validate(W), path)
        for model in (["mla", "--param", "0.5"], ["degroot"]):
            argv = ["simulate", "--input", str(path), "--model", *model,
                    "--steps", "50", "--runs", "4", "--out", str(tmp_path / "e.csv")]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "model not convergent on this network; no rate fit" in out
            assert "fitted decay rate" not in out

    def test_asymmetric_network_says_why_the_fit_is_skipped(self, tmp_path, capsys):
        # primitive and convergent, but the rate theory needs symmetric weights
        W = np.array([[0.2, 0.8, 0.0], [0.3, 0.4, 0.3], [0.0, 0.6, 0.4]])
        path = tmp_path / "asym.txt"
        write_matrix(validate(W), path)
        argv = ["simulate", "--input", str(path), "--model", "degroot",
                "--steps", "60", "--runs", "4", "--out", str(tmp_path / "e.csv")]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[2].split(":")[1]) < 1e-12
        assert lines[3].startswith("rate fit skipped: matrix is asymmetric")

    def test_overflow_fails_loudly(self, tmp_path, capsys):
        out = tmp_path / "mla.csv"
        code = main(
            [
                "simulate", "--ring", "8", "--model", "mla", "--param", "3",
                "--steps", "3000", "--out", str(out),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "overflow at step 561 of 3000" in captured.err
        assert "nan" not in captured.out
        assert not out.exists()

    def test_zero_steps_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "simulate", "--ring", "4", "--model", "mla", "--param", "0.5",
                "--steps", "0", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_missing_param_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(
                [
                    "simulate", "--ring", "4", "--model", "mla",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert ei.value.code == 2


class TestFigureCommand:
    def test_fig2_series(self, tmp_path, capsys):
        assert main(["figure", "fig2", "--out-dir", str(tmp_path)]) == 0
        for label in ("degroot", "accelerated", "mla"):
            assert (tmp_path / f"fig2_{label}.csv").exists()
        ks, mla_width = read_envelope(tmp_path / "fig2_mla.csv")
        assert np.all(mla_width[ks >= 60] <= 1e-6)
        for label in ("degroot", "accelerated"):
            _, width = read_envelope(tmp_path / f"fig2_{label}.csv")
            assert width[-1] >= 0.1 * width[0]

    def test_fig6_mla_converges_first(self, tmp_path, capsys):
        assert main(["figure", "fig6", "--out-dir", str(tmp_path)]) == 0

        def first_below(path, thresh):
            ks, width = read_envelope(path)
            hit = ks[width <= thresh]
            return hit[0] if hit.size else np.inf

        k_mla = first_below(tmp_path / "fig6_mla.csv", 1e-6)
        k_acc = first_below(tmp_path / "fig6_accelerated.csv", 1e-6)
        k_dg = first_below(tmp_path / "fig6_degroot.csv", 1e-6)
        assert k_mla < k_acc < k_dg

    def test_contour_grid_and_locus(self, tmp_path, capsys):
        assert main(["figure", "contour", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "contour_grid.csv").read_text().splitlines()
        assert lines[0] == "lambda,gamma,value"
        assert len(lines) == 1 + 201 * 201
        grid = {}
        for line in lines[1:]:
            lam, g, v = map(float, line.split(","))
            grid[(lam, g)] = v
        assert grid[(1.0, 1.0)] == pytest.approx(1.0, abs=1e-12)
        assert grid[(-1.0, 0.5)] == pytest.approx(np.sqrt(0.5), abs=1e-12)

        locus = (tmp_path / "contour_disc_zero.csv").read_text().splitlines()
        assert locus[0] == "branch,gamma,lambda"
        curve = [
            (float(g), float(lam))
            for b, g, lam in (line.split(",") for line in locus[1:])
            if b == "curve"
        ]
        assert curve
        for g, lam in curve:
            assert -1.0 <= lam <= 1.0
            D = g * g * lam * lam - 4.0 * (g - 1.0) * lam
            assert abs(D) <= 1e-9

    @pytest.mark.parametrize("setting", [["--runs", "0"], ["--steps", "0"]])
    @pytest.mark.parametrize("name", ["fig2", "fig6"])
    def test_bad_settings_make_no_directory(self, tmp_path, capsys, name, setting):
        out_dir = tmp_path / "out"
        assert main(["figure", name, *setting, "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {setting[0][2:]} must be >= 1")
        assert not out_dir.exists()


class TestPeriodicRingVerdicts:
    """Verdicts on periodic rings follow the exact pattern, whatever the
    labelling does to the rounding of the eigenvalue -1."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_every_labelling(self, n, tmp_path, capsys):
        # every file written is a new one: truncating a written file can
        # cost tens of milliseconds on some filesystems
        for i, A in enumerate(relabelled_rings(n, 60, seed=n)):
            path = tmp_path / f"ring{i}.txt"
            write_matrix(A, path)
            for model in (["degroot"], ["accelerated", "--param", "1.2"]):
                out = str(tmp_path / f"env{i}-{model[0]}.csv")
                argv = ["simulate", "--input", str(path), "--model", *model,
                        "--steps", "5", "--runs", "2", "--out", out]
                assert main(argv) == 0
                assert "not convergent" in capsys.readouterr().out
            assert main(["analyze", "--input", str(path), "--porcelain"]) == 0
            kv = porcelain(capsys.readouterr().out)
            assert kv["gamma_star"] == "nan" and kv["beta_star"] == "nan"
            assert kv["rate_chain_ok"] == "false"
            assert kv["rho_ess"] == "1" and kv["degroot_rate"] == "1"
            assert main(["analyze", "--input", str(path)]) == 0
            assert "rho_ess(A):  1   (DeGroot rate)" in capsys.readouterr().out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["analyze", "--ring", "8", "--porcelain"], 0, ""),
        (["analyze"], 2, "one of the arguments --input --ring is required"),
        (["analyze", "--input", "absent.txt"], 2, "error: cannot read absent.txt"),
        (["validate", "--input", "ring64.txt", "--porcelain"], 0, ""),
        (["validate", "--input", "ring65.txt", "--porcelain"], 0, ""),
        (
            [
                "simulate", "--ring", "8", "--model", "mla", "--param", "3",
                "--steps", "3000", "--out", "o.csv",
            ],
            1,
            "error: the states overflow at step 561 of 3000\n",
        ),
    ],
    ids=[
        "ring", "no-input", "missing-path", "validate-64", "validate-65",
        "simulate-overflow",
    ],
)
def test_console_entry_point_runs_as_a_process(
    argv, code, err, tmp_path, capsys, monkeypatch
):
    # python -m consensuslab in dev mode, with every warning an error; its
    # stdout matches the in-process run byte for byte
    monkeypatch.chdir(tmp_path)
    for n in (64, 65):
        write_matrix(make_ring(n), f"ring{n}.txt")
    src = os.path.dirname(os.path.dirname(consensuslab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "consensuslab", *argv],
        cwd=tmp_path, env=env, capture_output=True,
    )
    assert done.returncode == code, done.stderr
    assert err.encode() in done.stderr
    if code == 0:
        assert done.stderr == b""
        assert main(argv) == 0
        assert done.stdout == capsys.readouterr().out.encode()
    else:
        assert done.stdout == b"" and not os.path.exists("o.csv")


@pytest.mark.parametrize(
    "n, seed, last",
    [
        (40, 0, "fitted decay rate: "),
        (128, 3, "rate fit skipped: 5 usable points in the fit window, need 10"),
        (256, 1, "rate fit skipped: 2 usable points in the fit window, need 10"),
    ],
)
def test_simulate_fits_no_plateau(n, seed, last, tmp_path, capsys):
    # these networks' states settle about 1e-13 off the initial mean, where
    # the fit read 0.9025, 0.9654 and 0.9834 against rates of 0.3246,
    # 0.1843 and 0.1348: now a rate within 5% of theory, or no fit
    path = tmp_path / "random.txt"
    write_matrix(random_symmetric_stochastic(n, seed), path)
    argv = ["simulate", "--input", str(path), "--model", "degroot", "--runs", "2",
            "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith(last)
    if last.startswith("fitted"):
        m = re.match(r"fitted decay rate: (\S+) \(theory (\S+),", line)
        fitted, theory = float(m[1]), float(m[2])
        assert abs(fitted - theory) / theory <= 0.05


class TestErrorPaths:
    def test_self_loop_needs_a_ring(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_matrix(make_ring(4, 0.1), p)
        with pytest.raises(SystemExit) as ei:
            main(["validate", "--input", str(p), "--self-loop", "0.1"])
        assert ei.value.code == 2
        assert "--self-loop only applies with --ring" in capsys.readouterr().err

    def test_simulate_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.csv"
        argv = ["simulate", "--ring", "4", "--self-loop", "0.1", "--model", "degroot",
                "--steps", "5", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")

    def test_figure_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert main(["figure", "contour", "--out-dir", str(blocker)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write under {blocker}: ")

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["simulate", "--ring", "4", "--model", "degroot", "--steps", "3",
              "--runs", "2", "--out"], "error: cannot write /dev/null/xxx"),
            (["figure", "contour", "--out-dir"], "error: cannot write under /dev/null/xxx"),
        ],
        ids=["simulate", "figure"],
    )
    def test_a_long_output_path_is_cut_short(self, argv, prefix, capsys):
        assert main([*argv, "/dev/null/" + "x" * 100_000]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix)
        assert len(captured.err.encode()) <= 300


class TestHumanVerdicts:
    @pytest.mark.parametrize(
        "gamma, line",
        [
            ("0.5", "gamma=0.5: convergent, rate 0.839352701843"),
            ("1.9", "gamma=1.9: NOT convergent (gamma in (0,2): True, "
                    "criterion value: -1.6311393382)"),
        ],
    )
    def test_analyze_gamma_line(self, capsys, gamma, line):
        assert main(["analyze", "--ring", "9", "--gamma", gamma]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == line

    def test_too_few_steps_skip_the_fit(self, tmp_path, capsys):
        argv = ["simulate", "--ring", "8", "--self-loop", "0.1", "--model", "mla",
                "--param", "0.5", "--steps", "5", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "rate fit skipped: 5 usable points in the fit window, need 10"
        )

    def test_no_decay_skips_the_fit(self, tmp_path, capsys):
        # the essential radius is 1 - 2e-11: over 60 steps the distance to
        # consensus moves too little for its slope to be a rate
        path = tmp_path / "bridge.txt"
        write_matrix(bridged_cliques(), path)
        argv = ["simulate", "--input", str(path), "--model", "accelerated",
                "--param", "1.2", "--steps", "60", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("rate fit skipped: the fitted log distance moves by 1.64e-06")
        assert last.endswith("no decay to fit")
