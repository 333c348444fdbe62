import json
import subprocess
import sys

import numpy as np
import pytest

from blockcd import build_problem, read_curve_csv
from blockcd.cli import main


def test_solve_converges_exit_zero(tmp_path, capsys):
    code = main(
        [
            "solve",
            "--problem",
            "gaussian:200:30",
            "--method",
            "madbcd",
            "--beta",
            "0.1",
            "--seed",
            "3",
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged" in out
    assert (tmp_path / "run" / "curve.csv").exists()
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["converged"] is True


def test_solve_non_convergence_exit_three(tmp_path):
    code = main(["solve", "--problem", "gaussian:100:20", "--max-it", "2", "--seed", "1"])
    assert code == 3


def test_bad_problem_spec_exit_one(capsys):
    code = main(["solve", "--problem", "hilbert:3"])
    assert code == 1
    assert "cannot parse" in capsys.readouterr().err


def test_missing_argument_exit_one(capsys):
    assert main(["solve"]) == 1


def test_tomography_solve_emits_reconstruction_grid(tmp_path):
    import warnings

    import numpy as np

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(
            [
                "solve",
                "--problem",
                "tomo:8:blocks",
                "--method",
                "madbcd",
                "--beta",
                "0.3",
                "--out",
                str(tmp_path / "tomo"),
            ]
        )
    assert code == 0
    grid = np.loadtxt(tmp_path / "tomo" / "reconstruction.txt")
    assert grid.shape == (8, 8)


def test_cs_method_through_cli(tmp_path):
    code = main(
        [
            "solve",
            "--problem",
            "gaussian:2000:50",
            "--method",
            "cs-madbcd",
            "--beta",
            "0.3",
            "--d-factor",
            "4",
            "--seed",
            "2",
        ]
    )
    assert code == 0


@pytest.mark.parametrize("method", ["cd", "fbcd", "mrbgs", "madbcd", "cs-madbcd"])
def test_solve_every_method_reports_its_cell(tmp_path, method):
    out = tmp_path / method
    code = main(
        ["solve", "--problem", "gaussian:400:40", "--method", method, "--seed", "6",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # a sketched cell still names the problem it was asked to solve
    assert report["problem"] == build_problem({"kind": "gaussian", "m": 400, "n": 40}, 6).label
    assert report["method"] == method
    assert (report["prep_seconds"] > 0) == (method == "cs-madbcd")
    curve = read_curve_csv(out / "curve.csv")
    assert [row["k"] for row in curve] == list(range(report["iterations"] + 1))


def test_all_zero_reference_solution_exit_one(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert main(["gen", "--problem", "gaussian:30:5", "--seed", "1", "--out", str(bundle)]) == 0
    np.savetxt(bundle / "x_star.txt", np.zeros(5))
    assert main(["solve", "--problem", str(bundle)]) == 1
    assert "all zeros" in capsys.readouterr().err


def test_gen_then_solve_bundle(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert main(["gen", "--problem", "sparse:80:12:0.2", "--seed", "5", "--out", str(bundle)]) == 0
    assert (bundle / "A.mtx").exists()
    assert (bundle / "b.txt").exists()
    assert (bundle / "x_star.txt").exists()
    assert main(["solve", "--problem", str(bundle), "--method", "fbcd"]) == 0


def test_bench_subcommand(tmp_path, capsys):
    cfg = {
        "label": "cli",
        "problem": {"kind": "gaussian", "m": 150, "n": 25},
        "methods": [{"method": "madbcd", "beta": 0.1}, {"method": "fbcd"}],
        "stopping": {"rse_threshold": 1e-6, "max_iterations": 5000},
        "repeats": 2,
        "master_seed": 1,
        "output_dir": str(tmp_path / "bench-out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["bench", "--config", str(path)]) == 0
    assert (tmp_path / "bench-out" / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "speedup" in out


def test_sweep_beta_subcommand(tmp_path, capsys):
    code = main(
        [
            "sweep-beta",
            "--problem",
            "gaussian:150:50",
            "--betas",
            "0,0.3",
            "--seed",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    text = (tmp_path / "beta_sweep.csv").read_text()
    assert text.startswith("beta,mean_it,mean_solve_s,n_converged")


def test_verify_subcommand(capsys):
    assert main(["verify", "--instances", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blockcd.cli", "solve", "--problem", "gaussian:120:20", "--seed", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "converged" in proc.stdout
