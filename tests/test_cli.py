import json
import re
import subprocess
import sys

import numpy as np
import pytest

from blockcd import (
    DenseMatrix,
    ProblemInstance,
    bench,
    build_problem,
    read_curve_csv,
    read_summary_csv,
    write_matrix_market,
    write_problem_bundle,
)
from blockcd import cli
from blockcd.cli import main
from blockcd.problems import parse_problem


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


@pytest.mark.parametrize("spec", ["sparse:5:0:0.5", "gaussian:0:0"])
def test_no_columns_exit_one(capsys, spec):
    assert main(["solve", "--problem", spec]) == 1
    assert "need at least one column" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "gen"])
def test_allocation_too_large_exit_one(tmp_path, capsys, command):
    # 728 TiB exceeds a 47-bit address space, so numpy's allocation fails at once
    argv = [command, "--problem", "gaussian:100000000000:1000"]
    code = main(argv + (["--out", str(tmp_path / "bundle")] if command == "gen" else []))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err


@pytest.mark.parametrize("suffix", ["", ":T"])
def test_missing_mtx_file_exit_one(tmp_path, capsys, suffix):
    path = tmp_path / "missing" / "A.mtx"
    code = main(["solve", "--problem", f"{path}{suffix}"])
    assert code == 1
    err = capsys.readouterr().err
    assert "no such Matrix Market file" in err
    assert str(path) in err
    assert "cannot parse" not in err


def test_missing_argument_exit_one(capsys):
    assert main(["solve"]) == 1


@pytest.mark.parametrize(
    "command, options",
    [
        ("solve", "--problem --method --beta --tol --max-it --time-budget --seed --d-factor --out"),
        ("bench", "--config --out"),
        ("sweep-beta", "--problem --betas --tol --max-it --seed --repeats --out"),
        ("verify", "--seed"),
        ("gen", "--problem --seed --out"),
    ],
    ids=["solve", "bench", "sweep-beta", "verify", "gen"],
)
def test_help_lists_each_subcommands_options(capsys, command, options):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed - {"--help"} == set(options.split())


def test_tomography_solve_emits_reconstruction_grid(tmp_path):
    import numpy as np

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


@pytest.mark.parametrize(
    "problem, d_factor",
    # sparse: d n = 80000 entries exceed 16 nnz(A) (about 64000), so SA is stored CSC
    [("gaussian:2000:50", "4"), ("sparse:20000:100:0.002", "8")],
    ids=["dense", "sparse-to-csc"],
)
def test_cs_method_through_cli(tmp_path, problem, d_factor):
    code = main(
        [
            "solve",
            "--problem",
            problem,
            "--method",
            "cs-madbcd",
            "--beta",
            "0.3",
            "--d-factor",
            d_factor,
            "--seed",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["method"] == "cs-madbcd" and report["converged"] is True
    assert report["prep_seconds"] > 0


def test_d_factor_without_sketch_exit_one(capsys):
    code = main(
        ["solve", "--problem", "gaussian:200:20", "--method", "madbcd", "--d-factor", "8"]
    )
    assert code == 1
    assert "'d_factor'" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["cd", "fbcd", "mrbgs", "madbcd", "cs-madbcd"])
# on CSC input every refresh forms r, and cd crosses several
@pytest.mark.parametrize("problem", ["gaussian:400:40", "sparse:4000:100:0.05"])
def test_solve_every_method_reports_its_cell(tmp_path, method, problem):
    out = tmp_path / method
    code = main(
        ["solve", "--problem", problem, "--method", method, "--seed", "6", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # a sketched cell still names the problem it was asked to solve
    assert report["problem"] == build_problem(parse_problem(problem), 6).label
    assert report["method"] == method and report["converged"] is True
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


def test_solve_without_x_star_prints_its_gradient_relative_to_the_start(tmp_path, capsys):
    # a ratio of two norms of s is the same in a rescaled run's units as in
    # the problem's, so a run on b times 1e200 prints it below --tol too
    bundle = tmp_path / "bundle"
    assert main(["gen", "--problem", "gaussian:200:20", "--seed", "1", "--out", str(bundle)]) == 0
    np.savetxt(bundle / "b.txt", 1e200 * np.loadtxt(bundle / "b.txt"))
    (bundle / "x_star.txt").unlink()
    capsys.readouterr()
    assert main(["solve", "--problem", str(bundle), "--method", "madbcd"]) == 0
    (ratio,) = re.findall(r"grad/grad0=(\S+),", capsys.readouterr().out)
    assert 0.0 < float(ratio) <= 1e-6


def test_solve_matrix_market_file_of_a_bundle(tmp_path):
    bundle = tmp_path / "bundle"
    assert main(["gen", "--problem", "sparse:80:12:0.2", "--seed", "5", "--out", str(bundle)]) == 0
    out = tmp_path / "solved"
    code = main(["solve", "--problem", str(bundle / "A.mtx"), "--seed", "2", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "report.json").read_text())["problem"] == "A"


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


DROP = object()  # an override that removes the key


def write_small_config(tmp_path, **overrides):
    cfg = {
        "problem": {"kind": "gaussian", "m": 150, "n": 25},
        "methods": [{"method": "madbcd", "beta": 0.1}],
        "stopping": {"rse_threshold": 1e-6, "max_iterations": 5000},
        "repeats": 1,
        "output_dir": str(tmp_path / "bench-out"),
        **overrides,
    }
    cfg = {key: value for key, value in cfg.items() if value is not DROP}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "change, named",
    [
        ({"serial_timng": True}, "serial_timng"),
        ({"serial_timing": True, "workers": 2}, "serial_timing"),
        ({"stopping": {"max_iter": 100}}, "max_iter"),
        ({"problem": {"kind": "gaussian", "m": 50}}, "'n'"),
        ({"problem": DROP}, "missing config keys ['problem']"),
        ({"methods": [{"beta": 0.1}]}, "missing method keys ['method']"),
        ({"master_seed": -3}, "master_seed must be a non-negative integer, got -3"),
        ({"methods": [{"method": "cs_madbcd", "beta": 0.3, "d_factor": 4}]},
         "unknown method 'cs_madbcd'"),
    ],
    ids=["typo-key", "removed-key", "stopping-key", "missing-problem-field",
         "missing-problem", "missing-method", "negative-master-seed", "method-typo"],
)
def test_bad_bench_config_exit_one(tmp_path, capsys, change, named):
    path = write_small_config(tmp_path, **change)
    assert main(["bench", "--config", str(path)]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "bench-out").exists()


@pytest.mark.parametrize(
    "body, message",
    [
        ("3 3 100000000000000\n1 1 1.0\n2 2 1.0\n3 3 1.0\n",
         "declared 100000000000000 entries but only 3 lines follow"),
        ("3 2 3\n1 1 1.0\n2 2 inf\n3 2 1.0\n", "matrix column 1 has a non-finite entry"),
        ("3 2 3\n1 1 1.0\n2 2 1e-320\n3 2 1e-320\n",
         "matrix column 1 has nonzero entries but its norm underflows to zero"),
    ],
    ids=["count-beyond-the-file", "inf-entry", "underflowing-column"],
)
def test_bad_matrix_market_file_exit_one(tmp_path, capsys, body, message):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
    assert main(["solve", "--problem", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"methods": [{"method": "madbcd", "beta": "0.1"}]}, "method key 'beta' must be float"),
        ({"repeats": "2"}, "config key 'repeats' must be int"),
        ({"repeats": 2.5}, "config key 'repeats' must be int"),
        ({"problem": {"kind": "gaussian", "m": "60", "n": 10}}, "problem key 'm' must be int"),
        (
            {"methods": [{"method": "cs-madbcd", "beta": 0.3, "d_factor": 2.5}]},
            "method key 'd_factor' must be int | None",
        ),
        ({"stopping": {"rse_threshold": "1e-6"}}, "stopping key 'rse_threshold' must be float"),
        ({"stopping": {"max_iterations": None}}, "stopping key 'max_iterations' must be int, got None"),
        ({"methods": 5}, "config key 'methods' must be list"),
        ({"methods": [5]}, "method must be a JSON object, got 5"),
        ({"stopping": 5}, "config key 'stopping' must be dict"),
        (
            {"problem": {"kind": "gaussian", "m": 60, "n": 10, "densty": 0.1}},
            "unknown problem keys ['densty']",
        ),
        (
            {"problem": {"kind": "tomography", "grid_side": 8, "detector_spacng": 2.0}},
            "unknown problem keys ['detector_spacng']",
        ),
        (
            {"problem": {"kind": "tomography", "grid_side": 8, "detector_spacing": 2.0}},
            "unknown problem keys ['detector_spacing']",
        ),
    ],
    ids=["beta-string", "repeats-string", "repeats-float", "m-string", "d_factor-float",
         "rse_threshold-string", "max_iterations-null", "methods-not-list", "method-not-object",
         "stopping-not-object", "gaussian-problem-typo", "tomography-problem-typo",
         "tomography-fixed-detector-spacing"],
)
def test_bad_config_value_exit_one(tmp_path, capsys, change, message):
    path = write_small_config(tmp_path, **change)
    assert main(["bench", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bench-out").exists()


def test_report_json_and_manifest_share_run_fields(tmp_path):
    assert main(["solve", "--problem", "gaussian:150:25", "--out", str(tmp_path / "solve")]) == 0
    report = json.loads((tmp_path / "solve" / "report.json").read_text())
    path = write_small_config(tmp_path)
    assert main(["bench", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "bench-out" / "manifest.json").read_text())
    (run,) = manifest["runs"]["madbcd_b0.1"]
    assert list(report) == [
        "method", "problem", "iterations", "converged", "stop_reason",
        "prep_seconds", "solve_seconds", "kernel_seconds", "scale_exponents",
    ]
    assert report["scale_exponents"] == [0, 0]
    assert set(run) == set(report) - {"method"}


def test_config_without_stopping_runs_under_the_default_cap(tmp_path):
    path = write_small_config(tmp_path, stopping=DROP)
    assert main(["bench", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "bench-out" / "manifest.json").read_text())
    assert manifest["config"]["stopping"] == {
        "rse_threshold": 1e-6, "max_iterations": 100000, "time_budget_s": None,
    }


def test_bench_parallel_flag_is_gone(tmp_path, capsys):
    path = write_small_config(tmp_path)
    assert main(["bench", "--config", str(path), "--parallel"]) == 1
    assert "--parallel" in capsys.readouterr().err


def test_sweep_beta_duplicate_betas_exit_one(capsys):
    code = main(["sweep-beta", "--problem", "gaussian:150:50", "--betas", "0.1,0.1"])
    assert code == 1
    assert "distinct" in capsys.readouterr().err


def test_sweep_beta_weights_equal_to_six_digits_get_distinct_cells(tmp_path):
    code = main(
        ["sweep-beta", "--problem", "gaussian:60:10", "--betas", "0.1234561,0.1234562",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert sorted(p.stem for p in (tmp_path / "curves").glob("*.csv")) == [
        "madbcd_b0.1234561", "madbcd_b0.1234562",
    ]


@pytest.mark.parametrize(
    "grid",
    ["0:0.9:0", "0:0.9:-0.1", "0.9:0:0.1", "0:inf:0.1", "nan:0.5:0.1", "0:0.5",
     "0:1e300:1e-10"],
)
def test_sweep_beta_bad_grid_exit_one(capsys, grid):
    code = main(["sweep-beta", "--problem", "gaussian:150:50", "--betas", grid])
    assert code == 1
    err = capsys.readouterr().err
    assert "must be lo:hi:step" in err and "needs lo <= hi and step > 0" in err


@pytest.mark.parametrize("betas", ["0.3,", "a,b", ",0.3", "0.1,,0.2"])
def test_sweep_beta_bad_list_exit_one(capsys, betas):
    code = main(["sweep-beta", "--problem", "gaussian:150:50", "--betas", betas])
    assert code == 1
    err = capsys.readouterr().err
    assert f"beta list {betas!r} must be comma-separated numbers" in err
    assert "could not convert" not in err


def test_sweep_beta_grid(tmp_path):
    code = main(
        ["sweep-beta", "--problem", "gaussian:150:50", "--betas", "0:0.2:0.1",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert [r.beta for r in read_summary_csv(tmp_path / "summary.csv")] == [0.0, 0.1, 0.2]


@pytest.mark.parametrize(
    "grid, expected",
    [
        ("0:0.55:0.1", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
        ("0:0.035:0.01", [0.0, 0.01, 0.02, 0.03]),
        ("0:0.75:0.5", [0.0, 0.5]),
        ("0.3:0.3:0.1", [0.3]),
        ("0:0.9:0.05", [round(0.05 * i, 10) for i in range(19)]),  # the default grid
    ],
)
def test_beta_grid_has_no_point_above_hi(grid, expected):
    assert cli._parse_betas(grid) == expected


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
    # the bench output files, with the same counts the earlier beta_sweep.csv held
    rows = read_summary_csv(tmp_path / "summary.csv")
    assert [(r.beta, r.mean_it) for r in rows] == [(0.0, 33.0), (0.3, 24.0)]
    assert sorted(p.name for p in (tmp_path / "curves").iterdir()) == [
        "madbcd_b0.3.csv", "madbcd_b0.csv",
    ]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 2
    assert not (tmp_path / "beta_sweep.csv").exists()
    assert "madbcd_b0.3: IT=24.0" in capsys.readouterr().out


def test_sweep_beta_without_out_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-beta", "--problem", "gaussian:150:50", "--betas", "0,0.3"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert "wrote" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, tol",
    [("solve", "nan"), ("solve", "inf"), ("sweep-beta", "nan"), ("sweep-beta", "inf")],
    ids=["nan", "inf", "sweep-beta-nan", "sweep-beta-inf"],
)
def test_non_finite_tolerance_exit_one(capsys, command, tol):
    code = main([command, "--problem", "gaussian:60:10", "--tol", tol, "--max-it", "200"])
    assert code == 1
    assert f"argument --tol: must be a finite number > 0, got '{tol}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve", "--max-it", "-5"], "--max-it"),
        (["solve", "--time-budget", "-1"], "--time-budget"),
        (["solve", "--tol", "0"], "--tol"),
        (["solve", "--method", "cs-madbcd", "--d-factor", "0"], "--d-factor"),
        (["sweep-beta", "--repeats", "0"], "--repeats"),
        (["solve", "--max-it", "five"], "--max-it"),
        (["solve", "--method", "cs-madbcd", "--d-factor", "2.5"], "--d-factor"),
        (["solve", "--max-it", "2.5"], "--max-it"),
    ],
    ids=["max-it", "time-budget", "tol", "d-factor", "repeats", "max-it-not-a-number",
         "d-factor-not-an-integer", "max-it-not-an-integer"],
)
def test_out_of_range_number_refused_naming_the_flag(monkeypatch, capsys, argv, flag):
    built = []
    for module in (cli, bench):
        monkeypatch.setattr(module, "build_problem", lambda *a: built.append(a))
    assert main(argv + ["--problem", "gaussian:60:10"]) == 1
    assert f"argument {flag}: must be " in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("field", ["rse_threshold", "time_budget_s"])
def test_non_finite_stopping_limit_in_config_exit_one(tmp_path, capsys, field):
    path = write_small_config(tmp_path, stopping={"max_iterations": 200, field: float("nan")})
    assert main(["bench", "--config", str(path)]) == 1
    assert f"{field} must be finite and positive, got nan" in capsys.readouterr().err
    assert not (tmp_path / "bench-out").exists()


def test_bad_sketch_size_refused_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "run_solver", lambda *a, **k: calls.append(a))
    path = write_small_config(
        tmp_path,
        problem={"kind": "gaussian", "m": 300, "n": 60},
        methods=[{"method": "madbcd", "beta": 0.1}, {"method": "cs-madbcd", "d_factor": 5}],
    )
    assert main(["bench", "--config", str(path)]) == 1
    assert "d=300 >= m=300" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "bench-out").exists()


def test_verify_subcommand(capsys):
    assert main(["verify", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "PASS singular-value sandwich",
        "PASS per-step contraction (beta=0)",
        "PASS feasible momentum bracketing",
    ]
    assert len(lines) == 4 and lines[3].startswith(
        ("PASS momentum run within contraction hypothesis",
         "NOTE momentum run outside contraction hypothesis")
    )


@pytest.mark.parametrize("storage", ["csc", "dense"])
def test_rank_deficient_block_exit_two(tmp_path, capsys, monkeypatch, storage):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((200, 20))
    a[:, 7] = a[:, 3]  # mrbgs's first block holds both copies
    problem = ProblemInstance(A=DenseMatrix(a), b=a @ rng.standard_normal(20))
    write_problem_bundle(tmp_path, problem)
    if storage == "dense":
        # a bundle's A.mtx reads back as CSC storage; this run gets the dense matrix
        monkeypatch.setattr(cli, "build_problem", lambda spec, seed: problem)
    assert main(["solve", "--problem", str(tmp_path), "--method", "mrbgs"]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: rank-deficient subproblem on block [3, 5, 7, 15]: "
    )


@pytest.mark.parametrize("factor", [1e-100, 1e60])
def test_bundle_scaled_far_from_one_exit_zero(tmp_path, factor):
    # unscaled, a run's squares underflow at 1e-100 (a false stop at step 0) and
    # overflow at 1e60: the run solves its power-of-two rescale to its threshold
    rng = np.random.default_rng(3)
    a = rng.standard_normal((200, 20)) * factor
    x_star = rng.standard_normal(20)
    write_problem_bundle(tmp_path, ProblemInstance(A=DenseMatrix(a), b=a @ x_star, x_star=x_star))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "blockcd.cli"]
        + ["solve", "--problem", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "converged: rse threshold" in proc.stdout and not proc.stderr


def test_runtime_error_exit_two(monkeypatch, capsys):
    def fail(A):
        raise RuntimeError("Jacobi iteration did not reach the target tolerance")

    monkeypatch.setattr(cli, "gram_extremal_singular_values", fail)
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: Jacobi iteration did not reach the target tolerance\n"
    )


def test_solve_sketch_that_cancels_a_column_exit_one(tmp_path, capsys):
    a = np.random.default_rng(0).standard_normal((40, 4))
    a[:, 0] = 0.0
    a[[0, 1], 0] = 1.0
    path = tmp_path / "cancel.mtx"
    write_matrix_market(path, DenseMatrix(a))
    # --seed 22 draws the sketch from seed 23, which cancels column 0
    code = main(
        ["solve", "--problem", str(path), "--method", "cs-madbcd", "--seed", "22"]
    )
    assert code == 1
    assert "cancels column 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "--problem", "gaussian:50:5"],
        ["sweep-beta", "--problem", "gaussian:50:5"],
        ["verify"],
        ["gen", "--problem", "gaussian:50:5", "--out", "bundle"],
    ],
    ids=["solve", "sweep-beta", "verify", "gen"],
)
def test_negative_seed_is_refused_naming_the_option(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--seed", "-1"]) == 1
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blockcd.cli", "solve", "--problem", "gaussian:120:20", "--seed", "4"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "converged" in proc.stdout


def test_inconsistent_sketch_warning_names_the_run_not_the_library(tmp_path, capsys):
    bundle = tmp_path / "noisy"
    assert main(["gen", "--problem", "gaussian:400:20", "--out", str(bundle)]) == 0
    capsys.readouterr()
    lines = (bundle / "b.txt").read_text().splitlines()
    lines[0] = repr(float(lines[0]) + 1.0)
    (bundle / "b.txt").write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "blockcd.cli", "solve", "--problem", str(bundle),
         "--method", "cs-madbcd", "--max-it", "50"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3
    assert "warning: count-sketch preprocessing of an inconsistent system" in proc.stderr
    assert ".py:" not in proc.stderr and "UserWarning" not in proc.stderr


def test_sketch_warning_without_x_star_says_consistency_is_unknown(tmp_path, capsys):
    bundle = tmp_path / "blind"
    assert main(["gen", "--problem", "gaussian:400:20", "--out", str(bundle)]) == 0
    (bundle / "x_star.txt").unlink()
    capsys.readouterr()
    assert main(["solve", "--problem", str(bundle), "--method", "cs-madbcd"]) == 0
    err = capsys.readouterr().err
    assert "warning: count-sketch preprocessing of a system without x_star" in err
    assert "consistency cannot be checked" in err
