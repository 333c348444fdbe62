import csv
import dataclasses
import io
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from blockcd import (
    ExperimentConfig,
    IterationRecord,
    MethodParams,
    StoppingRule,
    beta_sweep_config,
    build_problem,
    compute_speedup,
    emit_outputs,
    read_curve_csv,
    read_summary_csv,
    run_experiment,
)
from blockcd import bench
from blockcd.bench import CURVE_COLUMNS, SUMMARY_COLUMNS, TIMING_COLUMNS

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def small_config(tmp_path, **overrides):
    base = {
        "label": "unit",
        "problem": {"kind": "gaussian", "m": 200, "n": 30},
        "methods": [
            {"method": "madbcd", "beta": 0.1},
            {"method": "fbcd"},
            {"method": "cs-madbcd", "beta": 0.3, "d_factor": 4},
        ],
        "stopping": {"rse_threshold": 1e-6, "max_iterations": 5000},
        "repeats": 2,
        "master_seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def strip_timing_csv(path):
    """CSV text with every wall-clock-derived column removed."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    out = io.StringIO()
    writer = csv.writer(out)
    for row in rows:
        writer.writerow([row[i] for i in keep])
    return out.getvalue()


class TestConfig:
    def test_empty_method_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            small_config(tmp_path, methods=[])

    def test_repeats_validated(self, tmp_path):
        with pytest.raises(ValueError, match="repeats"):
            small_config(tmp_path, repeats=0)

    def test_negative_master_seed_refused(self, tmp_path):
        with pytest.raises(ValueError, match="master_seed must be a non-negative integer, got -3"):
            small_config(tmp_path, master_seed=-3)

    def test_unknown_method_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown method keys"):
            small_config(tmp_path, methods=[{"method": "fbcd", "gamma": 1}])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"serial_timng": True}, r"unknown config keys \['serial_timng'\]"),
            ({"serial_timing": False, "workers": 3}, r"\['serial_timing', 'workers'\]"),
            ({"stopping": {"max_iter": 100}}, r"unknown stopping keys \['max_iter'\]"),
            (
                {"fresh_problem_per_repeat": True},
                r"unknown config keys \['fresh_problem_per_repeat'\]",
            ),
            (
                {"stopping": {"rse_threshold": 1e-6, "grad_threshold": 1e-8}},
                r"unknown stopping keys \['grad_threshold'\]",
            ),
            (
                {"methods": [{"method": "mrbgs", "mrbgs_fraction": 0.3}]},
                r"unknown method keys \['mrbgs_fraction'\]",
            ),
            (
                {"methods": [{"method": "cs-madbcd", "beta": 0.3, "d": 800}]},
                r"unknown method keys \['d'\]",
            ),
        ],
    )
    def test_unknown_keys_rejected(self, tmp_path, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_config(tmp_path, **overrides)

    def test_every_shipped_config_loads(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert paths
        for path in paths:
            assert ExperimentConfig.from_json(path).methods

    def test_cs_needs_exactly_one_dimension_spec(self):
        with pytest.raises(ValueError, match="'d_factor' .* required for cs-madbcd"):
            MethodParams(method="cs-madbcd", beta=0.1)
        with pytest.raises(ValueError, match="refused for every other method; got method 'fbcd'"):
            MethodParams(method="fbcd", d_factor=2)

    @pytest.mark.parametrize("d_factor", [0, -2])
    def test_sketch_factor_below_one_refused(self, d_factor):
        with pytest.raises(ValueError, match=f"'d_factor' must be >= 1, got {d_factor}"):
            MethodParams(method="cs-madbcd", beta=0.3, d_factor=d_factor)

    @pytest.mark.parametrize("field, value", [("d_factor", 2.5), ("d_factor", True), ("beta", False)])
    def test_knob_of_a_type_a_config_refuses_is_refused(self, field, value):
        knobs = {"beta": 0.3, "d_factor": 2, field: value}
        with pytest.raises(ValueError, match=f"method key '{field}' must be"):
            MethodParams(method="cs-madbcd", **knobs)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("repeats", 2.5, "config key 'repeats' must be int, got 2.5"),
            ("repeats", True, "config key 'repeats' must be int, got True"),
            ("master_seed", 1.5, "config key 'master_seed' must be int, got 1.5"),
            ("output_dir", 3, "config key 'output_dir' must be str, got 3"),
            ("label", None, "config key 'label' must be str, got None"),
        ],
        ids=["repeats-float", "repeats-bool", "master_seed-float", "output_dir-int", "label-None"],
    )
    def test_config_field_of_a_wrong_type_is_refused_when_built_directly(
        self, field, value, message
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(
                problem={"kind": "gaussian", "m": 60, "n": 10},
                methods=(MethodParams("madbcd", 0.1),),
                stopping=StoppingRule(1e-6, 1000),
                **{field: value},
            )

    def test_records_built_from_numpy_scalars_write_a_plain_manifest(self, tmp_path):
        cfg = ExperimentConfig(
            problem={"kind": "gaussian", "m": 120, "n": 10},
            methods=(MethodParams("cs-madbcd", 0.3, d_factor=np.int64(2)),),
            stopping=StoppingRule(1e-6, np.int64(500)),
            repeats=np.int64(1),
            output_dir=str(tmp_path / "out"),
        )
        assert type(cfg.methods[0].d_factor) is int
        assert type(cfg.stopping.max_iterations) is int and type(cfg.repeats) is int
        rows, reports = run_experiment(cfg)
        emit_outputs(rows, reports, cfg)
        with open(f"{cfg.output_dir}/manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["methods"][0]["d_factor"] == 2
        assert manifest["config"]["stopping"]["max_iterations"] == 500
        assert manifest["config"]["repeats"] == 1

    def test_json_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "label": "unit",
                    "problem": {"kind": "gaussian", "m": 200, "n": 30},
                    "methods": [{"method": "madbcd", "beta": 0.1}],
                    "stopping": {"rse_threshold": 1e-6, "max_iterations": 5000},
                    "repeats": 2,
                    "master_seed": 7,
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        loaded = ExperimentConfig.from_json(path)
        assert loaded.problem == cfg.problem
        assert loaded.stopping == cfg.stopping


class TestBuildProblem:
    def test_deterministic_per_seed(self):
        p1 = build_problem({"kind": "gaussian", "m": 40, "n": 6}, 11)
        p2 = build_problem({"kind": "gaussian", "m": 40, "n": 6}, 11)
        assert np.array_equal(p1.A.to_dense(), p2.A.to_dense())
        assert np.array_equal(p1.b, p2.b)

    def test_kinds(self, tmp_path):
        assert build_problem({"kind": "sparse-gaussian", "m": 50, "n": 8, "density": 0.2}, 1).A.shape == (50, 8)
        tomo = build_problem({"kind": "tomography", "grid_side": 8}, 2)
        assert tomo.A.rows == 168 and tomo.A.cols == 64
        with pytest.raises(ValueError, match="kind"):
            build_problem({"kind": "toeplitz"}, 0)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"kind": "gaussian", "m": 60, "n": 10, "densty": 0.1},
                r"unknown problem keys \['densty'\]",
            ),
            (
                {"kind": "tomography", "grid_side": 8, "detector_spacng": 2.0},
                r"unknown problem keys \['detector_spacng'\]",
            ),
            (
                {"kind": "tomography", "grid_side": 8, "n_angles": 16},
                r"unknown problem keys \['n_angles'\]",
            ),
            ({"kind": "gaussian", "m": "60", "n": 10}, r"problem key 'm' must be int, got '60'"),
            ({"kind": "mtx", "path": "a.mtx", "transpose": 1}, r"'transpose' must be bool"),
        ],
        ids=["gaussian-typo", "tomography-typo", "tomography-fixed-angles", "string-size",
             "int-for-bool"],
    )
    def test_unknown_or_wrong_typed_field_refused(self, spec, message):
        with pytest.raises(ValueError, match=message):
            build_problem(spec, 0)

    def test_numpy_scalar_fields_accepted(self):
        spec = {
            "kind": "sparse-gaussian", "m": np.int64(50), "n": np.int32(8),
            "density": np.float32(0.2),
        }
        assert build_problem(spec, 1).A.shape == (50, 8)

    def test_numpy_scalar_fields_write_plain_outputs(self, tmp_path):
        cfg = small_config(
            tmp_path,
            problem={"kind": "gaussian", "m": np.int64(60), "n": np.int32(12)},
            methods=[{"method": "madbcd", "beta": np.float64(0.3)}],
            repeats=np.int64(1),
        )
        assert type(cfg.problem["m"]) is int and type(cfg.methods[0].beta) is float
        assert type(cfg.repeats) is int
        rows, reports = run_experiment(cfg)
        emit_outputs(rows, reports, cfg)
        assert read_summary_csv(f"{cfg.output_dir}/summary.csv") == rows
        with open(f"{cfg.output_dir}/manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["problem"] == {"kind": "gaussian", "m": 60, "n": 12}
        assert manifest["config"]["methods"][0]["beta"] == 0.3

    def test_missing_field_names_kind_and_field(self):
        with pytest.raises(ValueError, match=r"missing problem keys \['n'\]"):
            build_problem({"kind": "gaussian", "m": 50}, 0)
        with pytest.raises(ValueError, match=r"missing problem keys \['density'\]"):
            build_problem({"kind": "sparse-gaussian", "m": 50, "n": 8}, 0)

    def test_mtx_kind_with_transpose(self, tmp_path):
        from blockcd import SparseMatrixCSC, gen_sparse_gaussian, write_matrix_market

        tall = gen_sparse_gaussian(40, 12, 0.4, seed=3)
        wide_path = tmp_path / "wide.mtx"
        # store the matrix wide (12 x 40), the usual collection layout
        write_matrix_market(wide_path, SparseMatrixCSC.from_dense(tall.to_dense().T))
        prob = build_problem({"kind": "mtx", "path": str(wide_path), "transpose": True}, 5)
        assert prob.A.shape == (40, 12)
        assert prob.consistent
        assert prob.label.endswith("^T")
        again = build_problem({"kind": "mtx", "path": str(wide_path), "transpose": True}, 5)
        assert np.array_equal(prob.b, again.b)
        # wide ingestion without the flag is rejected up front
        with pytest.raises(ValueError, match="wider than tall"):
            build_problem({"kind": "mtx", "path": str(wide_path)}, 5)


class TestRunExperiment:
    def test_rows_and_reports(self, tmp_path):
        cfg = small_config(tmp_path)
        rows, reports = run_experiment(cfg)
        assert [r.method for r in rows] == ["madbcd", "fbcd", "cs-madbcd"]
        assert all(r.n_converged == cfg.repeats for r in rows)
        assert rows[0].speedup_vs_madbcd == 1.0  # the baseline against itself
        assert rows[2].sketch_d == 4 * 30
        for row in rows:
            assert row.mean_total_s == pytest.approx(
                row.mean_prep_s + row.mean_solve_s, abs=1e-6
            )
        assert set(reports) == {r.label for r in rows}

    def test_non_convergence_is_flagged_not_fatal(self, tmp_path):
        cfg = small_config(
            tmp_path,
            methods=[{"method": "cd"}],
            stopping={"rse_threshold": 1e-12, "max_iterations": 5},
        )
        rows, reports = run_experiment(cfg)
        assert rows[0].n_converged == 0
        assert rows[0].mean_it == 5  # capped runs contribute max_iterations
        assert all(
            r.stop_reason == "max iterations exceeded" for r in reports[rows[0].label]
        )


class TestOneRealizationAtATime:
    @pytest.fixture
    def alive_at_build(self, monkeypatch):
        """Per build_problem call, how many earlier realizations are still alive."""
        real = bench.build_problem
        built, alive = [], []

        def tracking(spec, seed):
            alive.append(sum(ref() is not None for ref in built))
            problem = real(spec, seed)
            built.append(weakref.ref(problem))
            return problem

        monkeypatch.setattr(bench, "build_problem", tracking)
        return alive

    def test_run_experiment(self, tmp_path, alive_at_build):
        run_experiment(small_config(tmp_path, repeats=3))
        assert alive_at_build == [0, 0, 0]

    def test_sweep_beta(self, alive_at_build):
        config = beta_sweep_config(
            {"kind": "gaussian", "m": 120, "n": 40},
            [0.0, 0.3],
            StoppingRule(rse_threshold=1e-6, max_iterations=5000),
            master_seed=3,
            repeats=3,
        )
        run_experiment(config)
        assert alive_at_build == [0, 0, 0]


class TestSpeedup:
    def test_examples(self):
        assert compute_speedup(10.0, 2.0) == 5.0
        assert compute_speedup(3.5, 3.5) == 1.0

    def test_paper_style_ratio(self):
        assert compute_speedup(0.0275, 0.0055) == pytest.approx(5.00, abs=0.005)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="positive"):
            compute_speedup(1.0, 0.0)


class TestEmitOutputs:
    def test_every_curve_column_is_a_record_field(self):
        assert set(CURVE_COLUMNS) <= {f.name for f in dataclasses.fields(IterationRecord)}

    def test_round_trip_summary(self, tmp_path):
        cfg = small_config(tmp_path)
        rows, reports = run_experiment(cfg)
        emit_outputs(rows, reports, cfg)
        back = read_summary_csv(f"{cfg.output_dir}/summary.csv")
        assert back == rows

    def test_summary_with_foreign_columns_refused(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("label,iterations\nmadbcd_b0.1,12\n")
        with pytest.raises(ValueError, match=r"unexpected columns \['label', 'iterations'\]"):
            read_summary_csv(path)

    def test_curve_has_iterations_plus_one_lines(self, tmp_path):
        cfg = small_config(
            tmp_path, methods=[{"method": "madbcd", "beta": 0.1}], repeats=1
        )
        rows, reports = run_experiment(cfg)
        emit_outputs(rows, reports, cfg)
        curve = read_curve_csv(f"{cfg.output_dir}/curves/{rows[0].label}.csv")
        assert len(curve) == int(rows[0].mean_it) + 1
        assert curve[0]["k"] == 0

    def test_manifest_written(self, tmp_path):
        cfg = small_config(tmp_path)
        rows, reports = run_experiment(cfg)
        emit_outputs(rows, reports, cfg)
        with open(f"{cfg.output_dir}/manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["master_seed"] == 7
        assert set(manifest["runs"]) == set(reports)

    def test_determinism_modulo_timing(self, tmp_path):
        cfg1 = small_config(tmp_path, output_dir=str(tmp_path / "o1"))
        cfg2 = small_config(tmp_path, output_dir=str(tmp_path / "o2"))
        for cfg in (cfg1, cfg2):
            rows, reports = run_experiment(cfg)
            emit_outputs(rows, reports, cfg)
        assert strip_timing_csv(f"{cfg1.output_dir}/summary.csv") == strip_timing_csv(
            f"{cfg2.output_dir}/summary.csv"
        )
        for label in ("madbcd_b0.1", "fbcd", "cs-madbcd_b0.3_d4n"):
            c1 = strip_timing_csv(f"{cfg1.output_dir}/curves/{label}.csv")
            c2 = strip_timing_csv(f"{cfg2.output_dir}/curves/{label}.csv")
            assert c1 == c2

    def test_rse_strictly_decreasing_on_well_conditioned_suite(self, tmp_path):
        cfg = small_config(
            tmp_path, methods=[{"method": "madbcd", "beta": 0.0}], repeats=1
        )
        rows, reports = run_experiment(cfg)
        runs = reports[rows[0].label]
        rses = [rec.rse for rec in runs[0].records]
        assert all(a > b for a, b in zip(rses, rses[1:]))


def test_sweep_beta_runs_grid():
    config = beta_sweep_config(
        {"kind": "gaussian", "m": 120, "n": 40},
        [0.0, 0.3, 0.5],
        StoppingRule(rse_threshold=1e-6, max_iterations=5000),
        master_seed=3,
    )
    rows, _ = run_experiment(config)
    assert [r.beta for r in rows] == [0.0, 0.3, 0.5]
    assert all(r.n_converged == 1 for r in rows)
    assert [r.mean_it for r in rows] == [27.0, 18.0, 25.0]


def test_sweep_beta_tall_problems_prefer_small_momentum():
    # for very overdetermined instances the iteration count is flat in beta up
    # to ~0.5 and the minimizer sits low; past 0.5 momentum starts to hurt
    betas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    config = beta_sweep_config(
        {"kind": "gaussian", "m": 2500, "n": 250},
        betas,
        StoppingRule(rse_threshold=1e-6, max_iterations=100000),
        master_seed=7,
    )
    rows, _ = run_experiment(config)
    its = [r.mean_it for r in rows]
    assert betas[int(np.argmin(its))] <= 0.3
    assert its[5] <= 2.0 * its[0]  # flat region through beta = 0.5
    assert its[7] > its[3]  # large momentum degrades
