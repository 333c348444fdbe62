"""Experiment suites: timed method comparisons with CSV/JSON outputs.

A suite is a problem spec x method list x stopping rule, repeated over
seed-derived problem realizations.  Per-method means mirror the usual
reporting: iteration counts, preprocessing seconds (for sketched runs),
solve seconds, and the speed-up ratio against the adaptive momentum method.

Timing uses a monotonic clock around the solve loop only; problem generation
and sketching are timed separately.  With a fixed master seed everything
except the elapsed-seconds columns is reproducible byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .problems import (
    ProblemInstance,
    default_tomo_geometry,
    gen_gaussian_dense,
    gen_sparse_gaussian,
    gen_tomography,
    make_consistent_problem,
    read_matrix_market,
    read_problem_bundle,
)
from .sketch import cs_prepare
from .solvers import ConvergenceReport, MethodParams, StoppingRule, run_solver

__all__ = [
    "MethodSpec",
    "ExperimentConfig",
    "BenchRow",
    "build_problem",
    "run_cell",
    "run_experiment",
    "sweep_beta",
    "compute_speedup",
    "emit_outputs",
    "read_summary_csv",
    "write_curve_csv",
    "read_curve_csv",
]

SUMMARY_COLUMNS = [
    "label",
    "method",
    "beta",
    "sketch_d",
    "repeats",
    "n_converged",
    "mean_it",
    "mean_prep_s",
    "mean_solve_s",
    "mean_total_s",
    "speedup_vs_madbcd",
]

CURVE_COLUMNS = ["k", "rse", "normal_residual", "block_size", "elapsed_s"]

# columns derived from wall-clock measurements, exempt from byte-reproducibility
TIMING_COLUMNS = ("mean_prep_s", "mean_solve_s", "mean_total_s", "speedup_vs_madbcd", "elapsed_s")


@dataclass(frozen=True)
class MethodSpec:
    """One method cell: solver name plus its scalar knobs."""

    method: str
    beta: float = 0.0
    mrbgs_fraction: float = 0.3
    d: int | None = None  # sketch rows (cs-madbcd only) ...
    d_factor: int | None = None  # ... or as a multiple of n

    def __post_init__(self):
        if self.method == "cs-madbcd":
            if (self.d is None) == (self.d_factor is None):
                raise ValueError("cs-madbcd needs exactly one of 'd' or 'd_factor'")
        elif self.d is not None or self.d_factor is not None:
            raise ValueError(f"method {self.method!r} does not take a sketch dimension")
        self.params()  # delegate the remaining validation (method name, beta range)

    @property
    def base_method(self) -> str:
        return "madbcd" if self.method == "cs-madbcd" else self.method

    def params(self) -> MethodParams:
        """What run_solver runs: cs-madbcd is madbcd on the sketched problem."""
        return MethodParams(self.base_method, self.beta, self.mrbgs_fraction)

    def sketch_rows(self, n: int) -> int | None:
        if self.method != "cs-madbcd":
            return None
        return self.d if self.d is not None else self.d_factor * n

    def label(self) -> str:
        parts = [self.method]
        if self.base_method == "madbcd":
            parts.append(f"b{self.beta:g}")
        if self.method == "mrbgs":
            parts.append(f"f{self.mrbgs_fraction:g}")
        if self.method == "cs-madbcd":
            parts.append(f"d{self.d}" if self.d is not None else f"d{self.d_factor}n")
        return "_".join(parts)

    @classmethod
    def from_dict(cls, raw: dict) -> "MethodSpec":
        known = {"method", "beta", "mrbgs_fraction", "d", "d_factor"}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown method keys {sorted(extra)}")
        return cls(**raw)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a suite needs; loadable from a JSON file."""

    problem: dict
    methods: tuple[MethodSpec, ...]
    stopping: StoppingRule
    repeats: int = 10
    fresh_problem_per_repeat: bool = True
    master_seed: int = 0
    output_dir: str = "bench-out"
    label: str = "experiment"
    serial_timing: bool = True
    workers: int = 4

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.methods:
            raise ValueError("method list must be nonempty")
        if "kind" not in self.problem:
            raise ValueError("problem spec needs a 'kind'")
        labels = [m.label() for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ValueError(f"method cells must be distinct, got labels {labels}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        methods = tuple(MethodSpec.from_dict(m) for m in raw.pop("methods", []))
        stopping = StoppingRule(**raw.pop("stopping", {}))
        return cls(methods=methods, stopping=stopping, **raw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class BenchRow:
    """One aggregated line of the summary table."""

    label: str
    method: str
    beta: float
    sketch_d: int | None
    repeats: int
    n_converged: int
    mean_it: float
    mean_prep_s: float
    mean_solve_s: float
    mean_total_s: float
    speedup_vs_madbcd: float | None


def build_problem(spec: dict, seed) -> ProblemInstance:
    """Realize a problem spec for one seed.

    Kinds: gaussian (m, n), sparse-gaussian (m, n, density),
    tomography (grid_side, optional n_angles/n_detectors/spacing/phantom),
    mtx (path, optional transpose; right-hand side generated from the seed),
    bundle (path; A, b and any reference solution come from disk).
    """
    kind = spec["kind"]
    ss = np.random.SeedSequence(seed)
    mat_seed, rhs_seed = (int(s) for s in ss.generate_state(2))
    if kind == "gaussian":
        A = gen_gaussian_dense(spec["m"], spec["n"], mat_seed)
        return make_consistent_problem(A, rhs_seed, label=f"randn{spec['m']}x{spec['n']}")
    if kind == "sparse-gaussian":
        A = gen_sparse_gaussian(spec["m"], spec["n"], spec["density"], mat_seed)
        return make_consistent_problem(
            A, rhs_seed, label=f"sprandn{spec['m']}x{spec['n']}d{spec['density']:g}"
        )
    if kind == "tomography":
        geom = default_tomo_geometry(
            spec["grid_side"],
            spec.get("n_angles"),
            spec.get("n_detectors"),
            spec.get("detector_spacing", 1.0),
        )
        return gen_tomography(geom, spec.get("phantom", "shepp-logan-like"), seed=mat_seed)
    if kind == "mtx":
        transpose = spec.get("transpose", False)
        A = read_matrix_market(spec["path"], transpose=transpose)
        name = os.path.splitext(os.path.basename(spec["path"]))[0]
        return make_consistent_problem(
            A, rhs_seed, label=name + ("^T" if transpose else "")
        )
    if kind == "bundle":
        return read_problem_bundle(spec["path"])
    raise ValueError(f"unknown problem kind {kind!r}")


def run_cell(
    problem: ProblemInstance, spec: MethodSpec, stop: StoppingRule, sketch_seed: int
) -> ConvergenceReport:
    """Run one method cell on `problem`.

    A cs-madbcd cell first compresses the problem with a count sketch drawn
    from `sketch_seed`; its report still names the cell's method and the
    unsketched problem, and carries the sketching time as prep seconds.
    """
    d = spec.sketch_rows(problem.A.cols)
    if d is None:
        return run_solver(problem, spec.params(), stop)
    sketched, prep = cs_prepare(problem, d, sketch_seed)
    report = run_solver(sketched, spec.params(), stop)
    return replace(report, method=spec.method, prep_seconds=prep, problem_label=problem.label)


def run_experiment(config: ExperimentConfig):
    """Run every method x repeat cell; aggregate rows and keep all reports.

    Per repeat, every method sees the same problem realization.  A run that
    hits its iteration or time limit is kept and flagged, never fatal.
    """
    ss = np.random.SeedSequence(config.master_seed)
    seed_table = ss.generate_state(config.repeats * 2).reshape(config.repeats, 2)
    if config.fresh_problem_per_repeat:
        problems = [
            build_problem(config.problem, int(seed_table[rep, 0]))
            for rep in range(config.repeats)
        ]
    else:
        shared = build_problem(config.problem, int(seed_table[0, 0]))
        problems = [shared] * config.repeats
    n = problems[0].A.cols

    cells = [
        (mi, rep)
        for mi in range(len(config.methods))
        for rep in range(config.repeats)
    ]
    reports: dict[tuple[int, int], ConvergenceReport] = {}

    def work(cell):
        mi, rep = cell
        spec = config.methods[mi]
        sketch_seed = int(seed_table[rep, 1]) + mi
        return cell, run_cell(problems[rep], spec, config.stopping, sketch_seed)

    if config.serial_timing:
        for cell in cells:
            key, rep_ = work(cell)
            reports[key] = rep_
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            for key, rep_ in pool.map(work, cells):
                reports[key] = rep_

    rows: list[BenchRow] = []
    report_lists: dict[str, list[ConvergenceReport]] = {}
    for mi, spec in enumerate(config.methods):
        runs = [reports[(mi, rep)] for rep in range(config.repeats)]
        label = spec.label()
        report_lists[label] = runs
        prep = float(np.mean([r.prep_seconds for r in runs]))
        solve = float(np.mean([r.solve_seconds for r in runs]))
        rows.append(
            BenchRow(
                label=label,
                method=spec.method,
                beta=spec.beta,
                sketch_d=spec.sketch_rows(n),
                repeats=config.repeats,
                n_converged=sum(r.converged for r in runs),
                mean_it=float(np.mean([r.iterations for r in runs])),
                mean_prep_s=prep,
                mean_solve_s=solve,
                mean_total_s=prep + solve,
                speedup_vs_madbcd=None,
            )
        )

    baseline = next((r for r in rows if r.method == "madbcd"), None)
    if baseline is not None:
        rows = [
            BenchRow(
                **{
                    **asdict(row),
                    "speedup_vs_madbcd": compute_speedup(
                        row.mean_total_s, baseline.mean_total_s
                    ),
                }
            )
            for row in rows
        ]
    return rows, report_lists


def compute_speedup(cpu_method: float, cpu_madbcd: float) -> float:
    """CPU of the method divided by CPU of the adaptive momentum method."""
    if cpu_madbcd <= 0.0:
        raise ValueError("baseline CPU time must be positive")
    return cpu_method / cpu_madbcd


def sweep_beta(
    problem_spec: dict,
    betas,
    stop: StoppingRule,
    master_seed: int = 0,
    repeats: int = 1,
):
    """Iteration counts and solve seconds of the momentum method per beta."""
    ss = np.random.SeedSequence(master_seed)
    seeds = [int(s) for s in ss.generate_state(repeats)]
    problems = [build_problem(problem_spec, s) for s in seeds]
    out = []
    for beta in betas:
        runs = [
            run_solver(p, MethodParams("madbcd", float(beta)), stop) for p in problems
        ]
        out.append(
            {
                "beta": float(beta),
                "mean_it": float(np.mean([r.iterations for r in runs])),
                "mean_solve_s": float(np.mean([r.solve_seconds for r in runs])),
                "n_converged": sum(r.converged for r in runs),
            }
        )
    return out


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", label)


def emit_outputs(rows, report_lists, directory, config: ExperimentConfig | None = None):
    """Write summary.csv, per-method curve CSVs and a manifest.

    Curves come from each method's first repeat (deterministic under a fixed
    master seed).  Returns the list of written paths.
    """
    os.makedirs(directory, exist_ok=True)
    written = []

    summary_path = os.path.join(directory, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in SUMMARY_COLUMNS])
    written.append(summary_path)

    curves_dir = os.path.join(directory, "curves")
    os.makedirs(curves_dir, exist_ok=True)
    for label, runs in report_lists.items():
        path = os.path.join(curves_dir, f"{_safe_name(label)}.csv")
        write_curve_csv(path, runs[0].records)
        written.append(path)

    manifest = {
        "version": __version__,
        "config": _config_echo(config) if config is not None else None,
        "rows": [asdict(r) for r in rows],
        "runs": {
            label: [
                {
                    "iterations": r.iterations,
                    "converged": r.converged,
                    "stop_reason": r.stop_reason,
                    "problem": r.problem_label,
                    "prep_seconds": r.prep_seconds,
                    "solve_seconds": r.solve_seconds,
                }
                for r in runs
            ]
            for label, runs in report_lists.items()
        },
    }
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(manifest_path)
    return written


def write_curve_csv(path, records) -> None:
    """One CURVE_COLUMNS line per iteration record."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for rec in records:
            writer.writerow(
                [rec.k, _fmt(rec.rse), _fmt(rec.grad_norm), rec.block_size, _fmt(rec.elapsed_s)]
            )


def _config_echo(config: ExperimentConfig) -> dict:
    echo = asdict(config)
    echo["methods"] = [asdict(m) for m in config.methods]
    echo["stopping"] = asdict(config.stopping)
    return echo


def read_summary_csv(path) -> list[BenchRow]:
    """Parse a summary back into rows (float round-trip is exact)."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SUMMARY_COLUMNS:
            raise ValueError(f"unexpected summary columns {reader.fieldnames}")
        for rec in reader:
            rows.append(
                BenchRow(
                    label=rec["label"],
                    method=rec["method"],
                    beta=float(rec["beta"]),
                    sketch_d=int(rec["sketch_d"]) if rec["sketch_d"] else None,
                    repeats=int(rec["repeats"]),
                    n_converged=int(rec["n_converged"]),
                    mean_it=float(rec["mean_it"]),
                    mean_prep_s=float(rec["mean_prep_s"]),
                    mean_solve_s=float(rec["mean_solve_s"]),
                    mean_total_s=float(rec["mean_total_s"]),
                    speedup_vs_madbcd=(
                        float(rec["speedup_vs_madbcd"])
                        if rec["speedup_vs_madbcd"]
                        else None
                    ),
                )
            )
    return rows


def read_curve_csv(path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CURVE_COLUMNS:
            raise ValueError(f"unexpected curve columns {reader.fieldnames}")
        for rec in reader:
            out.append(
                {
                    "k": int(rec["k"]),
                    "rse": float(rec["rse"]) if rec["rse"] else None,
                    "normal_residual": float(rec["normal_residual"]),
                    "block_size": int(rec["block_size"]),
                    "elapsed_s": float(rec["elapsed_s"]),
                }
            )
    return out
