"""Experiment suites: timed method comparisons with CSV/JSON outputs.

A suite is a problem spec x method list x stopping rule, repeated over
seed-derived problem realizations.  This module owns the suite config, its
runs and its outputs; `problems` owns the spec and builds each realization.
Per-method means mirror the usual reporting: iteration counts, preprocessing
seconds (for sketched runs), solve seconds, and the speed-up ratio against
the adaptive momentum method.

Timing uses a monotonic clock around the solve loop only; problem generation
and sketching are timed separately.  With a fixed master seed everything
except the elapsed-seconds columns is reproducible byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .problems import _checked_fields, _problem_spec, _store_checked, build_problem
from .sketch import check_sketch_dimension
from .solvers import (
    MADBCD,
    ConvergenceReport,
    IterationRecord,
    MethodParams,
    StoppingRule,
    run_solver,
)

__all__ = [
    "ExperimentConfig",
    "BenchRow",
    "run_experiment",
    "beta_sweep_config",
    "compute_speedup",
    "emit_outputs",
    "read_summary_csv",
    "write_curve_csv",
    "read_curve_csv",
]

# IterationRecord fields, one curve column each
CURVE_COLUMNS = ["k", "rse", "normal_residual", "block_size", "elapsed_s"]

# columns derived from wall-clock measurements, exempt from byte-reproducibility
TIMING_COLUMNS = ("mean_prep_s", "mean_solve_s", "mean_total_s", "speedup_vs_madbcd", "elapsed_s")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a suite needs; loadable from a JSON file."""

    problem: dict
    methods: tuple[MethodParams, ...]
    stopping: StoppingRule
    repeats: int = 10
    master_seed: int = 0
    output_dir: str = "bench-out"
    label: str = "experiment"

    def __post_init__(self):
        hints = get_type_hints(ExperimentConfig)
        scalars = ("repeats", "master_seed", "output_dir", "label")
        _store_checked(self, "config", {key: hints[key] for key in scalars})
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {self.master_seed}")
        if not self.methods:
            raise ValueError("method list must be nonempty")
        # refuse a bad problem spec before any realization is built
        object.__setattr__(self, "problem", _problem_spec(self.problem))
        labels = [m.label() for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ValueError(f"method cells must be distinct, got labels {labels}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        # methods and stopping arrive as their JSON forms
        declared = {**get_type_hints(cls), "methods": list, "stopping": dict}
        raw = _checked_fields("config", raw, declared, required=("problem", "methods"))
        method_fields = get_type_hints(MethodParams)
        methods = tuple(
            MethodParams(**_checked_fields("method", m, method_fields, required=("method",)))
            for m in raw.pop("methods")
        )
        stopping = raw.pop("stopping", {})
        stopping = _checked_fields("stopping", stopping, get_type_hints(StoppingRule))
        return cls(methods=methods, stopping=StoppingRule(**stopping), **raw)

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


SUMMARY_COLUMNS = [f.name for f in fields(BenchRow)]


def run_experiment(config: ExperimentConfig):
    """Run every method cell on every repeat; aggregate rows and keep all reports.

    Repeats run serially, one problem realization at a time: every method
    sees the same realization, which is dropped before the next repeat's is
    built.  A run that hits its iteration or time limit is kept and flagged,
    never fatal.
    """
    ss = np.random.SeedSequence(config.master_seed)
    seed_table = ss.generate_state(config.repeats * 2).reshape(config.repeats, 2)
    reports: list[list[ConvergenceReport]] = [[] for _ in config.methods]
    for rep in range(config.repeats):
        problem = build_problem(config.problem, int(seed_table[rep, 0]))
        n = problem.A.cols
        for params in config.methods:  # refuse a bad sketch size before any cell runs
            if params.d_factor is not None:
                check_sketch_dimension(params.sketch_rows(n), *problem.A.shape)
        for mi, params in enumerate(config.methods):
            sketch_seed = int(seed_table[rep, 1]) + mi
            reports[mi].append(
                run_solver(problem, params, config.stopping, sketch_seed=sketch_seed)
            )
        del problem  # free this realization before the next one is built

    rows: list[BenchRow] = []
    report_lists: dict[str, list[ConvergenceReport]] = {}
    for params, runs in zip(config.methods, reports):
        label = params.label()
        report_lists[label] = runs
        prep = float(np.mean([r.prep_seconds for r in runs]))
        solve = float(np.mean([r.solve_seconds for r in runs]))
        rows.append(
            BenchRow(
                label=label,
                method=params.method,
                beta=params.beta,
                sketch_d=params.sketch_rows(n),
                repeats=config.repeats,
                n_converged=sum(r.converged for r in runs),
                mean_it=float(np.mean([r.iterations for r in runs])),
                mean_prep_s=prep,
                mean_solve_s=solve,
                mean_total_s=prep + solve,
                speedup_vs_madbcd=None,
            )
        )

    baseline = next((r for r in rows if r.method == MADBCD), None)
    if baseline is not None:
        rows = [
            replace(
                row,
                speedup_vs_madbcd=compute_speedup(row.mean_total_s, baseline.mean_total_s),
            )
            for row in rows
        ]
    return rows, report_lists


def run_summary(report: ConvergenceReport) -> dict:
    """The per-run fields that report.json and the manifest's runs record."""
    return {
        "problem": report.problem_label,
        "iterations": report.iterations,
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "prep_seconds": report.prep_seconds,
        "solve_seconds": report.solve_seconds,
    }


def compute_speedup(method_s: float, madbcd_s: float) -> float:
    """A method's mean wall-clock total seconds over the adaptive momentum method's."""
    if madbcd_s <= 0.0:
        raise ValueError("baseline time must be positive")
    return method_s / madbcd_s


def beta_sweep_config(
    problem_spec: dict,
    betas,
    stop: StoppingRule,
    master_seed: int = 0,
    repeats: int = 1,
) -> ExperimentConfig:
    """The suite with one madbcd cell per beta, so the betas must be distinct."""
    return ExperimentConfig(
        problem=problem_spec,
        methods=tuple(MethodParams(MADBCD, float(beta)) for beta in betas),
        stopping=stop,
        repeats=repeats,
        master_seed=master_seed,
        label="beta-sweep",
    )


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_outputs(rows, report_lists, config: ExperimentConfig):
    """Write summary.csv, per-method curve CSVs and a manifest under config.output_dir.

    Curves come from each method's first repeat (deterministic under a fixed
    master seed).  Returns the list of written paths.
    """
    directory = config.output_dir
    curves_dir = os.path.join(directory, "curves")
    os.makedirs(curves_dir, exist_ok=True)
    summary_path = os.path.join(directory, "summary.csv")
    _write_csv(summary_path, SUMMARY_COLUMNS, rows)
    written = [summary_path]

    for label, runs in report_lists.items():
        path = os.path.join(curves_dir, f"{label}.csv")
        write_curve_csv(path, runs[0].records)
        written.append(path)

    manifest = {
        "version": __version__,
        "config": asdict(config),
        "rows": [asdict(r) for r in rows],
        "runs": {
            label: [run_summary(r) for r in runs] for label, runs in report_lists.items()
        },
    }
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(manifest_path)
    return written


def _write_csv(path, columns, rows) -> None:
    """A header of `columns`, then one line per row holding those attributes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(getattr(row, col)) for col in columns] for row in rows)


def _read_csv(path, columns, record_type) -> list[dict]:
    """A `_write_csv` table's lines as dicts, each cell converted by its
    `record_type` field type (the float round-trip is exact); an empty cell is None.
    """
    convert = {name: (get_args(t) or (t,))[0] for name, t in get_type_hints(record_type).items()}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != columns:
            raise ValueError(f"unexpected columns {reader.fieldnames} in {path}, want {columns}")
        return [{k: convert[k](v) if v else None for k, v in line.items()} for line in reader]


def write_curve_csv(path, records) -> None:
    """One CURVE_COLUMNS line per iteration record."""
    _write_csv(path, CURVE_COLUMNS, records)


def read_summary_csv(path) -> list[BenchRow]:
    """Parse a summary back into rows."""
    return [BenchRow(**line) for line in _read_csv(path, SUMMARY_COLUMNS, BenchRow)]


def read_curve_csv(path) -> list[dict]:
    """Parse a curve back into one dict per iterate, keyed by CURVE_COLUMNS."""
    return _read_csv(path, CURVE_COLUMNS, IterationRecord)
