"""Adaptive deterministic block coordinate descent for linear least squares.

Solvers (cd, fbcd, mrbgs, madbcd and its count-sketch variant), problem
generators and Matrix Market ingestion, independent verification oracles,
and a benchmark harness with a CLI front end.
"""

__version__ = "0.1.0"

from .matrix import DenseMatrix, Matrix, SparseMatrixCSC
from .oracle import (
    SketchedContractionBounds,
    RankDeficiencyError,
    ContractionBounds,
    beta_feasible_max,
    contraction_audit,
    embedding_dim_theory,
    gram_extremal_singular_values,
    q_from_recurrence,
    reference_lsq_solve,
    run_contraction_bounds,
    contraction_bounds,
    sketched_contraction_bounds,
)
from .problems import (
    MatrixMarketError,
    ProblemInstance,
    TomoGeometry,
    default_tomo_geometry,
    gen_gaussian_dense,
    gen_sparse_gaussian,
    gen_tomography,
    make_consistent_problem,
    read_matrix_market,
    read_problem_bundle,
    trace_ray,
    write_matrix_market,
    write_problem_bundle,
)
from .sketch import (
    CountSketch,
    build_count_sketch,
    cs_prepare,
    sketch_apply_matrix,
    sketch_apply_vector,
)
from .solvers import (
    BlockIndexSet,
    ConvergenceReport,
    IterationRecord,
    MethodParams,
    SolverState,
    StoppingRule,
    block_rule,
    compute_rse,
    line_search_update,
    run_solver,
    select_block_fbcd,
    select_block_madbcd,
    select_block_mrbgs,
    subsolve_update,
)
from .bench import (
    BenchRow,
    ExperimentConfig,
    MethodSpec,
    build_problem,
    compute_speedup,
    emit_outputs,
    read_curve_csv,
    read_summary_csv,
    run_cell,
    run_experiment,
    sweep_beta,
    write_curve_csv,
)
