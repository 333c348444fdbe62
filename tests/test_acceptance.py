"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success; on failure the line appears in the captured output).
"""

import time

import numpy as np
import pytest

from blockcd import (
    ExperimentConfig,
    MethodParams,
    StoppingRule,
    beta_feasible_max,
    beta_sweep_config,
    build_count_sketch,
    build_problem,
    cs_prepare,
    emit_outputs,
    gen_sparse_gaussian,
    gen_tomography,
    gram_extremal_singular_values,
    make_consistent_problem,
    move,
    q_from_recurrence,
    read_matrix_market,
    reference_lsq_solve,
    run_experiment,
    run_solver,
    select_block_mrbgs,
    sketch_apply_vector,
    subsolve,
    write_matrix_market,
)
from blockcd.bench import TIMING_COLUMNS
from blockcd.oracle import block_contraction_alpha

from conftest import random_sparse

MASTER_SEED = 20250809


def report_line(num, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_table1_desk_reproduction():
    config = ExperimentConfig.from_dict(
        {
            "label": "table1-desk",
            "problem": {"kind": "gaussian", "m": 3500, "n": 350},
            "methods": [{"method": "madbcd", "beta": 0.10}, {"method": "fbcd"}],
            "stopping": {"rse_threshold": 1e-6, "max_iterations": 100000},
            "repeats": 10,
            "master_seed": MASTER_SEED,
            "output_dir": "unused",
        }
    )
    t0 = time.perf_counter()
    rows, reports = run_experiment(config)
    elapsed = time.perf_counter() - t0
    it_m = [r.iterations for r in reports[rows[0].label]]
    it_f = [r.iterations for r in reports[rows[1].label]]
    mean_m, mean_f = float(np.mean(it_m)), float(np.mean(it_f))
    ok = (
        8 <= mean_m <= 20
        and 35 <= mean_f <= 70
        and all(a < b for a, b in zip(it_m, it_f))
        and all(r.converged for runs in reports.values() for r in runs)
        and elapsed <= 120.0
    )
    report_line(
        1,
        ok,
        f"madbcd IT {mean_m:.1f} in [8,20], fbcd IT {mean_f:.1f} in [35,70], "
        f"per-seed dominance, suite {elapsed:.1f}s <= 120s",
    )


def test_criterion_02_momentum_benefit_on_squareish_problems():
    betas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    config = beta_sweep_config(
        {"kind": "gaussian", "m": 1200, "n": 600},
        betas,
        StoppingRule(rse_threshold=1e-6, max_iterations=200000),
        master_seed=MASTER_SEED,
    )
    rows, _ = run_experiment(config)
    its = [r.mean_it for r in rows]
    best = int(np.argmin(its))
    ratio = its[best] / its[0]
    ok = 0.3 <= betas[best] <= 0.7 and ratio <= 0.6
    report_line(
        2,
        ok,
        f"best beta {betas[best]} in [0.3,0.7], IT ratio {ratio:.2f} <= 0.6 "
        f"(beta=0 IT {its[0]:.0f}, best IT {its[best]:.0f})",
    )


def test_criterion_03_per_iteration_contraction():
    rng = np.random.default_rng(MASTER_SEED)
    stop = StoppingRule(rse_threshold=1e-12, max_iterations=3000)
    violations = 0
    checked = 0
    for _ in range(50):
        prob = build_problem({"kind": "gaussian", "m": 40, "n": 10}, int(rng.integers(2**31)))
        rep = run_solver(
            prob, MethodParams("madbcd", 0.0), stop,
            record_history=True,
        )
        a = prob.A.to_dense()
        smin = gram_extremal_singular_values(a)[0]
        for k, idx in enumerate(rep.block_history):
            f_k = float(np.sum((a @ (rep.iterate_history[k] - prob.x_star)) ** 2))
            f_n = float(np.sum((a @ (rep.iterate_history[k + 1] - prob.x_star)) ** 2))
            alpha = block_contraction_alpha(a, idx, smin)
            checked += 1
            if f_n > (1.0 - alpha) * f_k * (1.0 + 1e-9) + 1e-300:
                violations += 1
    ok = violations == 0
    report_line(3, ok, f"{violations} violations over {checked} iterations of 50 instances")


def test_criterion_04_global_convergence_bound():
    rng = np.random.default_rng(MASTER_SEED + 4)
    stop = StoppingRule(rse_threshold=1e-12, max_iterations=3000)
    failures = []
    for trial in range(20):
        prob = build_problem({"kind": "gaussian", "m": 60, "n": 12}, int(rng.integers(2**31)))
        a = prob.A
        smin = gram_extremal_singular_values(a)[0]
        # pass 1 fixes the momentum weight from the no-momentum block history
        pass1 = run_solver(prob, MethodParams("madbcd", 0.0), stop, record_history=True)
        alpha0 = min(
            block_contraction_alpha(a, idx, smin) for idx in pass1.block_history
        )
        beta = 0.5 * beta_feasible_max(alpha0)
        pass2 = run_solver(
            prob, MethodParams("madbcd", beta), stop,
            record_history=True,
        )
        alpha_min = min(
            block_contraction_alpha(a, idx, smin) for idx in pass2.block_history
        )
        g1 = 1 + 3 * beta + 2 * beta * beta - (3 * beta + 1) * alpha_min
        g2 = 2 * beta * beta + beta
        if g1 + g2 >= 1.0:
            failures.append((trial, "worst-case coefficients infeasible"))
            continue
        q = q_from_recurrence(g1, g2)
        tau = q - g1
        ad = a.to_dense()
        f = [
            float(np.sum((ad @ (x - prob.x_star)) ** 2)) for x in pass2.iterate_history
        ]
        for j in range(1, len(f)):
            if f[j] > q**j * (1.0 + tau) * f[0] * (1.0 + 1e-9):
                failures.append((trial, f"bound violated at step {j}"))
                break
    ok = not failures
    report_line(4, ok, f"20 instances, worst-case-bound failures: {failures or 'none'}")


def test_criterion_05_block_set_identity():
    runs = []
    dense = build_problem({"kind": "gaussian", "m": 400, "n": 60}, MASTER_SEED + 5)
    stop = StoppingRule(rse_threshold=1e-6, max_iterations=10000)
    runs.append((dense, run_solver(dense, MethodParams("madbcd", 0.1), stop,
                                   record_history=True)))
    sparse = build_problem(
        {"kind": "sparse-gaussian", "m": 600, "n": 80, "density": 0.1}, MASTER_SEED + 6
    )
    runs.append((sparse, run_solver(sparse, MethodParams("madbcd", 0.3), stop,
                                    record_history=True)))
    sketched, _ = cs_prepare(dense, 4 * 60, seed=MASTER_SEED + 7)
    runs.append((sketched, run_solver(sketched, MethodParams("madbcd", 0.3), stop,
                                      record_history=True)))

    checked = 0
    worst_eq = 0.0
    bound_ok = True
    for prob, rep in runs:
        n = prob.A.cols
        for k, idx in enumerate(rep.block_history):
            rec = rep.records[k]
            # recorded two-path identity: eta.s over the block vs |tau| ||s||^2 / n
            if rec.eta_dot_s < len(idx) * rec.normal_residual**2 / n * (1 - 1e-12):
                bound_ok = False
            # replayed equality: fresh gradient from the stored iterate
            s = prob.A.transpose_matvec(prob.b - prob.A.matvec(rep.iterate_history[k]))
            replayed = float(np.sum(s[idx] ** 2))
            worst_eq = max(worst_eq, abs(rec.eta_dot_s - replayed) / replayed)
            checked += 1
    ok = bound_ok and worst_eq <= 1e-12
    report_line(
        5,
        ok,
        f"{checked} iterations: eta.s >= |tau|||s||^2/n everywhere, "
        f"worst replayed-identity error {worst_eq:.2e} <= 1e-12",
    )


def test_criterion_06_count_sketch_embedding():
    n, m, eps, d, trials = 4, 500, 0.5, 100, 500
    rng = np.random.default_rng(MASTER_SEED + 8)
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    ax = a @ x
    ax_norm = np.linalg.norm(ax)
    hits = sum(
        (1 - eps) * ax_norm
        <= np.linalg.norm(sketch_apply_vector(build_count_sketch(d, m, seed), ax))
        <= (1 + eps) * ax_norm
        for seed in range(trials)
    )
    ok = hits / trials >= 0.75
    report_line(6, ok, f"two-sided norm bound held in {hits}/{trials} trials (need >= 375)")


def test_criterion_07_cs_madbcd_correctness_and_pattern():
    problem = build_problem({"kind": "gaussian", "m": 100000, "n": 200}, MASTER_SEED)
    stop = StoppingRule(rse_threshold=1e-6, max_iterations=100000)

    solve_times = []
    for _ in range(3):
        plain = run_solver(problem, MethodParams("madbcd", 0.0), stop)
        solve_times.append(plain.solve_seconds)
    madbcd_seconds = float(np.mean(solve_times))

    cs_it = {}
    cs_total = {}
    all_converged = True
    for factor, beta in [(2, 0.55), (4, 0.30), (8, 0.20)]:
        totals, its = [], []
        for rep in range(3):
            sketched, prep = cs_prepare(problem, factor * 200, seed=MASTER_SEED + factor + rep)
            r = run_solver(sketched, MethodParams("madbcd", beta), stop)
            all_converged &= r.converged and r.records[-1].rse < 1e-6
            totals.append(prep + r.solve_seconds)
            its.append(r.iterations)
        cs_it[factor] = float(np.mean(its))
        cs_total[factor] = float(np.mean(totals))

    ok = (
        all_converged
        and cs_it[2] >= cs_it[4] >= cs_it[8]
        and all(plain.iterations <= cs_it[f] for f in (2, 4, 8))
        and cs_total[4] < madbcd_seconds
    )
    report_line(
        7,
        ok,
        f"cs IT pattern {cs_it[2]:.1f}->{cs_it[4]:.1f}->{cs_it[8]:.1f} non-increasing, "
        f"madbcd IT {plain.iterations} <= all, "
        f"cs total {cs_total[4]:.3f}s < madbcd {madbcd_seconds:.3f}s at d=4n",
    )


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED + 9)
    stop = StoppingRule(rse_threshold=1e-14, max_iterations=100000)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(5, 41))
        m = int(rng.integers(max(2 * n, n + 5), 201))
        prob = build_problem({"kind": "gaussian", "m": m, "n": n}, int(rng.integers(2**31)))
        ad = prob.A.to_dense()
        x_ref = reference_lsq_solve(ad, prob.b)
        ref_energy = np.linalg.norm(ad @ x_ref)
        for method, beta in [("cd", 0.0), ("fbcd", 0.0), ("mrbgs", 0.0), ("madbcd", 0.2)]:
            rep = run_solver(prob, MethodParams(method, beta), stop)
            assert rep.converged
            err = np.linalg.norm(ad @ (rep.x_final - x_ref)) / ref_energy
            worst = max(worst, err)
    ok = worst <= 1e-5
    report_line(8, ok, f"30 instances x 4 methods, worst energy-norm error {worst:.2e} <= 1e-5")


def test_criterion_09_mrbgs_subsolve_optimality():
    rng = np.random.default_rng(MASTER_SEED + 10)
    worst = 0.0
    steps = 0
    for _ in range(10):
        prob = build_problem(
            {"kind": "gaussian", "m": int(rng.integers(30, 120)), "n": int(rng.integers(5, 20))},
            int(rng.integers(2**31)),
        )
        # the run's steps, replayed: s is the carried A^T r that the subsolve reads
        kernel = prob.A.normal_kernel(prob.b)
        x, s, u = np.zeros(prob.A.cols), kernel.c, np.zeros(prob.A.cols)
        for _ in range(25):
            r_before = float(np.linalg.norm(prob.b - prob.A.matvec(x)))
            if r_before == 0.0 or float(np.dot(s, s)) == 0.0:
                break
            block = select_block_mrbgs(s)
            where, d, g, _ = subsolve(kernel, x, s, block)
            x, s, u = move(x, x, s, u, where, d, g)  # beta = 0: x_prev is not read
            a_tau = prob.A.gather_columns(block)
            resid = float(np.linalg.norm(s[block]))
            bound = 1e-10 * float(np.linalg.norm(a_tau)) * r_before
            worst = max(worst, resid / bound if bound > 0 else 0.0)
            steps += 1
    ok = worst <= 1.0
    report_line(
        9, ok, f"{steps} steps, worst orthogonality residual at {worst:.2e} of the bound"
    )


DETERMINISM_CONFIG = {
    "label": "determinism",
    "problem": {"kind": "gaussian", "m": 500, "n": 80},
    "methods": [
        {"method": "madbcd", "beta": 0.1},
        {"method": "fbcd"},
        {"method": "cd"},
        {"method": "mrbgs"},
        {"method": "cs-madbcd", "beta": 0.3, "d_factor": 4},
    ],
    "stopping": {"rse_threshold": 1e-6, "max_iterations": 50000},
    "repeats": 3,
    "master_seed": MASTER_SEED,
}


def test_criterion_10_determinism(tmp_path):
    base = DETERMINISM_CONFIG

    import csv
    import io
    import os

    def strip_timing(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
        out = io.StringIO()
        writer = csv.writer(out)
        for row in rows:
            writer.writerow([row[i] for i in keep])
        return out.getvalue()

    outputs = []
    for run in (1, 2):
        cfg = ExperimentConfig.from_dict(
            {**base, "output_dir": str(tmp_path / f"run{run}")}
        )
        rows, reports = run_experiment(cfg)
        emit_outputs(rows, reports, cfg)
        files = sorted(
            os.path.join(dp, f)
            for dp, _, fs in os.walk(cfg.output_dir)
            for f in fs
            if f.endswith(".csv")
        )
        outputs.append(
            {os.path.relpath(f, cfg.output_dir): strip_timing(f) for f in files}
        )
    ok = outputs[0] == outputs[1]
    report_line(
        10, ok, f"{len(outputs[0])} CSV files byte-identical after dropping timing columns"
    )


def test_criterion_10_pinned_iteration_counts():
    # the behaviour contract: exact per-repeat counts and stop reasons under the
    # master seed; a change that moves any of them must say so and re-pin them
    pinned = {
        "madbcd_b0.1": [14, 12, 12],
        "fbcd": [53, 45, 52],
        "cd": [314, 280, 312],
        "mrbgs": [20, 20, 20],
        "cs-madbcd_b0.3_d4n": [23, 26, 28],
    }
    _, reports = run_experiment(ExperimentConfig.from_dict(DETERMINISM_CONFIG))
    got = {label: [r.iterations for r in runs] for label, runs in reports.items()}
    reasons = {r.stop_reason for runs in reports.values() for r in runs}
    ok = got == pinned and reasons == {"converged: rse threshold"}
    report_line(10, ok, f"per-repeat iteration counts {got}, stop reasons {sorted(reasons)}")


def test_pinned_sparse_iteration_counts():
    # the CSC kernels' share of the behaviour contract: the dense problem above
    # never runs them
    config = {
        "label": "sparse-determinism",
        "problem": {"kind": "sparse-gaussian", "m": 2000, "n": 100, "density": 0.05},
        "methods": [
            {"method": "madbcd", "beta": 0.2},
            {"method": "fbcd"},
            {"method": "mrbgs"},
            {"method": "cs-madbcd", "beta": 0.3, "d_factor": 4},
        ],
        "stopping": {"rse_threshold": 1e-6, "max_iterations": 50000},
        "repeats": 3,
        "master_seed": MASTER_SEED,
    }
    pinned = {
        "madbcd_b0.2": [12, 12, 13],
        "fbcd": [36, 37, 36],
        "mrbgs": [14, 14, 15],
        "cs-madbcd_b0.3_d4n": [18, 22, 19],
    }
    _, reports = run_experiment(ExperimentConfig.from_dict(config))
    got = {label: [r.iterations for r in runs] for label, runs in reports.items()}
    reasons = {r.stop_reason for runs in reports.values() for r in runs}
    assert got == pinned
    assert reasons == {"converged: rse threshold"}


def test_criterion_11_matrix_market_round_trip(tmp_path):
    exact = 0
    for seed in range(20):
        _, _, sp = random_sparse(25, 9, 0.3, seed=seed)
        path = tmp_path / f"m{seed}.mtx"
        write_matrix_market(path, sp)
        back = read_matrix_market(path)
        if (
            np.array_equal(back.indptr, sp.indptr)
            and np.array_equal(back.row_indices, sp.row_indices)
            and np.array_equal(back.values, sp.values)
        ):
            exact += 1
    # wide synthetic matrix ingested transposed, as with the rail-style problems
    rng = np.random.default_rng(MASTER_SEED + 11)
    wide = rng.standard_normal((30, 200))
    wide[rng.random((30, 200)) > 0.08] = 0.0
    wide[0, :] = 1.0
    from blockcd import SparseMatrixCSC

    path = tmp_path / "wide.mtx"
    write_matrix_market(path, SparseMatrixCSC.from_dense(wide))
    tall = read_matrix_market(path, transpose=True)
    transposed_ok = tall.shape == (200, 30) and np.allclose(tall.to_dense(), wide.T)
    ok = exact == 20 and transposed_ok
    report_line(
        11, ok, f"{exact}/20 exact pattern+value round-trips, transpose flag verified"
    )


def test_criterion_tomography_qualitative():
    # substitute criterion for the pixel-exact reconstructions: equal 10-second
    # budgets, adaptive momentum must be at least as accurate on every seed
    results = []
    for seed in (0, 1):
        prob = gen_tomography(32, phantom="blocks", seed=seed)
        stop = StoppingRule(rse_threshold=1e-10, max_iterations=10**9, time_budget_s=10.0)
        rse_m = run_solver(prob, MethodParams("madbcd", 0.5), stop).records[-1].rse
        rse_f = run_solver(prob, MethodParams("fbcd"), stop).records[-1].rse
        results.append((seed, rse_m, rse_f))
    ok = all(rse_m <= rse_f for _, rse_m, rse_f in results)
    detail = ", ".join(
        f"seed {s}: madbcd {rm:.2e} <= fbcd {rf:.2e}" for s, rm, rf in results
    )
    report_line("T (tomography, qualitative)", ok, detail)
