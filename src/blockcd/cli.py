"""Command-line front end.

Subcommands: solve (one method, one problem), bench (a configured suite),
sweep-beta (momentum grid), verify (oracle audit battery), gen (write a
problem bundle).  Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 did not converge (solve only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import (
    ExperimentConfig,
    MethodSpec,
    build_problem,
    emit_outputs,
    run_cell,
    run_experiment,
    sweep_beta,
    write_curve_csv,
)
from .oracle import (
    RankDeficiencyError,
    beta_feasible_max,
    contraction_audit,
    gram_extremal_singular_values,
    run_contraction_bounds,
)
from .problems import write_problem_bundle
from .solvers import MethodParams, StoppingRule, run_solver

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_problem(text: str) -> dict:
    """'gaussian:M:N', 'sparse:M:N:DENSITY', 'tomo:N[:phantom]', a Matrix
    Market file ('path.mtx', or 'path.mtx:T' to transpose), or a bundle dir."""
    if os.path.isdir(text):
        return {"kind": "bundle", "path": text}
    transpose = text.endswith(":T")
    mtx_path = text[:-2] if transpose else text
    if mtx_path.endswith(".mtx") and os.path.isfile(mtx_path):
        return {"kind": "mtx", "path": mtx_path, "transpose": transpose}
    parts = text.split(":")
    try:
        if parts[0] == "gaussian" and len(parts) == 3:
            return {"kind": "gaussian", "m": int(parts[1]), "n": int(parts[2])}
        if parts[0] == "sparse" and len(parts) == 4:
            return {
                "kind": "sparse-gaussian",
                "m": int(parts[1]),
                "n": int(parts[2]),
                "density": float(parts[3]),
            }
        if parts[0] == "tomo" and len(parts) in (2, 3):
            spec = {"kind": "tomography", "grid_side": int(parts[1])}
            if len(parts) == 3:
                spec["phantom"] = parts[2]
            return spec
    except ValueError:
        pass
    raise ValueError(
        f"cannot parse problem spec {text!r}: expected gaussian:M:N, "
        "sparse:M:N:DENSITY, tomo:N[:phantom], a .mtx file (append ':T' to "
        "transpose), or a bundle directory"
    )


def _parse_betas(text: str):
    """'a:b:step' grid or a comma-separated list."""
    if ":" in text:
        lo, hi, step = (float(p) for p in text.split(":"))
        count = int(round((hi - lo) / step)) + 1
        return [round(lo + i * step, 10) for i in range(count)]
    return [float(p) for p in text.split(",")]


def _build_parser() -> _Parser:
    p = _Parser(prog="blockcd", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run one method on one problem")
    ps.add_argument(
        "--problem", required=True,
        help="gaussian:M:N | sparse:M:N:D | tomo:N[:phantom] | file.mtx[:T] | bundle dir",
    )
    ps.add_argument("--method", default="madbcd",
                    choices=["cd", "fbcd", "mrbgs", "madbcd", "cs-madbcd"])
    ps.add_argument("--beta", type=float, default=None,
                    help="momentum weight (madbcd / cs-madbcd only)")
    ps.add_argument("--tol", type=float, default=1e-6, help="relative solution error threshold")
    ps.add_argument("--max-it", type=int, default=100000)
    ps.add_argument("--time-budget", type=float, default=None)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--d-factor", type=int, default=4, help="sketch rows as a multiple of n")
    ps.add_argument("--out", default=None, help="directory for curve.csv and report.json")

    pb = sub.add_parser("bench", help="run a configured experiment suite")
    pb.add_argument("--config", required=True)
    pb.add_argument("--out", default=None, help="override the config output_dir")
    pb.add_argument("--parallel", action="store_true",
                    help="run cells on worker threads (timing comparisons become unfair)")

    pw = sub.add_parser("sweep-beta", help="momentum parameter grid for madbcd")
    pw.add_argument("--problem", required=True)
    pw.add_argument("--betas", default="0:0.9:0.05", help="grid lo:hi:step or comma list")
    pw.add_argument("--tol", type=float, default=1e-6)
    pw.add_argument("--max-it", type=int, default=100000)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--repeats", type=int, default=1)
    pw.add_argument("--out", default=None, help="write beta_sweep.csv here")

    pv = sub.add_parser("verify", help="run the convergence-theory oracle audits")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--instances", type=int, default=10)

    pg = sub.add_parser("gen", help="write a problem bundle to disk")
    pg.add_argument("--problem", required=True)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", required=True)

    return p


def _cmd_solve(args) -> int:
    spec = _parse_problem(args.problem)
    problem = build_problem(spec, args.seed)
    stop = StoppingRule(
        rse_threshold=args.tol,
        max_iterations=args.max_it,
        time_budget_s=args.time_budget,
    )
    cell = MethodSpec(
        args.method,
        beta=args.beta or 0.0,
        d_factor=args.d_factor if args.method == "cs-madbcd" else None,
    )
    report = run_cell(problem, cell, stop, sketch_seed=args.seed + 1)

    final = report.records[-1]
    rse_txt = f"rse={final.rse:.3e}" if final.rse is not None else f"grad={final.grad_norm:.3e}"
    print(
        f"{report.method} on {report.problem_label}: {report.stop_reason} after "
        f"{report.iterations} iterations ({rse_txt}, "
        f"{report.prep_seconds + report.solve_seconds:.4f} s)"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_curve_csv(os.path.join(args.out, "curve.csv"), report.records)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "method": report.method,
                    "problem": report.problem_label,
                    "iterations": report.iterations,
                    "converged": report.converged,
                    "stop_reason": report.stop_reason,
                    "prep_seconds": report.prep_seconds,
                    "solve_seconds": report.solve_seconds,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        if problem.provenance.get("generator") == "tomography":
            side = problem.provenance["grid_side"]
            grid = report.x_final.reshape(side, side)
            np.savetxt(os.path.join(args.out, "reconstruction.txt"), grid, fmt="%.10g")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        base = json.load(fh)
    if args.out:
        base["output_dir"] = args.out
    if args.parallel:
        base["serial_timing"] = False
    config = ExperimentConfig.from_dict(base)
    rows, reports = run_experiment(config)
    written = emit_outputs(rows, reports, config.output_dir, config)
    for row in rows:
        speed = f" speedup={row.speedup_vs_madbcd:.2f}" if row.speedup_vs_madbcd else ""
        print(
            f"{row.label}: IT={row.mean_it:.1f} total={row.mean_total_s:.4f}s "
            f"converged {row.n_converged}/{row.repeats}{speed}"
        )
    print(f"wrote {len(written)} files under {config.output_dir}")
    return EXIT_OK


def _cmd_sweep_beta(args) -> int:
    spec = _parse_problem(args.problem)
    stop = StoppingRule(rse_threshold=args.tol, max_iterations=args.max_it)
    grid = _parse_betas(args.betas)
    rows = sweep_beta(spec, grid, stop, master_seed=args.seed, repeats=args.repeats)
    for row in rows:
        print(
            f"beta={row['beta']:.2f}: IT={row['mean_it']:.1f} "
            f"solve={row['mean_solve_s']:.4f}s converged {row['n_converged']}/{args.repeats}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "beta_sweep.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("beta,mean_it,mean_solve_s,n_converged\n")
            for row in rows:
                fh.write(
                    f"{row['beta']!r},{row['mean_it']!r},"
                    f"{row['mean_solve_s']!r},{row['n_converged']}\n"
                )
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        failures += 0 if ok else 1

    # singular-value sandwich on a random instance
    A = build_problem({"kind": "gaussian", "m": 40, "n": 8}, int(rng.integers(2**31))).A
    smin, smax = gram_extremal_singular_values(A)
    ok = True
    for _ in range(100):
        x = rng.standard_normal(8)
        ax = float(np.dot(A.matvec(x), A.matvec(x)))
        nx = float(np.dot(x, x))
        ok &= smin**2 * nx * (1 - 1e-9) <= ax <= smax**2 * nx * (1 + 1e-9)
    check("singular-value sandwich", ok, f"sigma=[{smin:.3f}, {smax:.3f}]")

    # per-step contraction at beta=0
    violations = 0
    for _ in range(args.instances):
        prob = build_problem({"kind": "gaussian", "m": 40, "n": 10}, int(rng.integers(2**31)))
        report = run_solver(
            prob,
            MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=1e-10, max_iterations=5000),
            record_iterates=True,
            record_blocks=True,
        )
        violations += len(contraction_audit(report, prob.A, prob.x_star))
    check("per-step contraction (beta=0)", violations == 0, f"{violations} violations")

    # momentum feasibility bracketing
    ok = True
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 1.0))
        bmax = beta_feasible_max(alpha)
        lo = 4 * (bmax - 1e-6) ** 2 + (4 - 3 * alpha) * (bmax - 1e-6) - alpha
        hi = 4 * (bmax + 1e-6) ** 2 + (4 - 3 * alpha) * (bmax + 1e-6) - alpha
        ok &= lo < 0.0 < hi
    check("feasible momentum bracketing", ok)

    # momentum-run feasibility report (informational gamma check)
    prob = build_problem({"kind": "gaussian", "m": 60, "n": 12}, int(rng.integers(2**31)))
    report = run_solver(
        prob,
        MethodParams("madbcd", 0.3),
        StoppingRule(rse_threshold=1e-10, max_iterations=5000),
        record_blocks=True,
    )
    worst = min(run_contraction_bounds(report, prob.A), key=lambda tb: tb.alpha)
    if worst.feasible:
        check("momentum run within contraction hypothesis", True,
              f"gamma1+gamma2={worst.gamma1 + worst.gamma2:.3f}")
    else:
        print(
            f"NOTE momentum run outside contraction hypothesis "
            f"(gamma1+gamma2={worst.gamma1 + worst.gamma2:.3f}); bound not applicable"
        )

    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def _cmd_gen(args) -> int:
    spec = _parse_problem(args.problem)
    problem = build_problem(spec, args.seed)
    write_problem_bundle(args.out, problem)
    print(f"wrote {problem.label} ({problem.A.rows}x{problem.A.cols}) to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "sweep-beta":
            return _cmd_sweep_beta(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gen":
            return _cmd_gen(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        if isinstance(exc, RankDeficiencyError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
