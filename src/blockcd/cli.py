"""Command-line front end.

Subcommands: solve (one method, one problem), bench (a configured suite),
sweep-beta (momentum grid), verify (oracle audit battery), gen (write a
problem bundle).  Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 did not converge (solve only).  A warning raised during a command is printed
to stderr as ``warning: <message>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from .bench import (
    ExperimentConfig,
    beta_sweep_config,
    emit_outputs,
    run_experiment,
    run_summary,
    write_curve_csv,
)
from .matrix import RankDeficiencyError
from .oracle import (
    beta_feasible_max,
    contraction_audit,
    gram_extremal_singular_values,
    run_contraction_bounds,
)
from .problems import PROBLEM_GRAMMAR, build_problem, parse_problem, write_problem_bundle
from .solvers import CS_MADBCD, METHODS, MethodParams, StoppingRule, run_solver

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_NO_CONVERGENCE = 3
MAX_BETA_GRID_POINTS = 1000  # a larger lo:hi:step grid is refused before it is built


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _bounded(convert, within, what: str):
    """An option type: `convert(text)` when `within` holds for it, else a usage
    error naming the option, raised before any problem is built."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:  # not a number of that kind
            pass
        else:
            if within(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


_seed = _bounded(int, lambda v: v >= 0, "a non-negative integer")
_count = _bounded(int, lambda v: v >= 1, "an integer >= 1")
_positive = _bounded(float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0")


def _parse_betas(text: str):
    """'a:b:step' grid or a comma-separated list."""
    if ":" in text:
        try:
            lo, hi, step = (float(p) for p in text.split(":"))
        except ValueError:  # not three parts, or a part that is not a number
            lo = hi = step = math.nan
        bad = not all(map(math.isfinite, (lo, hi, step))) or step <= 0.0 or hi < lo
        if bad or (hi - lo) / step + 1 > MAX_BETA_GRID_POINTS:  # inf on an extreme grid
            raise ValueError(
                f"beta grid {text!r} must be lo:hi:step with finite numbers; "
                f"it needs lo <= hi and step > 0, and at most {MAX_BETA_GRID_POINTS} points"
            )
        # floor: no point above hi; the tolerance keeps a hi reached up to rounding
        count = math.floor((hi - lo) / step * (1 + 1e-12)) + 1
        return [round(lo + i * step, 10) for i in range(count)]
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:  # an empty or non-numeric entry
        raise ValueError(f"beta list {text!r} must be comma-separated numbers, e.g. 0,0.3") from None


def _build_parser() -> _Parser:
    # options that mean the same on every subcommand that takes them
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", required=True, help=PROBLEM_GRAMMAR)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0)
    stop = argparse.ArgumentParser(add_help=False)
    stop.add_argument("--tol", type=_positive, default=StoppingRule.rse_threshold,
                      help="relative solution error threshold")
    stop.add_argument("--max-it", type=_count, default=StoppingRule.max_iterations)

    p = _Parser(prog="blockcd", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[problem, stop, seed],
                        help="run one method on one problem")
    ps.add_argument("--method", default="madbcd", choices=METHODS)
    ps.add_argument("--beta", type=float, default=0.0,
                    help="momentum weight (madbcd / cs-madbcd only)")
    ps.add_argument("--time-budget", type=_positive, default=None)
    ps.add_argument("--d-factor", type=_count, default=None,
                    help="sketch rows as a multiple of n (cs-madbcd only, default 4)")
    ps.add_argument("--out", default=None, help="directory for curve.csv and report.json")
    ps.set_defaults(run=_cmd_solve)

    pb = sub.add_parser("bench", help="run a configured experiment suite")
    pb.add_argument("--config", required=True)
    pb.add_argument("--out", default=None, help="override the config output_dir")
    pb.set_defaults(run=_cmd_bench)

    pw = sub.add_parser("sweep-beta", parents=[problem, stop, seed],
                        help="momentum parameter grid for madbcd")
    pw.add_argument("--betas", default="0:0.9:0.05", help="grid lo:hi:step or comma list")
    pw.add_argument("--repeats", type=_count, default=1)
    pw.add_argument("--out", default=None, help="write the bench output files here")
    pw.set_defaults(run=_cmd_sweep_beta)

    pv = sub.add_parser("verify", parents=[seed], help="run the convergence-theory oracle audits")
    pv.set_defaults(run=_cmd_verify)

    pg = sub.add_parser("gen", parents=[problem, seed], help="write a problem bundle to disk")
    pg.add_argument("--out", required=True)
    pg.set_defaults(run=_cmd_gen)

    return p


def _cmd_solve(args) -> int:
    d_factor = 4 if args.method == CS_MADBCD and args.d_factor is None else args.d_factor
    params = MethodParams(args.method, beta=args.beta, d_factor=d_factor)
    spec = parse_problem(args.problem)
    problem = build_problem(spec, args.seed)
    stop = StoppingRule(
        rse_threshold=args.tol,
        max_iterations=args.max_it,
        time_budget_s=args.time_budget,
    )
    report = run_solver(problem, params, stop, sketch_seed=args.seed + 1)

    final = report.records[-1]
    rse_txt = (
        f"rse={final.rse:.3e}" if final.rse is not None
        else f"grad={final.normal_residual:.3e}"
    )
    print(
        f"{report.method} on {report.problem_label}: {report.stop_reason} after "
        f"{report.iterations} iterations ({rse_txt}, "
        f"{report.prep_seconds + report.solve_seconds:.4f} s)"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_curve_csv(os.path.join(args.out, "curve.csv"), report.records)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump({"method": report.method, **run_summary(report)}, fh, indent=2)
            fh.write("\n")
        if spec["kind"] == "tomography":
            side = spec["grid_side"]
            grid = report.x_final.reshape(side, side)
            np.savetxt(os.path.join(args.out, "reconstruction.txt"), grid, fmt="%.10g")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _run_suite(config: ExperimentConfig, out: str | None) -> int:
    """Run a suite, print one line per summary row, and write its outputs under `out`."""
    rows, reports = run_experiment(config)
    for row in rows:
        speed = f" speedup={row.speedup_vs_madbcd:.2f}" if row.speedup_vs_madbcd else ""
        print(
            f"{row.label}: IT={row.mean_it:.1f} total={row.mean_total_s:.4f}s "
            f"converged {row.n_converged}/{row.repeats}{speed}"
        )
    if out is not None:
        written = emit_outputs(rows, reports, replace(config, output_dir=out))
        print(f"wrote {len(written)} files under {out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    return _run_suite(config, args.out or config.output_dir)


def _cmd_sweep_beta(args) -> int:
    stop = StoppingRule(rse_threshold=args.tol, max_iterations=args.max_it)
    config = beta_sweep_config(
        parse_problem(args.problem), _parse_betas(args.betas), stop,
        master_seed=args.seed, repeats=args.repeats,
    )
    return _run_suite(config, args.out)


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
        y = A.matvec(x)
        ax = float(np.dot(y, y))
        nx = float(np.dot(x, x))
        ok &= smin**2 * nx * (1 - 1e-9) <= ax <= smax**2 * nx * (1 + 1e-9)
    check("singular-value sandwich", ok, f"sigma=[{smin:.3f}, {smax:.3f}]")

    # per-step contraction at beta=0
    violations = 0
    for _ in range(10):
        prob = build_problem({"kind": "gaussian", "m": 40, "n": 10}, int(rng.integers(2**31)))
        report = run_solver(
            prob,
            MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=1e-10, max_iterations=5000),
            record_history=True,
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
        record_history=True,
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
    problem = build_problem(parse_problem(args.problem), args.seed)
    write_problem_bundle(args.out, problem)
    print(f"wrote {problem.label} ({problem.A.rows}x{problem.A.cols}) to {args.out}")
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as the CLI prints an error: the message, not the library line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.run(args)
        except (RankDeficiencyError, RuntimeError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except (ValueError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
