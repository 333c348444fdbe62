"""blockcd benchmark: time to solution per method cell, and a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense-desk --seed 1 --seconds 30 --trace 0

``--trace 0`` solves the workload's cells in rounds for ``--seconds`` with
nothing wrapped and prints the end-to-end metrics: solve times in units of a
fixed numpy reference pass timed around each solve, with their wall-clock
medians beside them.  ``--trace 1`` runs a fixed amount of work twice in its
own process, untraced and then with blockcd's layer functions wrapped, and
prints the per-layer metrics with the tracing overhead.  Every solve is checked against the instance's reference solution;
any failure makes the exit code 1.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed``, ``metrics``.

BLAS is pinned to one thread before numpy loads: two-thread OpenBLAS makes the
dense gemv timings bimodal on a two-CPU machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_blockcd():
    """Import blockcd from this checkout's ``src``, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "blockcd", "__init__.py")):
        sys.exit(f"error: no blockcd sources under {SRC}")
    sys.path.insert(0, SRC)
    import blockcd

    if os.path.dirname(os.path.abspath(blockcd.__file__)) != os.path.join(SRC, "blockcd"):
        sys.exit(f"error: imported blockcd from {blockcd.__file__}, not from {SRC}")
    return blockcd


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(blockcd) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_pin": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "blockcd": blockcd.__version__,
        "git_commit": _git_commit(),
    }


def _fmt(value, unit: str) -> str:
    return f"{value:.6g} {unit}" if isinstance(value, float) else f"{value} {unit}"


def main(argv=None) -> int:
    blockcd = _import_blockcd()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = harness.WORKLOADS[args.workload]

    print("# environment " + json.dumps(environment(blockcd), sort_keys=True))
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{workload.instances} instances of {json.dumps(workload.problem)}")
    if args.trace:
        traced, ledger = harness.run_traced(workload, args.seed)
        for name, value in sorted(traced.items()):
            print(f"{name}  {_fmt(value, harness.layer_unit(name))}")
        gated = harness.gated_layer_metrics(workload, traced)
        metrics = {name: {"value": v, "unit": harness.layer_unit(name)} for name, v in gated.items()}
    else:
        values, details, ledger = harness.run_end_to_end(workload, args.seed, args.seconds)
        ref = details["reference"]
        print(f"# {details['rounds']} complete rounds in {args.seconds:g} s; a cell's gated time is "
              "the median of solve / reference pass per instance, averaged over instances")
        print(f"# reference pass (numpy A^T(b - Ax), {json.dumps(workload.problem)}): "
              f"median {ref['pooled_median_s']:.6g} s, n={ref['samples']}")
        for cell in [*(c.name for c in workload.cells), "setup"]:
            d = details.get(cell)
            if d is None:
                continue
            tail = f"p{d['tail'][0]} {d['tail'][1]:.6g} s" if d["tail"] else "no tail (<= 10 samples)"
            wall = f"wall median {d['pooled_median_s']:.6g} s, {tail}, n={d['samples']}"
            if cell == "setup":
                print(f"setup_s  {_fmt(values['setup_s'], 's')}  {wall}")
            else:
                name = f"{cell}.time_to_solution"
                print(f"{name}  {_fmt(values[name], 'ref')}  {wall}")
        print(f"suite.time_to_solution  {_fmt(values['suite.time_to_solution'], 'ref')}")
        print(f"iterations  {values['iterations']} count")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in harness.END_TO_END if name in values}

    failed = len(ledger.failures)
    print(f"solves_failed  {failed / ledger.attempted:.6g} fraction ({failed} of {ledger.attempted})")
    for failure in ledger.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
