"""The shipped configs' behaviour contract: per-run iteration counts and stop reasons.

`configs/contract/runs.json` maps each config in `configs/` (by file stem)
to its cells, and each cell to its repeats' iteration counts and stop
reasons, as `blockcd bench` records them in `manifest.json`.  Curve values
stay out: their last bits may differ between BLAS builds.  `check` also
reads back each cell's `curves/<label>.csv`, which must have the columns
`read_curve_csv` reads and one row per iterate of the cell's first repeat
(its iterations + 1, k=0 included), and refuses a curve file of no cell.
With each config's bench output in OUT/<stem>
(`blockcd bench --config configs/<stem>.json --out OUT/<stem>`):

    python scripts/contract.py check OUT   # name every differing run or curve; exit 1 if any
    python scripts/contract.py write OUT   # regenerate the contract from OUT

A change that moves counts on purpose regenerates the file, so its diff
shows the moved runs.
"""

import json
import pathlib
import sys

from blockcd import read_curve_csv

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
CONTRACT = CONFIGS / "contract" / "runs.json"
FIELDS = ("iterations", "stop_reason")


def manifest_runs(out: pathlib.Path) -> dict:
    """Each config's manifest `runs` under `out`, keyed by config stem."""
    return {
        config.stem: json.loads((out / config.stem / "manifest.json").read_text())["runs"]
        for config in sorted(CONFIGS.glob("*.json"))
    }


def observed(runs: dict) -> dict:
    """The contract's fields of every run, keyed as the contract is."""
    return {
        stem: {
            label: [{f: run[f] for f in FIELDS} for run in repeats]
            for label, repeats in cells.items()
        }
        for stem, cells in runs.items()
    }


def differences(want: dict, got: dict) -> list[str]:
    """One line per run whose fields differ, or that only one side has."""
    lines = []
    for stem in sorted(want.keys() | got.keys()):
        cells_w, cells_g = want.get(stem, {}), got.get(stem, {})
        for label in sorted(cells_w.keys() | cells_g.keys()):
            runs_w, runs_g = cells_w.get(label, []), cells_g.get(label, [])
            for i in range(max(len(runs_w), len(runs_g))):
                w = runs_w[i] if i < len(runs_w) else None
                g = runs_g[i] if i < len(runs_g) else None
                if w != g:
                    lines.append(f"{stem} {label} repeat {i}: contract {w}, run {g}")
    return lines


def curve_errors(out: pathlib.Path, runs: dict) -> list[str]:
    """One line per cell whose curve is missing, does not read back (other
    columns, or a cell of the wrong type) or has a row count other than its
    first repeat's iterations + 1, and per curve file of no cell."""
    lines = []
    for stem, cells in runs.items():
        curves = out / stem / "curves"
        for label, repeats in sorted(cells.items()):
            path = curves / f"{label}.csv"
            if not path.exists():
                lines.append(f"{stem} {label}: no curve {path.name}")
                continue
            try:
                got = len(read_curve_csv(path))
            except ValueError as exc:
                lines.append(f"{stem} {label}: {exc}")
                continue
            want = repeats[0]["iterations"] + 1
            if got != want:
                lines.append(f"{stem} {label}: curve has {got} rows, want {want}")
        lines += [
            f"{stem} {path.stem}: curve of no cell"
            for path in sorted(curves.glob("*.csv"))
            if path.stem not in cells
        ]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("check", "write"):
        sys.exit(f"usage: {sys.argv[0]} check|write OUT")
    out = pathlib.Path(argv[1])
    runs = manifest_runs(out)
    if argv[0] == "write":
        CONTRACT.write_text(json.dumps(observed(runs), indent=2, sort_keys=True) + "\n")
        return 0
    lines = differences(json.loads(CONTRACT.read_text()), observed(runs)) + curve_errors(out, runs)
    print("\n".join(lines) or f"every run matches {CONTRACT.name}, with a curve per cell")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
