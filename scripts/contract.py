"""The shipped configs' behaviour contract: per-run iteration counts and stop reasons.

`configs/contract/runs.json` maps each config in `configs/` (by file stem)
to its cells, and each cell to its repeats' iteration counts and stop
reasons, as `blockcd bench` records them in `manifest.json`.  Curves stay
out: their last bits may differ between BLAS builds.  With each config's
bench output in OUT/<stem> (`blockcd bench --config configs/<stem>.json
--out OUT/<stem>`):

    python scripts/contract.py check OUT   # name every differing run; exit 1 if any
    python scripts/contract.py write OUT   # regenerate the contract from OUT

A change that moves counts on purpose regenerates the file, so its diff
shows the moved runs.
"""

import json
import pathlib
import sys

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
CONTRACT = CONFIGS / "contract" / "runs.json"
FIELDS = ("iterations", "stop_reason")


def observed(out: pathlib.Path) -> dict:
    """The contract's fields of every run under `out`, keyed as the contract is."""
    contract = {}
    for config in sorted(CONFIGS.glob("*.json")):
        runs = json.loads((out / config.stem / "manifest.json").read_text())["runs"]
        contract[config.stem] = {
            label: [{f: run[f] for f in FIELDS} for run in repeats]
            for label, repeats in runs.items()
        }
    return contract


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


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("check", "write"):
        sys.exit(f"usage: {sys.argv[0]} check|write OUT")
    got = observed(pathlib.Path(argv[1]))
    if argv[0] == "write":
        CONTRACT.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        return 0
    lines = differences(json.loads(CONTRACT.read_text()), got)
    print("\n".join(lines) or f"every run matches {CONTRACT.name}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
