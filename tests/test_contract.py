"""scripts/contract.py, which CI runs on the shipped configs' bench output."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from blockcd import IterationRecord, write_curve_csv
from blockcd.bench import CURVE_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "contract.py"
CONTRACT = json.loads((ROOT / "configs" / "contract" / "runs.json").read_text())


def bench_output(tmp_path, contract):
    """A manifest per config whose runs carry the contract's fields plus timings,
    and a curve per cell with a row per iterate of its first repeat."""
    for stem, cells in contract.items():
        runs = {
            label: [{**run, "converged": True, "solve_seconds": 0.1} for run in repeats]
            for label, repeats in cells.items()
        }
        (tmp_path / stem / "curves").mkdir(parents=True)
        (tmp_path / stem / "manifest.json").write_text(json.dumps({"runs": runs}))
        for label, repeats in cells.items():
            iterates = range(repeats[0]["iterations"] + 1)
            records = [IterationRecord(k, 1.0, 1.0, 1, 0.0) for k in iterates]
            write_curve_csv(tmp_path / stem / "curves" / f"{label}.csv", records)
    return tmp_path


def check(out):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "check", str(out)],
        capture_output=True, text=True, timeout=120,
    )


def test_covers_every_shipped_config():
    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert sorted(CONTRACT) == configs
    assert all(repeats for cells in CONTRACT.values() for repeats in cells.values())


def test_matching_output_passes(tmp_path):
    result = check(bench_output(tmp_path, CONTRACT))
    assert result.returncode == 0, result.stdout


@pytest.mark.parametrize("edit", ["count", "stop reason", "missing repeat"])
def test_one_differing_run_fails_and_is_named(tmp_path, edit):
    contract = json.loads(json.dumps(CONTRACT))
    repeats = contract["table1_desk"]["cd"]
    if edit == "count":
        repeats[7]["iterations"] += 1
    elif edit == "stop reason":
        repeats[7]["stop_reason"] = "max iterations exceeded"
    else:
        del repeats[7:]
    result = check(bench_output(tmp_path, contract))
    assert result.returncode == 1
    assert result.stdout.startswith("table1_desk cd repeat 7: ")
    assert len(result.stdout.splitlines()) == (3 if edit == "missing repeat" else 1)


@pytest.mark.parametrize(
    "edit, named",
    [
        ("missing", "table1_desk cd: no curve cd.csv"),
        ("short", "table1_desk cd: curve has {rows} rows, want {want}"),
        ("stray", "table1_desk cd_b0.2: curve of no cell"),
        ("header", "table1_desk cd: unexpected columns {stale} in {curve}, want {columns}"),
    ],
    ids=["missing", "short", "stray", "header"],
)
def test_missing_short_or_stray_curve_fails_and_is_named(tmp_path, edit, named):
    out = bench_output(tmp_path, CONTRACT)
    curve = out / "table1_desk" / "curves" / "cd.csv"
    want = CONTRACT["table1_desk"]["cd"][0]["iterations"] + 1
    if edit == "missing":
        curve.unlink()
    elif edit == "short":
        curve.write_text("".join(curve.read_text().splitlines(keepends=True)[:-1]))
    elif edit == "stray":
        curve.with_name("cd_b0.2.csv").write_text(curve.read_text())
    else:  # a curve without its last two columns, as an older bench wrote it
        lines = curve.read_text().splitlines(keepends=True)
        curve.write_text("".join(",".join(line.split(",")[:5]) + "\n" for line in lines))
    result = check(out)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        named.format(
            rows=want - 1, want=want, stale=CURVE_COLUMNS[:5], curve=curve, columns=CURVE_COLUMNS
        )
    ]
