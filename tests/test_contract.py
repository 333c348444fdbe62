"""scripts/contract.py, which CI runs on the shipped configs' bench output."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "contract.py"
CONTRACT = json.loads((ROOT / "configs" / "contract" / "runs.json").read_text())


def bench_output(tmp_path, contract):
    """A manifest per config whose runs carry the contract's fields plus timings."""
    for stem, cells in contract.items():
        runs = {
            label: [{**run, "converged": True, "solve_seconds": 0.1} for run in repeats]
            for label, repeats in cells.items()
        }
        (tmp_path / stem).mkdir()
        (tmp_path / stem / "manifest.json").write_text(json.dumps({"runs": runs}))
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
