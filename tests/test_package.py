import re
import types
from pathlib import Path

import numpy as np

import blockcd
from blockcd import bench, matrix, oracle, problems, sketch, solvers
from blockcd.bench import CURVE_COLUMNS

MODULES = (matrix, oracle, problems, sketch, solvers, bench)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_each_public_name_is_declared_once_in_a_module_all():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)), "a name is listed in two modules' __all__"
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"
    # submodules (cli too, once something imports it) are attributes, not exports
    exported = {
        name
        for name in dir(blockcd)
        if not name.startswith("_") and not isinstance(getattr(blockcd, name), types.ModuleType)
    }
    assert exported == set(listed)


def test_readme_library_example_runs_and_its_cs_madbcd_forms_agree_bit_for_bit():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", library, re.S)
    namespace = {}
    exec(compile(code, "README.md, section Library", "exec"), namespace)
    fast, same = namespace["fast"], namespace["same"]
    assert fast.converged and fast.iterations == same.iterations
    assert np.array_equal(fast.x_final, same.x_final)
    # its step-by-step replay is the run capped at five steps
    stop = blockcd.StoppingRule(rse_threshold=None, max_iterations=5)
    capped = blockcd.run_solver(namespace["problem"], blockcd.MethodParams("madbcd"), stop)
    assert np.array_equal(namespace["x"], capped.x_final)


def test_readme_curve_header_is_curve_columns():
    readme = README.read_text(encoding="utf-8")
    (header,) = re.findall(r"`curves/<method>\.csv`\s+\(`([^`]*)`", readme)
    assert header == ",".join(CURVE_COLUMNS)
