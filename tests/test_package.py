import types

import blockcd
from blockcd import bench, matrix, oracle, problems, sketch, solvers

MODULES = (matrix, oracle, problems, sketch, solvers, bench)


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
