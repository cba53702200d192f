"""numpy, bound lazily: the package's one numpy import.

``np`` is executed on its first attribute access.  No CLI experiment uses
an array, so an ``nbl-lab`` process never pays for loading numpy; the wave
and array API does.  After that access it is the plain numpy module.  A
numpy already in ``sys.modules`` is used as it is.  A test runs all five
experiments with numpy blocked and compares their reports with the goldens;
the array functions they stand in for are their oracles in the tests.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
