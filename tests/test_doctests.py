"""The examples in the source docstrings, run as tests."""

import doctest
import importlib
import pkgutil

import spreadpoly

MODULES = [
    importlib.import_module(f"spreadpoly.{info.name}")
    for info in pkgutil.iter_modules(spreadpoly.__path__)
]


def test_doctests():
    attempted = {}
    for module in MODULES:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted[module.__name__] = result.attempted
    # Every module known to carry examples still has them, so a doctest
    # cannot vanish unnoticed.
    for name in ("intpoly", "sequences", "factor", "fib"):
        assert attempted[f"spreadpoly.{name}"] > 0, name
