"""The layers each module imports and each command loads, and the package's public names.

Each module imports only from the layers below it.  ``import spreadpoly``
loads intpoly, sequences and factor; fib and verify load on first use.
The import-graph tests run in a fresh interpreter, since this one has
already imported every module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spreadpoly
from spreadpoly import errors, factor, fib, intpoly, sequences, verify

SRC = Path(__file__).resolve().parent.parent / "src"
ON_FIRST_USE = ("spreadpoly.fib", "spreadpoly.verify", "fractions")

# errors <- intpoly <- sequences <- {factor, fib} <- verify <- {cli, the package}
LAYERS = {
    "errors": 0,
    "intpoly": 1,
    "sequences": 2,
    "factor": 3,
    "fib": 3,
    "verify": 4,
    "cli": 5,
    "__init__": 5,
}
# fib's unused phi_min import, which perfbench's selftest wraps.
PEER_IMPORTS = {("fib", "factor")}


def imported_modules(path):
    """The spreadpoly modules that a source file imports, also inside functions."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("spreadpoly" if node.level else "", node.module)))
            # "from . import factor" imports the modules it names; "from .errors
            # import X" imports errors.
            names = [f"{module}.{alias.name}" for alias in node.names] if module == "spreadpoly" else [module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "spreadpoly":
                yield parts[1] if len(parts) > 1 else "__init__"


def test_each_module_imports_only_from_the_layers_below_it():
    paths = sorted((SRC / "spreadpoly").glob("*.py"))
    assert {path.stem for path in paths} == set(LAYERS)
    for path in paths:
        for target in imported_modules(path):
            assert (
                LAYERS[target] < LAYERS[path.stem] or (path.stem, target) in PEER_IMPORTS
            ), f"{path.stem} imports {target}"


def test_the_layer_scan_sees_imports_inside_functions():
    # cli imports fib and verify inside the commands that run them.
    assert {"fib", "verify"} <= set(imported_modules(SRC / "spreadpoly" / "cli.py"))
    assert set(imported_modules(SRC / "spreadpoly" / "errors.py")) == set()


def loaded_after(*argv):
    """The modules of ON_FIRST_USE a fresh interpreter holds after importing
    ``spreadpoly.cli`` and, given an argv, running it."""
    code = "\n".join(
        [
            "import contextlib, io, sys",
            "import spreadpoly.cli",
            f"argv = {list(argv)!r}",
            "if argv:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert spreadpoly.cli.main(argv) == 0",
            f"print(*[name for name in {ON_FIRST_USE!r} if name in sys.modules])",
        ]
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPREADPOLY_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "argv",
    [(), ("factor", "12", "--format", "record"), ("show", "Phi", "12", "--route", "fast")],
)
def test_show_and_factor_load_neither_fib_nor_verify(argv):
    assert loaded_after(*argv) == set()


def test_fib_loads_fib_but_not_verify():
    loaded = loaded_after("fib", "12")
    assert "spreadpoly.fib" in loaded
    assert "spreadpoly.verify" not in loaded


def test_every_public_name_is_its_defining_modules_object():
    layers = (errors, intpoly, sequences, factor, fib, verify)
    for name in spreadpoly.__all__:
        value = getattr(spreadpoly, name)
        owners = [module for module in layers if name in vars(module)]
        assert owners, name
        assert all(vars(module)[name] is value for module in owners), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spreadpoly import *", namespace)
    for name in spreadpoly.__all__:
        assert namespace[name] is getattr(spreadpoly, name), name


def test_dir_lists_every_public_name():
    assert set(spreadpoly.__all__) <= set(dir(spreadpoly))


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'spreadpoly' has no attribute 'no_such_name'$"):
        spreadpoly.no_such_name


def test_reading_a_lazy_name_binds_nothing_in_the_package():
    assert spreadpoly.run_suite is verify.run_suite
    assert spreadpoly.fib is fib and spreadpoly.verify is verify
    assert "run_suite" not in vars(spreadpoly)
