"""Which layers each command loads, and the package's public names.

``import spreadpoly`` loads intpoly, sequences and factor; fib and verify
load on first use.  The import-graph tests run in a fresh interpreter,
since this one has already imported every module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spreadpoly
from spreadpoly import errors, factor, fib, intpoly, sequences, verify

SRC = Path(__file__).resolve().parent.parent / "src"
ON_FIRST_USE = ("spreadpoly.fib", "spreadpoly.verify", "fractions")


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
