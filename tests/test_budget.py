"""The src line budget, the import footprint and the one error model: the
engine stays small enough to read in one sitting, importing it loads little
of the standard library, and each kind of error is one class in one module."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import triform
from triform.errors import TriformError

SRC_BUDGET = 4000
SRC = Path(__file__).resolve().parent.parent / "src"
# standard-library modules a start-up must not pay for: dataclasses pulls in inspect, ast,
# dis and tokenize, and json is loaded only to write or parse a structured report
UNWANTED_AT_IMPORT = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")


def test_src_within_the_line_budget():
    """src/triform/*.py holds at most SRC_BUDGET lines in all."""
    lines = sum(len(path.read_text().splitlines()) for path in (SRC / "triform").glob("*.py"))
    assert lines <= SRC_BUDGET, f"src/triform is {lines} lines, over the {SRC_BUDGET}-line budget"


def test_every_exception_class_is_in_errors():
    """Each exception class a triform module defines is defined in
    triform.errors and derives from TriformError."""
    for info in pkgutil.iter_modules(triform.__path__, "triform."):
        if info.name == "triform.__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == info.name:
                assert info.name == "triform.errors", f"{info.name}.{obj.__name__} is defined outside triform.errors"
                assert issubclass(obj, TriformError), f"{obj.__name__} does not derive from TriformError"


@pytest.mark.parametrize("module", ["triform.verifier", "triform.cli"])
def test_import_footprint(module):
    """Importing the module in a fresh interpreter adds none of UNWANTED_AT_IMPORT to
    sys.modules; what the interpreter loaded before the import (a site that preloads
    some of them) is not counted."""
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        "before = set(sys.modules)",
        f"import {module}",
        f"print(sorted(set({UNWANTED_AT_IMPORT!r}) & (set(sys.modules) - before)))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", f"import {module} loads {proc.stdout.strip()}"
