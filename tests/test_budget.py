"""The src line budget and the one error model: the engine stays small enough
to read in one sitting, and each kind of error is one class in one module."""

import importlib
import pkgutil
from pathlib import Path

import triform
from triform.errors import TriformError

SRC_BUDGET = 4000


def test_src_within_the_line_budget():
    """src/triform/*.py holds at most SRC_BUDGET lines in all."""
    src = Path(__file__).resolve().parent.parent / "src" / "triform"
    lines = sum(len(path.read_text().splitlines()) for path in src.glob("*.py"))
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
