"""The src line budget: the engine stays small enough to read in one sitting."""

from pathlib import Path

SRC_BUDGET = 4000


def test_src_within_the_line_budget():
    """src/triform/*.py holds at most SRC_BUDGET lines in all."""
    src = Path(__file__).resolve().parent.parent / "src" / "triform"
    lines = sum(len(path.read_text().splitlines()) for path in src.glob("*.py"))
    assert lines <= SRC_BUDGET, f"src/triform is {lines} lines, over the {SRC_BUDGET}-line budget"
