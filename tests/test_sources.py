"""Every Python file of the project compiles with warnings as errors."""

import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_compiles_without_warnings():
    # A SyntaxWarning, such as an invalid escape sequence that a later
    # Python rejects, fails the first Python version that warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for top in ("src", "tests", "demos", "perfbench"):
            paths = sorted((ROOT / top).rglob("*.py"))
            assert paths, top  # a moved tree would otherwise pass unread
            for path in paths:
                compile(path.read_bytes(), str(path), "exec")
