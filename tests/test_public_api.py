"""Every exported name has a caller outside the tests.

A name in `cpwnn.__all__` must appear as a whole word at least twice across
the library modules (without `__init__.py`), `scripts/` and `perfbench/`:
its definition plus at least one use. A public name that only its own test
calls should go instead.
"""

import re
from pathlib import Path

import pytest

import cpwnn

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    *(p for p in sorted((ROOT / "src" / "cpwnn").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]
TEXT = "\n".join(p.read_text(encoding="utf-8") for p in SOURCES)


@pytest.mark.parametrize("name", [n for n in cpwnn.__all__ if n != "__version__"])
def test_exported_name_has_a_caller(name):
    count = len(re.findall(rf"\b{re.escape(name)}\b", TEXT))
    assert count >= 2, f"{name} appears {count} time(s) outside tests: definition only"
