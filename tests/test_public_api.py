"""Every exported name and every error type has a caller outside the tests.

A name in `cpwnn.__all__` must appear as a whole word at least twice across
the library modules (without `__init__.py`), `scripts/` and `perfbench/`:
its definition plus at least one use. A public name that only its own test
calls should go instead. The same holds one level down: every public
property or method defined on an exported class must be used as `.name`
somewhere in those sources. Likewise every exception class in `cpwnn.errors`
must be used in code (raised, caught or otherwise named, not only imported
or mentioned in a docstring) by a library module other than `errors.py`,
and every class below the root and its two branches subclasses exactly one
of `DataError` and `ConfigError`, the two that `cli.main` maps to exit codes.
No error class defines a method or stores an attribute: each carries only
its message, written where it is raised.
"""

import ast
import inspect
import re
import types
from pathlib import Path

import pytest

import cpwnn
from cpwnn import errors

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


MEMBERS = [
    f"{cls.__name__}.{attr}"
    for cls in (getattr(cpwnn, n) for n in cpwnn.__all__)
    if inspect.isclass(cls)
    for attr, obj in vars(cls).items()
    if not attr.startswith("_")
    and isinstance(obj, (property, classmethod, staticmethod, types.FunctionType, type))
]


@pytest.mark.parametrize("member", MEMBERS)
def test_exported_class_member_has_a_caller(member):
    attr = member.split(".")[1]
    assert re.search(rf"\.{re.escape(attr)}\b", TEXT), f"{member} is never used outside tests"


LIBRARY_NAMES = {
    node.id
    for path in (ROOT / "src" / "cpwnn").glob("*.py")
    if path.name != "errors.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, ast.Name)
}
ERROR_TYPES = [
    name
    for name, obj in vars(errors).items()
    if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
]


@pytest.mark.parametrize("name", ERROR_TYPES)
def test_error_type_is_used_by_the_library(name):
    assert name in LIBRARY_NAMES, f"{name} is never raised or caught outside errors.py"
    # cli.main maps only these two branches to exit codes; any other class escapes it
    if name not in ("ForecastError", "DataError", "ConfigError"):
        cls = getattr(errors, name)
        branches = [b for b in (errors.DataError, errors.ConfigError) if issubclass(cls, b)]
        assert len(branches) == 1, f"{name} is under {len(branches)} of DataError, ConfigError"


@pytest.mark.parametrize("name", ERROR_TYPES)
def test_error_type_carries_only_its_message(name):
    cls = getattr(errors, name)
    methods = [attr for attr, obj in vars(cls).items() if isinstance(obj, types.FunctionType)]
    assert methods == [], f"{name} defines {', '.join(methods)}"
    assert vars(cls("the message")) == {}, f"{name} stores attributes"
