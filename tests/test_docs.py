"""The README's Python examples and the module doctests run as written."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import debias

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["debias"] + [f"debias.{m.name}" for m in pkgutil.iter_modules(debias.__path__)]


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0
