"""The examples in the docstrings of every ehpcalc module run and pass."""
import doctest
import importlib
import pkgutil

import pytest

import ehpcalc

MODULES = ["ehpcalc"] + sorted(m.name for m in pkgutil.iter_modules(ehpcalc.__path__, "ehpcalc."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
