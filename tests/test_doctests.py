"""Every docstring example in the package runs as written."""

import doctest
import importlib
import pkgutil

import pytest

import jcalc

MODULES = ["jcalc"] + ["jcalc." + m.name for m in pkgutil.iter_modules(jcalc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    failed, _attempted = doctest.testmod(importlib.import_module(name))
    assert failed == 0
