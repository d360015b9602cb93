"""The docstring examples of the library modules run and pass."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", ["groups", "algebra", "complexes", "linalg", "formal"])
def test_docstring_examples_pass(name):
    module = importlib.import_module("goldman." + name)
    failed, attempted = doctest.testmod(module)
    assert attempted > 0
    assert failed == 0
