"""The package's public names."""

import importlib
import pkgutil

import pytest

import minimaxlb


@pytest.mark.parametrize("name", ["minimaxlb", *(
    f"minimaxlb.{info.name}" for info in pkgutil.iter_modules(minimaxlb.__path__))])
def test_all_names_exist(name):
    # a name left in __all__ after its definition is gone fails only on
    # ``import *``, so check each one here
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
