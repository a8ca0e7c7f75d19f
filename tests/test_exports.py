"""Every exported name resolves.

The public surface is what each module's ``__all__`` lists; a name left
there after its definition is deleted breaks ``from ... import *`` and
hides from anything that walks ``__all__``.
"""

import importlib

import pytest

import tsfrac

MODULES = ("cli", "exprparse", "fraclap", "kernels", "principles", "solver", "timefrac")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"tsfrac.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve():
    missing = [attr for attr in tsfrac.__all__ if not hasattr(tsfrac, attr)]
    assert missing == []
