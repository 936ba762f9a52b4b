"""Every name a package exports through ``__all__`` resolves.

A deleted function whose re-export stays behind breaks
``from repro.<package> import *`` only for the caller who tries it;
this test fails first.
"""

from __future__ import annotations

import importlib
import os

import pytest

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

PACKAGES = ["repro"] + sorted(
    f"repro.{name}"
    for name in os.listdir(SRC_ROOT)
    if os.path.isfile(os.path.join(SRC_ROOT, name, "__init__.py"))
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names undefined attributes: {missing}"
