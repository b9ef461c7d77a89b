"""The package namespace: what ``spacing_lab`` exports by name."""

import inspect

import spacing_lab
from spacing_lab import fredholm, painleve

# each removed name with the module that held it
REMOVED = ((fredholm, "GapProfile"), (painleve, "extend_series"))


def _public_names():
    return {name for name, value in vars(spacing_lab).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def test_all_lists_every_public_name():
    assert len(spacing_lab.__all__) == len(set(spacing_lab.__all__))
    assert set(spacing_lab.__all__) == _public_names() | {"__version__"}
    for name in spacing_lab.__all__:
        assert getattr(spacing_lab, name) is not None


def test_star_import():
    namespace = {}
    exec("from spacing_lab import *", namespace)
    assert set(spacing_lab.__all__) <= namespace.keys()


def test_removed_names_are_absent():
    for module, name in REMOVED:
        assert not hasattr(module, name)
        assert not hasattr(spacing_lab, name)
        assert name not in spacing_lab.__all__
