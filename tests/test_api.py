"""The package's public API is its modules' __all__ lists, which __init__ republishes."""

import importlib

import pytest

import sphere_strichartz

# in the order __init__ imports them
MODULES = ["harmonics", "grids", "spectral", "norms", "experiments", "potential"]


def test_package_all_is_the_module_lists_in_import_order():
    want = [name for m in MODULES
            for name in importlib.import_module(f"sphere_strichartz.{m}").__all__]
    assert sphere_strichartz.__all__ == want
    assert len(set(want)) == len(want)


@pytest.mark.parametrize("m", MODULES)
def test_every_name_resolves_to_its_module_object(m):
    module = importlib.import_module(f"sphere_strichartz.{m}")
    for name in module.__all__:
        assert getattr(sphere_strichartz, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_api():
    namespace = {}
    exec("from sphere_strichartz import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sphere_strichartz.__all__)
