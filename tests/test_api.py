"""The package's public API is its modules' __all__ lists, which __init__ republishes."""

import ast
import importlib
from pathlib import Path

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


# Functions that nothing else in src/ refers to, and why each stays there.  ROADMAP item 25:
# src/ keeps what a subcommand reaches or README names; reference paths live in tests/oracles.py.
_STAGE_B = "perfbench names it; item 25 stage B moves it after item 1c"
UNREACHED_BUT_KEPT = {
    "potential.contraction_check": "README names it as API",
    "spectral.synthesize_by_degree": _STAGE_B,
    "potential.PotentialSpec.to_json_dict": _STAGE_B,
    "potential.apply_phi": _STAGE_B,
    "potential.duhamel_apply": _STAGE_B,
}


def _functions(node, prefix, in_class=False):
    """(qualified name, def node, is a method) of every function and method under node, nested
    ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child, in_class
            yield from _functions(child, name, isinstance(child, ast.ClassDef))
        else:
            yield from _functions(child, prefix, in_class)


def test_every_function_in_src_is_referenced_from_src():
    # a name or attribute with the function's name, in src/ but outside its own body; a method
    # or property only by an attribute (a local variable of its name does not reach it); dunder
    # methods are called by Python itself
    files = sorted(Path(sphere_strichartz.__file__).parent.glob("*.py"))
    trees = {f.stem: ast.parse(f.read_text()) for f in files}
    refs = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr,
             isinstance(node, ast.Attribute))
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unreached = set()
    for module, tree in trees.items():
        for name, fn, method in _functions(tree, module):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            if not any(ref == fn.name and (attr or not method)
                       and not (where == module and fn.lineno <= line <= fn.end_lineno)
                       for where, line, ref, attr in refs):
                unreached.add(name)
    assert sorted(unreached) == sorted(UNREACHED_BUT_KEPT)


# Defaulted parameters that no call in src/ passes, and why each stays.  The north star's "no
# parameters that nothing reads": a default that src/ never overrides is a constant, and an
# option that only tests set belongs to tests/oracles.py.
_PERFBENCH = "perfbench/workloads.py passes it"
UNPASSED_BUT_KEPT = {
    "experiments.strichartz_ratio(grid)": _PERFBENCH,
    "experiments.strichartz_ratio(tg)": _PERFBENCH,
    "experiments.strichartz_ratio(method)": _PERFBENCH,
    "cli.run(argv)": "tests and perfbench pass it; the console script passes none",
}


def _defaulted(fn, shift):
    """(name, call position or None) of each parameter of fn with a default; a call's
    positional argument i is the parameter i + shift (shift 1 skips a method's self or cls)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - shift
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position):
    """Whether call passes the parameter `name` (at call position `position`, None if keyword
    only): by position, by keyword, or through * (at or before it) or ** unpacking."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred)
                                            for arg in call.args[:position + 1])


def test_every_defaulted_parameter_in_src_is_passed_from_src():
    # a call by the function's name (a method or property only by an attribute, as above);
    # dunder methods are called by Python itself
    files = sorted(Path(sphere_strichartz.__file__).parent.glob("*.py"))
    trees = {f.stem: ast.parse(f.read_text()) for f in files}
    calls = [(node.func.id if isinstance(node.func, ast.Name) else node.func.attr,
              isinstance(node.func, ast.Attribute), node)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))]
    unpassed = set()
    for module, tree in trees.items():
        for name, fn, method in _functions(tree, module):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            for param, position in _defaulted(fn, int(method)):
                if not any(ref == fn.name and (attr or not method)
                           and _passes(call, param, position) for ref, attr, call in calls):
                    unpassed.add(f"{name}({param})")
    assert sorted(unpassed) == sorted(UNPASSED_BUT_KEPT)
