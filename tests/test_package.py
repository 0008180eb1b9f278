"""The package namespace: every export resolves, the network names on first
use, and no module imports a name it does not use."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import thetadim
from thetadim import graphs
from thetadim import sweep as sweep_function


def test_every_export_resolves_by_getattr():
    for name in thetadim.__all__:
        assert hasattr(thetadim, name), name


def test_every_export_is_defined_by_a_thetadim_module():
    # __all__ is read off the package namespace, so a helper that the
    # package imports from elsewhere would otherwise become an export
    for name in thetadim.__all__:
        value = getattr(thetadim, name)
        if name == "UNREACHABLE":
            assert value is graphs.UNREACHABLE
            continue
        module = getattr(value, "__module__", "")
        assert module.startswith("thetadim."), (name, module)
        assert getattr(sys.modules[module], name) is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from thetadim import *", namespace)
    assert set(thetadim.__all__) <= namespace.keys()
    assert namespace["parse_network"] is thetadim.parse_network


def test_dir_lists_every_export():
    assert set(thetadim.__all__) <= set(dir(thetadim))


def test_network_exports_are_the_network_module_functions():
    network = importlib.import_module("thetadim.network")
    assert thetadim.parse_network is network.parse_network
    assert thetadim.NetworkParseError is network.NetworkParseError
    # cached after the first access, so later lookups are plain dict hits
    assert vars(thetadim)["parse_network"] is network.parse_network


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'thetadim' has no attribute 'no_such_name'$"):
        thetadim.no_such_name  # noqa: B018
    assert not hasattr(thetadim, "no_such_name")


def test_sweep_is_the_function_not_the_submodule():
    assert callable(thetadim.sweep) and thetadim.sweep is sweep_function
    assert thetadim.sweep is importlib.import_module("thetadim.sweep").sweep


MODULES = sorted(path for path in Path(thetadim.__file__).parent.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree):
    """The names that the module-level imports of ``tree`` bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _names_read(tree):
    """The names that ``tree`` reads, those of string annotations included."""
    names, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_read(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    assert sorted(set(_imported_names(tree)) - _names_read(tree)) == []
