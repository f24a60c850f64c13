"""Every annotation in the package resolves.

Modules that only annotate with another module's types import it under
`if TYPE_CHECKING:`, so that it is not loaded at run time (the batch path
never loads tree).  typing.get_type_hints must still resolve each name,
given what those blocks import.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import typing

import pytest

import treebound

MODULES = sorted(m.name for m in pkgutil.iter_modules(treebound.__path__))


def _type_checking_names(module) -> dict:
    """The names a module binds only under `if TYPE_CHECKING:`."""
    body = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8")).body
    names: dict = {}
    for node in body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            code = compile(ast.Module(node.body, type_ignores=[]), module.__file__, "exec")
            exec(code, {"__name__": module.__name__, "__package__": module.__package__}, names)
    return names


def _annotated(module) -> list:
    """The functions and classes a module defines, with their methods."""
    out = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append(obj)
        elif inspect.isclass(obj):
            out.append(obj)
            out += [f for f in vars(obj).values() if inspect.isfunction(f)]
    return out


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(f"treebound.{name}")
    namespace = {**vars(module), **_type_checking_names(module)}
    objs = _annotated(module)
    assert objs
    for obj in objs:
        typing.get_type_hints(obj, globalns=namespace)
