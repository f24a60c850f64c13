"""Every annotation in the package resolves.

Each module imports at its top every module whose types it annotates with
(test_imports holds that no module does so under `if TYPE_CHECKING:`), so
typing.get_type_hints resolves each name in the module's own namespace.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import treebound

MODULES = sorted(m.name for m in pkgutil.iter_modules(treebound.__path__))


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
    objs = _annotated(module)
    assert objs
    for obj in objs:
        typing.get_type_hints(obj, globalns=vars(module))
