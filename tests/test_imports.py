"""Every import between the package's own modules runs one way.

What several modules share (the --distsum modes, the exit codes, the
exception base Error, the CLI output helpers) lives in the package's
__init__, which imports none of them.  A function-local import is an edge
of the graph as much as a top-level one: it only runs later.
"""

import ast
import pathlib

import treebound

SOURCES = {path.stem: path for path in pathlib.Path(treebound.__file__).parent.glob("*.py")}


def _syntax(name: str) -> ast.Module:
    return ast.parse(SOURCES[name].read_text(encoding="utf-8"))


def _imports(name: str) -> set:
    """The package modules that module `name` imports by `from .`, at any
    depth; `from . import X` of a name that is not a module imports
    __init__."""
    out = set()
    for node in ast.walk(_syntax(name)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name if a.name in SOURCES else "__init__" for a in node.names)
    return out


def _cycle(graph: dict) -> list | None:
    """One cycle of the directed graph, as the nodes along it with the first
    repeated at the end, or None if it has none."""
    done, path = set(), []

    def visit(u):
        path.append(u)
        for v in sorted(graph.get(u, ())):
            if v in path:
                return path[path.index(v):] + [v]
            if v not in done and (found := visit(v)):
                return found
        done.add(path.pop())
        return None

    for u in sorted(graph):
        if u not in done and (found := visit(u)):
            return found
    return None


def test_cycle_finder_finds_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_package_imports_are_acyclic():
    graph = {name: _imports(name) for name in SOURCES}
    assert graph["__init__"] == set()
    # function-local edges: cli loads each subcommand module, and tree the
    # peel engine, only where it runs
    assert {"batchcli", "treecli"} <= graph["cli"] and "batch" in graph["tree"]
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_no_import_under_type_checking():
    # an import that runs only for the type checker hides an edge of the graph
    for name in SOURCES:
        tests = [ast.unparse(node.test) for node in ast.walk(_syntax(name))
                 if isinstance(node, ast.If)]
        assert not [t for t in tests if t.endswith("TYPE_CHECKING")], name
