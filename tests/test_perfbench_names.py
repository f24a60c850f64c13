"""Every package name perfbench reads must exist.

perfbench (run.py and the traced pass in layers.py) imports treebound
modules and calls into them by attribute.  A name it reads that the
package no longer has fails only when a benchmark runs; this test finds
those reads in perfbench's source and fails at once instead.
"""

import ast
import importlib
import pathlib

from treebound import _bfs_kernels as kern

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# layers.py reads kern.bfs_numba only under kern.HAS_NUMBA, which is False:
# numba is not a dependency, so that kernel is never defined
UNDEFINED_BEHIND_A_FLAG = {("_bfs_kernels", "bfs_numba")}


def _reads(path: pathlib.Path) -> set[tuple[str, str]]:
    # (module, name) for each attribute read on a `from treebound import` alias
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "treebound"
               for a in node.names}
    return {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}


def test_perfbench_reads_only_names_the_package_has():
    reads = set().union(*map(_reads, sorted(PERFBENCH.glob("*.py"))))
    assert {m for m, _ in reads} == {"_bfs_kernels", "bounds", "cli", "enumeration",
                                     "oracle", "tree"}
    missing = sorted(f"treebound.{m}.{name}" for m, name in reads - UNDEFINED_BEHIND_A_FLAG
                     if not hasattr(importlib.import_module(f"treebound.{m}"), name))
    assert missing == []
    # the exemption holds only while the name is read and its flag is off
    assert UNDEFINED_BEHIND_A_FLAG <= reads and not kern.HAS_NUMBA
