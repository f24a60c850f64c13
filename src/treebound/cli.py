"""Batch experiment command line.

Subcommands: bound, table1, table2, verify, enumerate, oracle.  This module
holds the parser, main() and run(); the batch-side subcommands (table1,
verify) and the report renderer live in batchcli, and the tree-side ones
(bound, table2, enumerate, oracle), which build or read a tree.Tree, in
treecli.  The exit codes, UsageError and the output helpers that all three
use live in the package's __init__, so neither batchcli nor treecli
imports this module.  A run builds, and loads, only the subcommand it
names: table1 and verify compile batchcli and batch and neither treecli,
bounds, enumeration, tree nor oracle; oracle compiles treecli,
enumeration and tree, and no batch.

Stdout is byte-stable given identical flags: wall time goes to stderr only.

Exit codes: 0 when every comparison against the embedded reference tables
matched; 2 when the run completed but some comparisons mismatched (the
reference values themselves include rows known to be unreliable); 1 for
hard failures: soundness violations, invariant breaches, unusable input.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import EXIT_HARD, Error, UsageError, _note


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError (exit 1), not argparse's
    usage block and exit 2, which would read as a reference mismatch.
    Subparsers inherit the class; --help still exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# every subcommand and its help, in help order
_COMMANDS = {
    "bound": "compute bounds for input trees",
    "table1": "cumulative bounds over all free trees",
    "table2": "bounds on full binary trees",
    "verify": "bound vs pinned exact diameter",
    "enumerate": "dump all free trees on n vertices",
    "oracle": "exact diameters with depth profiles",
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of argv: only the subcommand argv[0] names gets a
    subparser (from batchcli for table1 and verify, else from treecli), so
    a run builds and loads no other; when argv names none (none given,
    --help, an unknown name), all six get one."""
    ap = _Parser(
        prog="treebound",
        description="Diameter bounds for Cayley graphs of transposition trees",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, text in _COMMANDS.items():
        if named not in (None, name):
            continue
        if name in ("table1", "verify"):
            from . import batchcli as module
        else:
            from . import treecli as module
        getattr(module, "add_" + name)(sub.add_parser(name, help=text))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        return args.func(args)
    except (Error, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_HARD


def run() -> None:
    """Entry point of the `treebound` script and of `python -m treebound.cli`:
    main() with the cyclic collector off, then exit without the
    interpreter's shutdown collection.

    A run is one batch job whose objects live until it ends, so the
    collections that allocation would set off (numpy's import alone sets
    off dozens) find next to nothing; reference counting still frees all
    that is not in a cycle.  gc.freeze() moves every object the collector
    tracks into its permanent generation, which the collections at
    shutdown skip; the OS reclaims that memory when the process ends.
    stdout and stderr are still flushed and atexit handlers still run.
    main() itself neither disables nor freezes, so in-process callers keep
    their collector as they set it and a collectable heap."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
