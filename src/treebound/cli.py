"""Batch experiment command line.

Subcommands: bound, table1, table2, verify, enumerate, oracle.  This module
holds the parser, main(), run() and the output helpers every run uses; the
batch-side subcommands (table1, verify) and the report renderer live in
batchcli, and the tree-side ones (bound, table2, enumerate, oracle), which
build or read a tree.Tree, in treecli.  A run builds, and loads, only the
subcommand it names: table1 and verify compile batchcli and batch and
neither treecli, bounds, enumeration, tree nor oracle; oracle compiles
treecli, enumeration and tree, and no batch.

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

from . import DIST_SUM_MODES

EXIT_OK = 0
EXIT_HARD = 1
EXIT_MISMATCH = 2


class UsageError(Exception):
    """Unusable flag value or tree source."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError (exit 1), not argparse's
    usage block and exit 2, which would read as a reference mismatch.
    Subparsers inherit the class; --help still exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _note(text: str) -> None:
    sys.stdout.flush()
    sys.stderr.write(text + "\n")


def _json(doc) -> str:
    import json  # only --output json needs it; imported here to keep start-up short

    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *flags: str,
                outputs: tuple[str, ...] = ("text", "csv", "json")) -> None:
    """--output (one of `outputs`) and --distsum, plus those of
    --strict-pseudocode and --cap that `flags` names."""
    p.add_argument("--output", choices=outputs, default="text")
    p.add_argument("--distsum", choices=DIST_SUM_MODES, default="global")
    if "strict-pseudocode" in flags:
        p.add_argument("--strict-pseudocode", action="store_true")
    if "cap" in flags:
        p.add_argument("--cap", type=int)


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


def _errors() -> tuple:
    """The exceptions main() reports as a one-line error, in the modules this
    run loaded: one never loaded cannot have raised, so none loads here."""
    names = ("batch.TreeSizeError", "enumeration.MalformedGraph6Error", "tree.TreeError",
             "oracle.TooLargeError", "oracle.NotGeneratingError")
    found = [(sys.modules.get(f"{__package__}.{m}"), x) for m, x in (n.split(".") for n in names)]
    return (UsageError, OSError, *(getattr(mod, x) for mod, x in found if mod))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        return args.func(args)
    except _errors() as exc:
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
    # batchcli and treecli import this module by name: without this entry,
    # cli.py would run a second time, with a second UsageError class that
    # main() does not catch
    sys.modules[__spec__.name] = sys.modules[__name__]
    run()
