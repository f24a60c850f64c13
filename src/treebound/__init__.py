"""Upper bounds on the diameter of Cayley graphs generated by transposition
trees, with an exact BFS oracle for small n, free-tree enumeration, and a
batch experiment CLI.

This module holds what every module and every CLI run shares, since every
run loads it: the --distsum modes, the exit codes, the one exception base
Error, and the output and flag helpers of the subcommand modules (cli,
batchcli, treecli).  It imports no other module of the package, so what
they share puts no cycle in the imports between them."""

import sys

# The cluster tie-break keys (batch._Rooted.pick, tree.clusters, --distsum).
DIST_SUM_MODES = ("global", "pairwise")

EXIT_OK = 0
EXIT_HARD = 1
EXIT_MISMATCH = 2


class Error(Exception):
    """Base of the exceptions the package raises for input it refuses;
    cli.main() reports any of them as one `error:` line and exit 1."""


class UsageError(Error):
    """Unusable flag value or tree source."""


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _note(text: str) -> None:
    sys.stdout.flush()
    sys.stderr.write(text + "\n")


def _json(doc) -> str:
    import json  # only --output json needs it; imported here to keep start-up short

    return json.dumps(doc, indent=2, sort_keys=True)


def _add_common(p, *flags: str, outputs: tuple[str, ...] = ("text", "csv", "json")) -> None:
    """--output (one of `outputs`) and --distsum on the subparser p, plus
    those of --strict-pseudocode and --cap that `flags` names."""
    p.add_argument("--output", choices=outputs, default="text")
    p.add_argument("--distsum", choices=DIST_SUM_MODES, default="global")
    if "strict-pseudocode" in flags:
        p.add_argument("--strict-pseudocode", action="store_true")
    if "cap" in flags:
        p.add_argument("--cap", type=int)
