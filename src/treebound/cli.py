"""Batch experiment command line.

Subcommands: bound, table1, table2, verify, enumerate, oracle.  This module
holds the parser, main(), the report renderer, table1 and verify; the
tree-side subcommands (bound, table2, enumerate, oracle), which build or
read a tree.Tree, live in treecli.  A run builds the arguments of, and
loads, only the subcommand it names: table1 and verify compile batch, and
neither treecli, bounds, enumeration, tree nor oracle.

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
import time
from itertools import chain
from typing import NamedTuple

from . import batch

# golden is imported by the subcommands that use it, so verify does not load it

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


class Comparison(NamedTuple):
    row: str
    column: str
    expected: int
    actual: int
    source: str
    suspect: bool = False

    @property
    def match(self) -> bool:
        return self.expected == self.actual

    def render(self) -> str:
        verdict = "ok" if self.match else "MISMATCH"
        tail = " [suspect row]" if self.suspect and not self.match else ""
        return f"{self.column}={self.expected} {verdict}{tail}"


class ExperimentReport:
    """Rows of one batch experiment, their reference comparisons, and the
    one renderer for its text, csv and json forms.

    `columns` holds (row key, text label) pairs in output order.  The
    first column names a row: comparisons refer to it as "label=value".
    The text form is `header`, one line per row, then `footer`.  A text
    row ends with its comparisons against reference-table cells; any other
    comparison (a derived check) needs a footer line of its own.  `extra`
    holds further top-level keys of the json form.
    """

    def __init__(self, experiment: str, parameters: dict, header: str, columns: list):
        self.experiment = experiment
        self.parameters = parameters
        self.header = header
        self.columns = columns
        self.rows: list = []
        self.comparisons: list = []
        self.footer: list = []
        self.extra: dict = {}

    def row_id(self, row: dict) -> str:
        key, label = self.columns[0]
        return f"{label}={row[key]}"

    def compare(self, row: dict, gold) -> None:
        """Compare the row's bound columns against its reference row, if any."""
        if gold is None:
            return
        for key, _ in self.columns:
            if key in batch.BOUNDS:
                col = batch.BOUNDS[key]
                self.comparisons.append(
                    Comparison(self.row_id(row), col, gold.values[col], row[key],
                               gold.source, gold.suspect)
                )

    def exit_code(self) -> int:
        return EXIT_OK if all(c.match for c in self.comparisons) else EXIT_MISMATCH

    def render(self, fmt: str) -> str:
        if fmt == "json":
            # no wall time anywhere in stdout: it must not vary across runs
            return _json({
                "experiment": self.experiment,
                "parameters": self.parameters,
                "rows": self.rows,
                "comparisons": [{**c._asdict(), "match": c.match} for c in self.comparisons],
                **self.extra,
            })
        by_row: dict[str, list[Comparison]] = {}
        for c in self.comparisons:
            by_row.setdefault(c.row, []).append(c)
        keys = [key for key, _ in self.columns]
        if fmt == "csv":
            lines = [",".join(keys + ["mismatched_columns"])]
            for row in self.rows:
                bad = [c.column for c in by_row.get(self.row_id(row), ()) if not c.match]
                lines.append(",".join([str(row[k]) for k in keys] + [";".join(bad)]))
            return "\n".join(lines)
        lines = [self.header]
        for row in self.rows:
            line = " ".join(f"{label}={row[key]}" for key, label in self.columns)
            comps = [c for c in by_row.get(self.row_id(row), ())
                     if c.column in batch.BOUNDS.values()]
            if comps:
                line += " | recorded " + " ".join(c.render() for c in comps)
            lines.append(line)
        return "\n".join(lines + self.footer)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _note(text: str) -> None:
    sys.stdout.flush()
    sys.stderr.write(text + "\n")


def _json(doc) -> str:
    import json  # only --output json needs it; imported here to keep start-up short

    return json.dumps(doc, indent=2, sort_keys=True)


def _span(lo: int, hi: int, flag: str) -> range:
    """lo..hi inclusive, from the --FLAG-min/--FLAG-max pair; never empty."""
    if lo > hi:
        raise UsageError(f"empty range: --{flag}-min {lo} > --{flag}-max {hi}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# table1

def cmd_table1(args) -> int:
    from . import golden
    names = tuple(batch.BOUNDS) if args.bound == "all" else (args.bound,)
    sizes = _span(args.n_min, args.n_max, "n")
    case2 = "post" if args.strict_pseudocode else "pre"
    report = ExperimentReport(
        "table1",
        {
            "n_min": args.n_min,
            "n_max": args.n_max,
            "bounds": list(names),
            "distsum": args.distsum,
            "case2_diameter": case2,
        },
        header=f"experiment table1 bounds={args.bound} distsum={args.distsum} case2={case2}",
        columns=[("n", "n"), ("trees", "trees")] + [(k, k) for k in names],
    )
    t0 = time.time()
    ordering_ok = True
    totals = {n: dict.fromkeys(("trees", *batch.BOUNDS), 0) for n in sizes}
    # each size's generator is made here, so a size out of range fails
    # before any tree is valued; no tree is built, and none sorted
    seqs = chain.from_iterable([batch._free_level_sequences(n) for n in sizes])
    swept = batch.peel_sweep(seqs, dist_sum_mode=args.distsum,
                             strict_pseudocode=args.strict_pseudocode)
    for seq, _, values in swept:
        sums = totals[len(seq)]
        sums["trees"] += 1
        for name, x in zip(batch.BOUNDS, values):
            sums[name] += x
    for n, sums in totals.items():
        row = {"n": n, "trees": sums["trees"], **{k: sums[k] for k in names}}
        report.rows.append(row)
        if not sums["delta-star"] <= sums["delta-prime-v2"] <= sums["delta-prime-v1"]:
            ordering_ok = False
        report.compare(row, golden.CUMULATIVE.get(n))
    report.footer.append(f"ordering dstar<=v2<=v1: {'ok' if ordering_ok else 'VIOLATED'}")

    _emit(report.render(args.output))
    _note(f"wall-time: {time.time() - t0:.2f}s")
    return report.exit_code() if ordering_ok else EXIT_HARD


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    sizes = _span(args.n_min, args.n_max, "n")
    report = ExperimentReport(
        "verify",
        {"n_min": args.n_min, "n_max": args.n_max, "distsum": args.distsum},
        header=f"experiment verify n={args.n_min}..{args.n_max}",
        columns=[("n", "n"), ("trees", "trees")],
    )
    t0 = time.time()
    seqs = chain.from_iterable([batch._free_level_sequences(n) for n in sizes])
    swept = batch.peel_sweep(seqs, dist_sum_mode=args.distsum)
    pinned = batch.pinned_diameters(sizes)
    # checked before any tree is valued; a canonical code has two bytes per vertex
    missing = set(sizes).difference(len(code) // 2 for code in pinned)
    if missing:
        raise UsageError(f"n={min(missing)} has no pinned exact diameter to verify against")
    counts = dict.fromkeys(sizes, 0)
    histogram: dict[int, int] = {}
    violations = []
    for seq, code, (bound, *_) in swept:  # the main bound, first in batch.BOUNDS
        exact = pinned[code]
        slack = bound - exact
        histogram[slack] = histogram.get(slack, 0) + 1
        if slack < 0:
            from . import enumeration as en
            g6 = en.encode_graph6(en._from_level_sequence(seq))  # the one tree built
            violations.append((g6, bound, exact))
        counts[len(seq)] += 1
    report.rows = [{"n": n, "trees": count} for n, count in counts.items()]
    slacks = sorted(histogram.items())
    report.footer = (
        ["slack,count"]
        + [f"{slack},{cnt}" for slack, cnt in slacks]
        + [f"VIOLATION tree={g6} bound={b} exact={e}" for g6, b, e in violations]
        + [f"violations-total={len(violations)}"]
    )
    report.extra = {
        "slack_histogram": {str(slack): cnt for slack, cnt in slacks},
        "violations": [{"tree": g6, "bound": b, "exact": e} for g6, b, e in violations],
    }

    _emit(report.render(args.output))
    _note(f"exact diameters: {len(pinned)} pinned")
    _note(f"wall-time: {time.time() - t0:.2f}s")
    return EXIT_HARD if violations else EXIT_OK


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *flags: str,
                outputs: tuple[str, ...] = ("text", "csv", "json")) -> None:
    """--output (one of `outputs`) and --distsum, plus those of
    --strict-pseudocode and --cap that `flags` names."""
    p.add_argument("--output", choices=outputs, default="text")
    p.add_argument("--distsum", choices=batch.DIST_SUM_MODES, default="global")
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
    """The parser of argv: only the subcommand argv[0] names gets its
    arguments (here for table1 and verify, else from treecli), so a run
    builds and loads no other; when argv names none (none given, --help,
    an unknown name), every subcommand gets them."""
    ap = _Parser(
        prog="treebound",
        description="Diameter bounds for Cayley graphs of transposition trees",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, text in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if named not in (None, name):
            continue
        if name == "table1":
            p.add_argument("--n-min", type=int, default=6)
            p.add_argument("--n-max", type=int, default=13)
            p.add_argument("--bound", choices=("all", *batch.BOUNDS), default="all")
            p.add_argument("--jobs", type=int, default=0,
                           help="ignored: table1 runs in one process; the flag is kept "
                                "for compatibility")
            _add_common(p, "strict-pseudocode")
            p.set_defaults(func=cmd_table1)
        elif name == "verify":
            p.add_argument("--n-min", type=int, default=3)
            p.add_argument("--n-max", type=int, default=8)
            # --cap is unused (every size verify accepts is pinned); perfbench reads args.cap
            _add_common(p, "cap", outputs=("text", "json"))  # verify has no csv form
            p.set_defaults(func=cmd_verify)
        else:
            from . import treecli
            getattr(treecli, "add_" + name)(p)
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
    main(), then exit without the interpreter's shutdown collection.

    gc.freeze() moves every object the collector tracks into its permanent
    generation, which the collections at shutdown skip; the OS reclaims
    that memory when the process ends.  stdout and stderr are still flushed
    and atexit handlers still run.  main() itself does not freeze, so
    in-process callers keep a collectable heap."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    # treecli imports this module by name: without this entry, cli.py would run
    # a second time, with a second UsageError class that main() does not catch
    sys.modules[__spec__.name] = sys.modules[__name__]
    run()
