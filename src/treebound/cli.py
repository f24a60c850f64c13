"""Batch experiment command line.

Subcommands: bound, table1, table2, verify, enumerate, oracle.

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
from typing import TYPE_CHECKING, NamedTuple

from . import bounds as bd
from . import enumeration as en

if TYPE_CHECKING:
    from . import tree as tr

# golden, oracle and tree are imported by the subcommands that use them, so
# table1 and verify load no module they do not run

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
            if key in bd.BOUNDS:
                col = bd.BOUNDS[key]
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
                     if c.column in bd.BOUNDS.values()]
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


# ---------------------------------------------------------------------------
# tree sources

# --make kind -> parameter count; the constructor is tr.make_<kind>
_MAKE = {"star": 1, "path": 1, "full-binary": 1, "spider": 2, "matchstick": 1}


def _parse_make(spec: str) -> tr.Tree:
    from . import tree as tr
    kind, _, rest = spec.partition(":")
    try:
        params = tuple(int(x) for x in rest.split(",")) if rest else ()
        if len(params) != _MAKE[kind]:
            raise ValueError
    except (KeyError, ValueError):
        raise UsageError(
            f"bad --make spec {spec!r}; expected star:N, path:N, full-binary:D, "
            "spider:M,K or matchstick:K"
        ) from None
    return getattr(tr, "make_" + kind.replace("-", "_"))(*params)


def _load_trees(args) -> list[tuple[str, tr.Tree]]:
    """(identifier, tree) pairs from --make or --input per --format."""
    if args.make:
        return [(args.make, _parse_make(args.make))]
    if not args.input:
        raise UsageError("no tree source: pass --make or --input")
    try:
        with open(args.input, encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise UsageError(f"{args.input} is not an ASCII text file") from None
    if args.format == "edges":
        from . import tree as tr
        return [(args.input, tr.parse_edge_list(text))]
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append((line, en.parse_graph6(line)))
    if not out:
        raise UsageError(f"no graph6 lines in {args.input}")
    return out


def _span(lo: int, hi: int, flag: str) -> range:
    """lo..hi inclusive, from the --FLAG-min/--FLAG-max pair; never empty."""
    if lo > hi:
        raise UsageError(f"empty range: --{flag}-min {lo} > --{flag}-max {hi}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# bound

def cmd_bound(args) -> int:
    if args.trace and args.output == "csv":
        raise UsageError("--trace has no csv form: use --output text or json")
    names = tuple(bd.BOUNDS) if args.bound == "all" else (args.bound,)
    results = []  # (identifier, tree, {bound name: (value, trace)})
    for ident, t in _load_trees(args):
        res = {name: bd._peel(t, bd.BOUNDS[name], dist_sum_mode=args.distsum,
                              strict_pseudocode=args.strict_pseudocode)
               for name in names}
        results.append((ident, t, res))

    if args.output == "json":
        doc = []
        for ident, t, res in results:
            row = {"tree": ident, "n": t.n, **{k: v.moves for k, (v, _) in res.items()}}
            if args.trace:
                row["traces"] = {k: trace.to_json() for k, (_, trace) in res.items()}
            doc.append(row)
        _emit(_json(doc))
    elif args.output == "csv":
        _emit("tree,n," + ",".join(names))
        for ident, t, res in results:
            _emit(",".join([ident, str(t.n)] + [str(v.moves) for v, _ in res.values()]))
    else:
        for ident, t, res in results:
            vals = " ".join(f"{k}={v.moves}" for k, (v, _) in res.items())
            _emit(f"tree {ident} n={t.n} {vals}")
            if args.trace:
                for k, (_, trace) in res.items():
                    _emit(f"trace {k}:")
                    _emit(trace.to_text())
    return EXIT_OK


# ---------------------------------------------------------------------------
# table1

def cmd_table1(args) -> int:
    from . import golden
    names = tuple(bd.BOUNDS) if args.bound == "all" else (args.bound,)
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
    totals = {n: dict.fromkeys(("trees", *bd.BOUNDS), 0) for n in sizes}
    # each size's generator is made here, so a size out of range fails
    # before any tree is valued; no tree is built, and none sorted
    seqs = chain.from_iterable([en._free_level_sequences(n) for n in sizes])
    swept = bd.peel_sweep(seqs, dist_sum_mode=args.distsum,
                          strict_pseudocode=args.strict_pseudocode)
    for seq, _, values in swept:
        sums = totals[len(seq)]
        sums["trees"] += 1
        for name, x in zip(bd.BOUNDS, values):
            sums[name] += x.moves
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
# table2

def cmd_table2(args) -> int:
    from . import golden, tree as tr
    names = ("delta-prime-v1", "delta-prime-v2", "delta-star")  # column order
    depths = _span(args.d_min, args.d_max, "d")
    case2 = "post" if args.strict_pseudocode else "pre"
    report = ExperimentReport(
        "table2",
        {
            "d_min": args.d_min,
            "d_max": args.d_max,
            "distsum": args.distsum,
            "case2_diameter": case2,
        },
        header=f"experiment table2 distsum={args.distsum} case2={case2}",
        columns=[("d", "d"), ("n", "n"), ("leaves", "leaves")]
        + [(k, bd.BOUNDS[k]) for k in names],
    )
    t0 = time.time()
    swept = bd.peel_sweep((en.level_sequence(tr.make_full_binary(d))[0] for d in depths),
                          dist_sum_mode=args.distsum, strict_pseudocode=args.strict_pseudocode)
    for d, (seq, _, values) in zip(depths, swept):
        row = {"d": d, "n": len(seq), "leaves": (len(seq) + 1) // 2,
               **{k: v.moves for k, v in zip(bd.BOUNDS, values)}}
        report.rows.append(row)
        gold = golden.BINARY.get(d)
        report.compare(row, gold)
        if gold is None or d < 2:
            continue
        for variant in ("v1", "v2"):
            gap = Comparison(
                report.row_id(row),
                f"gap-{variant}",
                golden.recorded_gap(d, variant),
                bd.predicted_gap(d, variant).moves,
                gold.source + "+formula",
            )
            report.comparisons.append(gap)
            report.footer.append(
                f"gap-check d={d} {variant}: formula={gap.actual} "
                f"recorded-diff={gap.expected} {'ok' if gap.match else 'MISMATCH'}"
            )

    _emit(report.render(args.output))
    _note(f"wall-time: {time.time() - t0:.2f}s")
    return report.exit_code()


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    from . import oracle as orc
    sizes = _span(args.n_min, args.n_max, "n")
    report = ExperimentReport(
        "verify",
        {"n_min": args.n_min, "n_max": args.n_max, "cap": args.cap,
         "distsum": args.distsum},
        header=f"experiment verify n={args.n_min}..{args.n_max}",
        columns=[("n", "n"), ("trees", "trees")],
    )
    t0 = time.time()
    seqs = chain.from_iterable([en._free_level_sequences(n) for n in sizes])
    swept = bd.peel_sweep(seqs, dist_sum_mode=args.distsum)
    # every size the cap admits (n <= MAX_CAP) is pinned; the check keeps
    # the cap errors and fails before any tree is valued
    orc._check_cap(args.n_max, args.cap)
    pinned = orc.pinned_diameters(sizes)
    counts = dict.fromkeys(sizes, 0)
    histogram: dict[int, int] = {}
    violations = []
    for seq, code, (bound, *_) in swept:  # the main bound, first in bd.BOUNDS
        exact = pinned[code]
        slack = bound.moves - exact
        histogram[slack] = histogram.get(slack, 0) + 1
        if slack < 0:
            g6 = en.encode_graph6(en._from_level_sequence(seq))  # the one tree built
            violations.append((g6, bound.moves, exact))
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
# enumerate / oracle

def cmd_enumerate(args) -> int:
    from . import tree as tr
    trees = en.enumerate_free_trees(args.n)
    if args.format == "edges":
        _emit("\n\n".join(tr.format_edge_list(t).rstrip("\n") for t in trees))
    else:
        _emit("\n".join(en.encode_graph6(t) for t in trees))
    _note(f"trees: {len(trees)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle as orc
    trees = _load_trees(args)
    t0 = time.time()
    doc = []
    if args.output == "csv":
        _emit("tree,depth,count")
    # text and csv stream per tree, so trees done before an error are shown
    for ident, t in trees:
        profile = orc.depth_profile(t, cap=args.cap)
        counts = [f"{depth},{cnt}" for depth, cnt in enumerate(profile)]
        if args.output == "json":
            doc.append(
                {"tree": ident, "n": t.n, "diameter": len(profile) - 1, "profile": profile}
            )
        elif args.output == "csv":
            _emit("\n".join(f"{ident},{line}" for line in counts))
        else:
            _emit(f"tree {ident} n={t.n} diameter={len(profile) - 1}")
            _emit("\n".join(["depth,count"] + counts))
    if args.output == "json":
        _emit(_json(doc))
    _note(f"wall-time: {time.time() - t0:.2f}s")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *flags: str,
                outputs: tuple[str, ...] = ("text", "csv", "json")) -> None:
    """--output (one of `outputs`) and --distsum, plus those of
    --strict-pseudocode and --cap that `flags` names."""
    p.add_argument("--output", choices=outputs, default="text")
    p.add_argument("--distsum", choices=bd.DIST_SUM_MODES, default="global")
    if "strict-pseudocode" in flags:
        p.add_argument("--strict-pseudocode", action="store_true")
    if "cap" in flags:
        p.add_argument("--cap", type=int)


def _add_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", help="tree file (graph6 lines or an edge list)")
    p.add_argument("--format", choices=("g6", "edges"), default="g6")
    source.add_argument("--make",
                        help="construct a named tree: star:N path:N full-binary:D "
                             "spider:M,K matchstick:K")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="treebound",
        description="Diameter bounds for Cayley graphs of transposition trees",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute bounds for input trees")
    _add_source(p)
    p.add_argument("--bound", choices=("all", *bd.BOUNDS), default="all")
    p.add_argument("--trace", action="store_true")
    _add_common(p, "strict-pseudocode")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table1", help="cumulative bounds over all free trees")
    p.add_argument("--n-min", type=int, default=6)
    p.add_argument("--n-max", type=int, default=13)
    p.add_argument("--bound", choices=("all", *bd.BOUNDS), default="all")
    p.add_argument("--jobs", type=int, default=0,
                   help="ignored: table1 runs in one process; the flag is kept "
                        "for compatibility")
    _add_common(p, "strict-pseudocode")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="bounds on full binary trees")
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, default=7)
    _add_common(p, "strict-pseudocode")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("verify", help="bound vs pinned exact diameter")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    _add_common(p, "cap", outputs=("text", "json"))  # verify has no csv form
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="dump all free trees on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("g6", "edges"), default="g6")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="exact diameters with depth profiles")
    _add_source(p)
    _add_common(p, "cap")
    p.set_defaults(func=cmd_oracle)

    return ap


def _errors() -> tuple:
    """The exceptions main() reports as a one-line error.  An except clause
    evaluates its tuple only when an exception propagates, so tree and
    oracle load here only on that path."""
    from . import oracle as orc, tree as tr
    return (UsageError, tr.TreeError, en.MalformedGraph6Error, en.TreeSizeError,
            orc.TooLargeError, orc.NotGeneratingError, OSError)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    run()
