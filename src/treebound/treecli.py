"""The tree-side subcommands, bound, table2, enumerate and oracle: each
builds or reads a tree.Tree.  batch, bounds, golden and batchcli are
imported where they run: bound loads batch and bounds, table2 batch,
golden and batchcli (for the report renderer), enumerate batch (through
enumeration), and oracle none of them.  cli.build_parser imports this
module only when the command line names one of them or none, so table1
and verify neither load nor compile it."""

from __future__ import annotations

import argparse
import time

from . import enumeration as en
from . import tree as tr
from .cli import EXIT_OK, UsageError, _add_common, _emit, _json, _note

# --make kind -> parameter count; the constructor is tr.make_<kind>
_MAKE = {"star": 1, "path": 1, "full-binary": 1, "spider": 2, "matchstick": 1}


def _parse_make(spec: str) -> tr.Tree:
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
        return [(args.input, tr.parse_edge_list(text))]
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append((line, en.parse_graph6(line)))
    if not out:
        raise UsageError(f"no graph6 lines in {args.input}")
    return out


def cmd_bound(args) -> int:
    if args.trace and args.output == "csv":
        raise UsageError("--trace has no csv form: use --output text or json")
    from . import batch, bounds as bd
    names = tuple(batch.BOUNDS) if args.bound == "all" else (args.bound,)
    results = []  # (identifier, tree, {bound name: (value, trace)})
    for ident, t in _load_trees(args):
        res = {name: bd._peel(t, batch.BOUNDS[name], dist_sum_mode=args.distsum,
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


def cmd_table2(args) -> int:
    from . import batch, golden
    from .batchcli import Comparison, ExperimentReport, _span
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
        + [(k, batch.BOUNDS[k]) for k in names],
    )
    t0 = time.time()
    swept = batch.peel_sweep((en.level_sequence(tr.make_full_binary(d))[0] for d in depths),
                             dist_sum_mode=args.distsum, strict_pseudocode=args.strict_pseudocode)
    for d, (seq, _, values) in zip(depths, swept):
        row = {"d": d, "n": len(seq), "leaves": (len(seq) + 1) // 2,
               **dict(zip(batch.BOUNDS, values))}
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
                golden.predicted_gap(d, variant),
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


def cmd_enumerate(args) -> int:
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


# the arguments of each subcommand, for cli.build_parser

def _add_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", help="tree file (graph6 lines or an edge list)")
    p.add_argument("--format", choices=("g6", "edges"), default="g6")
    source.add_argument("--make",
                        help="construct a named tree: star:N path:N full-binary:D "
                             "spider:M,K matchstick:K")


def add_bound(p: argparse.ArgumentParser) -> None:
    from . import batch
    _add_source(p)
    p.add_argument("--bound", choices=("all", *batch.BOUNDS), default="all")
    p.add_argument("--trace", action="store_true")
    _add_common(p, "strict-pseudocode")
    p.set_defaults(func=cmd_bound)


def add_table2(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, default=7)
    _add_common(p, "strict-pseudocode")
    p.set_defaults(func=cmd_table2)


def add_enumerate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("g6", "edges"), default="g6")
    p.set_defaults(func=cmd_enumerate)


def add_oracle(p: argparse.ArgumentParser) -> None:
    _add_source(p)
    _add_common(p, "cap")
    p.set_defaults(func=cmd_oracle)
