"""Batch experiment command line.

Subcommands: bound, table1, table2, verify, enumerate, oracle.

Every flag can also be set through an environment variable with the
TREEBOUND_ prefix (TREEBOUND_JOBS, TREEBOUND_SEED, TREEBOUND_CAP,
TREEBOUND_OUTPUT, TREEBOUND_DISTSUM, TREEBOUND_STRICT_PSEUDOCODE,
TREEBOUND_FORMAT, TREEBOUND_BOUND); explicit flags win.  Stdout is
byte-stable given identical flags: wall time and backend identity go to
stderr only.

Exit codes: 0 when every comparison against the embedded reference tables
matched; 2 when the run completed but some comparisons mismatched (the
reference values themselves include rows known to be unreliable); 1 for
hard failures: soundness violations, invariant breaches, unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import bounds as bd
from . import enumeration as en
from . import golden
from . import oracle as orc
from . import tree as tr

EXIT_OK = 0
EXIT_HARD = 1
EXIT_MISMATCH = 2

BOUND_NAMES = ("delta-star", "delta-prime-v1", "delta-prime-v2")


@dataclass
class Comparison:
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


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    rows: list = field(default_factory=list)
    comparisons: list = field(default_factory=list)
    wall_time: float = 0.0

    def exit_code(self) -> int:
        return EXIT_OK if all(c.match for c in self.comparisons) else EXIT_MISMATCH

    def to_json(self) -> dict:
        # wall time deliberately left out: stdout must not vary across runs
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "rows": self.rows,
            "comparisons": [
                {
                    "row": c.row,
                    "column": c.column,
                    "expected": c.expected,
                    "actual": c.actual,
                    "match": c.match,
                    "source": c.source,
                    "suspect": c.suspect,
                }
                for c in self.comparisons
            ],
        }


def _env(name: str, default=None):
    v = os.environ.get("TREEBOUND_" + name)
    return default if v in (None, "") else v


def _env_int(name: str, default=None):
    v = _env(name)
    return default if v is None else int(v)


def _env_flag(name: str) -> bool:
    return str(_env(name, "")).lower() in ("1", "true", "yes", "on")


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _note(text: str) -> None:
    sys.stdout.flush()
    sys.stderr.write(text + "\n")


# ---------------------------------------------------------------------------
# tree sources

def _parse_make(spec: str) -> tuple[str, bd.TreeClassSpec]:
    kind, _, rest = spec.partition(":")
    try:
        params = tuple(int(x) for x in rest.split(",")) if rest else ()
        table = {
            "star": (bd.TreeClassSpec.star, 1),
            "path": (bd.TreeClassSpec.path, 1),
            "full-binary": (bd.TreeClassSpec.full_binary, 1),
            "spider": (bd.TreeClassSpec.spider, 2),
            "matchstick": (bd.TreeClassSpec.matchstick, 1),
        }
        ctor, arity = table[kind]
        if len(params) != arity:
            raise ValueError
        return spec, ctor(*params)
    except (KeyError, ValueError):
        raise SystemExit(
            f"bad --make spec {spec!r}; expected star:N, path:N, full-binary:D, "
            "spider:M,K or matchstick:K"
        )


def _load_trees(args) -> list[tuple[str, tr.Tree]]:
    """(identifier, tree) pairs from --make or --input per --format."""
    if args.make:
        name, spec = _parse_make(args.make)
        return [(name, spec.build())]
    if not args.input:
        raise SystemExit("no tree source: pass --make or --input")
    with open(args.input, encoding="ascii") as fh:
        text = fh.read()
    if args.format == "edges":
        return [(args.input, tr.parse_edge_list(text))]
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append((line, en.parse_graph6(line)))
    if not out:
        raise SystemExit(f"no graph6 lines in {args.input}")
    return out


def _tie_rng(seed, key: str):
    return None if seed is None else random.Random(f"{seed}:{key}")


# ---------------------------------------------------------------------------
# bound

def _selected(bound: str) -> tuple[str, ...]:
    if bound == "all":
        return BOUND_NAMES
    if bound not in BOUND_NAMES:
        raise SystemExit(f"unknown bound {bound!r}")
    return (bound,)


def _compute_bound(name, t, *, distsum, strict, rng):
    if name == "delta-star":
        return bd.delta_star(
            t, dist_sum_mode=distsum, strict_pseudocode=strict, rng=rng
        )
    variant = "v1" if name.endswith("v1") else "v2"
    return bd.delta_prime(t, variant, dist_sum_mode=distsum, rng=rng)


def cmd_bound(args) -> int:
    trees = _load_trees(args)
    names = _selected(args.bound)
    payload = []
    for ident, t in trees:
        row = {"tree": ident, "n": t.n}
        traces = {}
        for name in names:
            val, trace = _compute_bound(
                name,
                t,
                distsum=args.distsum,
                strict=args.strict_pseudocode,
                rng=_tie_rng(args.seed, ident),
            )
            row[name] = val.moves
            traces[name] = trace
        payload.append((row, traces))

    if args.output == "json":
        doc = [
            {**row, "traces": {k: v.to_json() for k, v in traces.items()}}
            if args.trace else dict(row)
            for row, traces in payload
        ]
        _emit(json.dumps(doc, indent=2, sort_keys=True))
    elif args.output == "csv":
        _emit("tree,n," + ",".join(names))
        for row, _ in payload:
            _emit(",".join([row["tree"], str(row["n"])] + [str(row[n]) for n in names]))
    else:
        for row, traces in payload:
            vals = " ".join(f"{n}={row[n]}" for n in names)
            _emit(f"tree {row['tree']} n={row['n']} {vals}")
            if args.trace:
                for name in names:
                    _emit(f"trace {name}:")
                    _emit(traces[name].to_text())
    return EXIT_OK


# ---------------------------------------------------------------------------
# table1

def _table1_worker(job) -> tuple[int, int, int]:
    g6, distsum, strict, seed = job
    t = en.parse_graph6(g6)
    rng = _tie_rng(seed, g6)
    ds = bd.delta_star(t, dist_sum_mode=distsum, strict_pseudocode=strict, rng=rng)[0]
    v1 = bd.delta_prime(t, "v1", dist_sum_mode=distsum, rng=_tie_rng(seed, g6))[0]
    v2 = bd.delta_prime(t, "v2", dist_sum_mode=distsum, rng=_tie_rng(seed, g6))[0]
    return ds.moves, v1.moves, v2.moves


def cmd_table1(args) -> int:
    names = _selected(args.bound)
    jobs = args.jobs if args.jobs and args.jobs > 0 else (os.cpu_count() or 1)
    report = ExperimentReport(
        "table1",
        {
            "n_min": args.n_min,
            "n_max": args.n_max,
            "bounds": list(names),
            "distsum": args.distsum,
            "case2_diameter": "post" if args.strict_pseudocode else "pre",
            "seed": args.seed,
        },
    )
    t0 = time.time()
    ordering_ok = True
    for n in range(args.n_min, args.n_max + 1):
        stream = en.enumerate_free_trees(n)
        lines = [en.encode_graph6(t) for t in stream]
        work = [(g6, args.distsum, args.strict_pseudocode, args.seed) for g6 in lines]
        if jobs > 1 and len(work) >= 64:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                triples = list(pool.map(_table1_worker, work, chunksize=64))
        else:
            triples = [_table1_worker(w) for w in work]
        sums = {
            "delta-star": sum(x[0] for x in triples),
            "delta-prime-v1": sum(x[1] for x in triples),
            "delta-prime-v2": sum(x[2] for x in triples),
        }
        row = {"n": n, "trees": len(lines)}
        row.update({k: sums[k] for k in names})
        report.rows.append(row)
        if not sums["delta-star"] <= sums["delta-prime-v2"] <= sums["delta-prime-v1"]:
            ordering_ok = False
        gold = golden.CUMULATIVE.get(n)
        if gold:
            col_of = {"delta-star": "dstar", "delta-prime-v1": "v1", "delta-prime-v2": "v2"}
            for k in names:
                report.comparisons.append(
                    Comparison(
                        row=f"n={n}",
                        column=col_of[k],
                        expected=gold.values[col_of[k]],
                        actual=sums[k],
                        source=gold.source,
                        suspect=gold.suspect,
                    )
                )
    report.wall_time = time.time() - t0

    if args.output == "json":
        _emit(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif args.output == "csv":
        _emit("n,trees," + ",".join(names) + ",mismatched_columns")
        by_row = {}
        for c in report.comparisons:
            if not c.match:
                by_row.setdefault(c.row, []).append(c.column)
        for row in report.rows:
            bad = ";".join(by_row.get(f"n={row['n']}", []))
            _emit(
                ",".join(
                    [str(row["n"]), str(row["trees"])]
                    + [str(row[k]) for k in names]
                    + [bad]
                )
            )
    else:
        _emit(
            "experiment table1 "
            f"bounds={args.bound} distsum={args.distsum} "
            f"case2={report.parameters['case2_diameter']}"
        )
        comp_by_row = {}
        for c in report.comparisons:
            comp_by_row.setdefault(c.row, []).append(c)
        for row in report.rows:
            vals = " ".join(f"{k}={row[k]}" for k in names)
            line = f"n={row['n']} trees={row['trees']} {vals}"
            comps = comp_by_row.get(f"n={row['n']}")
            if comps:
                line += " | recorded " + " ".join(c.render() for c in comps)
            _emit(line)
        _emit(f"ordering dstar<=v2<=v1: {'ok' if ordering_ok else 'VIOLATED'}")
    _note(f"wall-time: {report.wall_time:.2f}s jobs={jobs}")
    if not ordering_ok:
        return EXIT_HARD
    return report.exit_code()


# ---------------------------------------------------------------------------
# table2

def cmd_table2(args) -> int:
    report = ExperimentReport(
        "table2",
        {
            "d_min": args.d_min,
            "d_max": args.d_max,
            "distsum": args.distsum,
            "case2_diameter": "post" if args.strict_pseudocode else "pre",
        },
    )
    t0 = time.time()
    gap_lines = []
    for d in range(args.d_min, args.d_max + 1):
        t = tr.make_full_binary(d)
        ds = bd.delta_star(
            t, dist_sum_mode=args.distsum, strict_pseudocode=args.strict_pseudocode
        )[0]
        v1 = bd.delta_prime(t, "v1", dist_sum_mode=args.distsum)[0]
        v2 = bd.delta_prime(t, "v2", dist_sum_mode=args.distsum)[0]
        row = {
            "d": d,
            "n": t.n,
            "leaves": (t.n + 1) // 2,
            "delta-prime-v1": v1.moves,
            "delta-prime-v2": v2.moves,
            "delta-star": ds.moves,
        }
        report.rows.append(row)
        gold = golden.BINARY.get(d)
        if gold:
            for col, actual in (("v1", v1.moves), ("v2", v2.moves), ("dstar", ds.moves)):
                report.comparisons.append(
                    Comparison(f"d={d}", col, gold.values[col], actual, gold.source)
                )
            if d >= 2:
                for variant in ("v1", "v2"):
                    formula = bd.predicted_gap(d, variant)
                    recorded = golden.recorded_gap(d, variant)
                    report.comparisons.append(
                        Comparison(
                            f"d={d}",
                            f"gap-{variant}",
                            recorded,
                            formula.moves,
                            gold.source + "+formula",
                        )
                    )
                    gap_lines.append(
                        f"gap-check d={d} {variant}: formula={formula} "
                        f"recorded-diff={recorded} "
                        f"{'ok' if formula.moves == recorded else 'MISMATCH'}"
                    )
    report.wall_time = time.time() - t0

    if args.output == "json":
        _emit(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif args.output == "csv":
        _emit("d,n,leaves,delta-prime-v1,delta-prime-v2,delta-star,mismatched_columns")
        by_row = {}
        for c in report.comparisons:
            if not c.match:
                by_row.setdefault(c.row, []).append(c.column)
        for row in report.rows:
            bad = ";".join(by_row.get(f"d={row['d']}", []))
            _emit(
                f"{row['d']},{row['n']},{row['leaves']},{row['delta-prime-v1']},"
                f"{row['delta-prime-v2']},{row['delta-star']},{bad}"
            )
    else:
        _emit(
            "experiment table2 "
            f"distsum={args.distsum} case2={report.parameters['case2_diameter']}"
        )
        comp_by_row = {}
        for c in report.comparisons:
            if not c.column.startswith("gap-"):
                comp_by_row.setdefault(c.row, []).append(c)
        for row in report.rows:
            line = (
                f"d={row['d']} n={row['n']} leaves={row['leaves']} "
                f"v1={row['delta-prime-v1']} v2={row['delta-prime-v2']} "
                f"dstar={row['delta-star']}"
            )
            comps = comp_by_row.get(f"d={row['d']}")
            if comps:
                line += " | recorded " + " ".join(c.render() for c in comps)
            _emit(line)
        for gl in gap_lines:
            _emit(gl)
    _note(f"wall-time: {report.wall_time:.2f}s")
    return report.exit_code()


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    report = ExperimentReport(
        "verify", {"n_min": args.n_min, "n_max": args.n_max, "cap": args.cap}
    )
    t0 = time.time()
    histogram: dict[int, int] = {}
    violations = []
    for n in range(args.n_min, args.n_max + 1):
        count = 0
        for t in en.enumerate_free_trees(n):
            exact = orc.cayley_diameter(t, cap=args.cap)
            bound = bd.delta_star(t, dist_sum_mode=args.distsum)[0].moves
            slack = bound - exact
            histogram[slack] = histogram.get(slack, 0) + 1
            if slack < 0:
                violations.append((en.encode_graph6(t), bound, exact))
            count += 1
        report.rows.append({"n": n, "trees": count})
    report.wall_time = time.time() - t0

    if args.output == "json":
        doc = report.to_json()
        doc["slack_histogram"] = {str(k): v for k, v in sorted(histogram.items())}
        doc["violations"] = [
            {"tree": g6, "bound": b, "exact": e} for g6, b, e in violations
        ]
        _emit(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _emit(f"experiment verify n={args.n_min}..{args.n_max}")
        for row in report.rows:
            _emit(f"n={row['n']} trees={row['trees']}")
        _emit("slack,count")
        for slack, cnt in sorted(histogram.items()):
            _emit(f"{slack},{cnt}")
        for g6, b, e in violations:
            _emit(f"VIOLATION tree={g6} bound={b} exact={e}")
        _emit(f"violations-total={len(violations)}")
    _note(f"wall-time: {report.wall_time:.2f}s backend={orc.backend_name()}")
    return EXIT_HARD if violations else EXIT_OK


# ---------------------------------------------------------------------------
# enumerate / oracle

def cmd_enumerate(args) -> int:
    stream = en.enumerate_free_trees(args.n)
    blocks = []
    for t in stream:
        if args.format == "edges":
            blocks.append(tr.format_edge_list(t).rstrip("\n"))
        else:
            blocks.append(en.encode_graph6(t))
    _emit("\n\n".join(blocks) if args.format == "edges" else "\n".join(blocks))
    _note(f"trees: {stream.count}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    trees = _load_trees(args)
    t0 = time.time()
    if args.output == "json":
        doc = []
        for ident, t in trees:
            profile = orc.depth_profile(t, cap=args.cap)
            doc.append(
                {
                    "tree": ident,
                    "n": t.n,
                    "diameter": len(profile) - 1,
                    "profile": profile,
                }
            )
        _emit(json.dumps(doc, indent=2, sort_keys=True))
    elif args.output == "csv":
        _emit("tree,depth,count")
        for ident, t in trees:
            for depth, cnt in enumerate(orc.depth_profile(t, cap=args.cap)):
                _emit(f"{ident},{depth},{cnt}")
    else:
        for ident, t in trees:
            _emit(f"tree {ident} n={t.n} diameter={orc.cayley_diameter(t, cap=args.cap)}")
            _emit(orc.profile_csv(t, cap=args.cap))
    _note(f"wall-time: {time.time() - t0:.2f}s backend={orc.backend_name()}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=("text", "csv", "json"),
                   default=_env("OUTPUT", "text"))
    p.add_argument("--distsum", choices=("global", "pairwise"),
                   default=_env("DISTSUM", "global"))
    p.add_argument("--strict-pseudocode", action="store_true",
                   default=_env_flag("STRICT_PSEUDOCODE"))
    p.add_argument("--seed", type=int, default=_env_int("SEED"))
    p.add_argument("--cap", type=int, default=_env_int("CAP"))


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="tree file (graph6 lines or an edge list)")
    p.add_argument("--format", choices=("g6", "edges"), default=_env("FORMAT", "g6"))
    p.add_argument("--make",
                   help="construct a named tree: star:N path:N full-binary:D "
                        "spider:M,K matchstick:K")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treebound",
        description="Diameter bounds for Cayley graphs of transposition trees",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute bounds for input trees")
    _add_source(p)
    p.add_argument("--bound", default=_env("BOUND", "all"),
                   help="delta-star | delta-prime-v1 | delta-prime-v2 | all")
    p.add_argument("--trace", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table1", help="cumulative bounds over all free trees")
    p.add_argument("--n-min", type=int, default=6)
    p.add_argument("--n-max", type=int, default=13)
    p.add_argument("--bound", default=_env("BOUND", "all"))
    p.add_argument("--jobs", type=int, default=_env_int("JOBS", 0),
                   help="worker processes (0 = all cores)")
    _add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="bounds on full binary trees")
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, default=7)
    _add_common(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("verify", help="bound vs exact BFS diameter")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="dump all free trees on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("g6", "edges"),
                   default=_env("FORMAT", "g6"))
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="exact diameters with depth profiles")
    _add_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (tr.TreeError, en.MalformedGraph6Error, orc.TooLargeError,
            orc.NotGeneratingError, bd.UnsupportedClassError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_HARD


if __name__ == "__main__":
    sys.exit(main())
