"""Traced in-process pass of one benchmark workload, layer by layer.

Usage (from the root of a checkout, with PYTHONPATH=src):

    python3 perfbench/layers.py --spans .bench_out/spans.jsonl -- table1 --jobs 2

The CLI arguments after `--` are parsed by the CLI's own parser, and the
pass calls the same public functions the subcommand calls, serially, with
a span around each call into a layer (tree, bounds, enumeration, oracle).
All spans for one tree carry the tree's graph6 id.  A probe phase then
times the tree primitives on the intermediate trees of every bound trace,
replayed through tree.delete_vertices, and the graph6 round trip of every
tree.  Spans stay in memory and are written to --spans at the end, one JSON
list per line: [id, parent id, name, graph6 id, n, start_ns, end_ns].

Metrics are built from self time: a span's duration minus the time its
child spans cover.  The last stdout line is a JSON object: the values the
CLI would report ("values"), problems found on the way ("problems"),
per-layer metrics ("metrics") and the summed busy time of the workload's
layer calls ("layer_busy_s").
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from math import factorial

import numpy as np

from treebound import _bfs_kernels as kern
from treebound import bounds as bd
from treebound import cli
from treebound import enumeration as en
from treebound import oracle as orc
from treebound import tree as tr

class Tracer:
    """In-memory span recorder; nesting follows the `with` blocks."""

    def __init__(self):
        self.spans: list = []
        self.open: list[int] = []

    def __call__(self, name: str, tree: str | None = None, n: int | None = None):
        return _Span(self, name, tree, n)


class _Span:
    __slots__ = ("tracer", "name", "tree", "n", "id", "parent", "start")

    def __init__(self, tracer, name, tree, n):
        self.tracer, self.name, self.tree, self.n = tracer, name, tree, n

    def __enter__(self):
        t = self.tracer
        self.id = len(t.spans)
        self.parent = t.open[-1] if t.open else None
        t.spans.append(None)
        t.open.append(self.id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        t = self.tracer
        t.open.pop()
        t.spans[self.id] = (self.id, self.parent, self.name, self.tree, self.n, self.start, end)
        return False


class Pass:
    """What one traced pass saw: inputs to the probe phase and the metrics."""

    def __init__(self, span: Tracer):
        self.span = span
        self.enumerated = 0
        self.bound_runs: list = []   # (graph6, tree, BoundTrace)
        self.oracle_runs: list = []  # (graph6, tree, exact diameter)
        self.trees: dict = {}        # graph6 -> tree, every distinct input tree
        self.problems: list[str] = []

    def enumerate(self, n: int) -> list:
        with self.span("enumeration.enumerate_free_trees", n=n):
            trees = list(en.enumerate_free_trees(n))
        self.enumerated += len(trees)
        return trees

    # -- workload phase: the calls each subcommand makes, in its order

    def table1(self, args) -> dict:
        span, rows = self.span, {}
        for n in range(args.n_min, args.n_max + 1):
            trees = self.enumerate(n)
            sums = {"delta-star": 0, "delta-prime-v1": 0, "delta-prime-v2": 0}
            for t in trees:
                with span("enumeration.encode_graph6", n=n) as s:
                    g6 = s.tree = en.encode_graph6(t)
                with span("enumeration.parse_graph6", g6, n):
                    t = en.parse_graph6(g6)
                with span("bounds.delta_star", g6, n):
                    ds = bd.delta_star(t, dist_sum_mode=args.distsum,
                                       strict_pseudocode=args.strict_pseudocode)
                with span("bounds.delta_prime", g6, n):
                    v1 = bd.delta_prime(t, "v1", dist_sum_mode=args.distsum)
                with span("bounds.delta_prime", g6, n):
                    v2 = bd.delta_prime(t, "v2", dist_sum_mode=args.distsum)
                for key, (value, trace) in zip(sums, (ds, v1, v2)):
                    sums[key] += value.moves
                    self.bound_runs.append((g6, t, trace))
                self.trees[g6] = t
            rows[str(n)] = {"trees": len(trees), **sums}
        return {"rows": rows}

    def verify(self, args) -> dict:
        span, rows, slack, violations = self.span, {}, {}, 0
        for n in range(args.n_min, args.n_max + 1):
            trees = self.enumerate(n)
            for t in trees:
                g6 = en.encode_graph6(t)  # span id only; the CLI encodes violators alone
                with span("oracle.cayley_diameter", g6, n):
                    exact = orc.cayley_diameter(t, cap=args.cap)
                with span("bounds.delta_star", g6, n):
                    value, trace = bd.delta_star(t, dist_sum_mode=args.distsum)
                key = str(value.moves - exact)
                slack[key] = slack.get(key, 0) + 1
                violations += value.moves < exact
                self.bound_runs.append((g6, t, trace))
                self.oracle_runs.append((g6, t, exact))
                self.trees[g6] = t
            rows[str(n)] = len(trees)
        return {"rows": rows, "slack": slack, "violations": violations}

    def oracle(self, args) -> dict:
        if args.make or args.format != "g6" or args.output != "text":
            raise SystemExit("the traced pass mirrors `oracle --input FILE` text output only")
        span = self.span
        with open(args.input, encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        trees = []
        for g6 in lines:
            with span("enumeration.parse_graph6", g6, ord(g6[0]) - 63):
                trees.append((g6, en.parse_graph6(g6)))
        profiles = {}
        for g6, t in trees:
            # the text renderer asks the oracle twice; the second is a cache hit
            with span("oracle.cayley_diameter", g6, t.n):
                exact = orc.cayley_diameter(t, cap=args.cap)
            with span("oracle.profile_csv", g6, t.n):
                csv = orc.profile_csv(t, cap=args.cap)
            profiles[g6] = [int(row.split(",")[1]) for row in csv.splitlines()[1:]]
            self.oracle_runs.append((g6, t, exact))
            self.trees[g6] = t
        return {"profiles": profiles}

    # -- probe phase: unit costs, outside the workload's own busy time

    def probe(self, distsum: str) -> None:
        span = self.span
        for g6, t in self.trees.items():
            with span("enumeration.codec", g6, t.n):
                en.parse_graph6(en.encode_graph6(t))
        # One pass of the tree primitives over every intermediate tree of
        # every bound trace: what a single-pass peel step has to compute.
        for g6, t, trace in self.bound_runs:
            for rec in trace.records:
                n = t.n
                with span("tree.eccentricities", g6, n):
                    tr.eccentricities(t)
                with span("tree.canonical_code", g6, n):
                    code = tr.canonical_code(t)
                if code != rec.tree_code:
                    self.problems.append(f"{g6}: replayed tree differs from its trace at n={n}")
                    break
                if rec.case == bd.STAR:
                    break
                with span("tree.peripheral_set", g6, n):
                    s = tr.peripheral_set(t)
                with span("tree.clusters", g6, n):
                    tr.clusters(t, s, dist_sum_mode=distsum)
                doomed = [t.index_of_label(label) for label in rec.deleted_labels]
                with span("tree.delete_vertices", g6, n):
                    t = tr.delete_vertices(t, doomed)
        if kern.HAS_NUMBA:
            # numba and numpy kernels must fill identical depth tables
            for g6, t, _ in self.oracle_runs:
                edges = np.array([(min(e) - 1, max(e) - 1) for e in t.label_edges()],
                                 np.int64).reshape(-1, 2)
                if not np.array_equal(kern.bfs_numba(t.n, edges), kern.bfs_numpy(t.n, edges)):
                    self.problems.append(f"{g6}: numba and numpy depth tables differ")

    # -- metrics from spans

    def metrics(self, root_id: int) -> tuple[dict, float]:
        dur: dict[str, list[float]] = {}
        oracle_by_n: dict[int, list[float]] = {}
        layer_busy = 0.0
        spans = self.span.spans
        covered = [0] * len(spans)  # span id -> time its child spans cover
        for _, parent, _, _, _, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        for sid, parent, name, _, n, start, end in spans:
            seconds = (end - start - covered[sid]) / 1e9  # self time
            dur.setdefault(name, []).append(seconds)
            if parent == root_id:
                layer_busy += seconds
            if name == "oracle.cayley_diameter":
                oracle_by_n.setdefault(n, []).append(seconds)

        def total(*names):
            return sum(sum(dur.get(k, ())) for k in names)

        def ratio(num, den):
            return num / den if den else 0.0

        def per_call_us(name):
            calls = dur.get(name, ())
            return ratio(1e6 * sum(calls), len(calls))

        bounds_busy = total("bounds.delta_star", "bounds.delta_prime")
        steps = sum(len(trace.records) for _, _, trace in self.bound_runs)
        replay = total("tree.eccentricities", "tree.peripheral_set", "tree.clusters",
                       "tree.canonical_code", "tree.delete_vertices")
        oracle_busy = total("oracle.cayley_diameter", "oracle.profile_csv")
        edge_visits = sum(factorial(t.n) * (t.n - 1) for _, t, _ in self.oracle_runs)
        m = {
            "enumeration.busy_s": total("enumeration.enumerate_free_trees"),
            "enumeration.trees": self.enumerated,
            "enumeration.codec_us": ratio(1e6 * total("enumeration.codec"), len(self.trees)),
            "bounds.busy_s": bounds_busy,
            "bounds.calls": len(self.bound_runs),
            "bounds.peel_steps": steps,
            "bounds.step_us": ratio(1e6 * bounds_busy, steps),
            "bounds.recompute_ratio": ratio(bounds_busy, replay),
            "tree.eccentricities_us": per_call_us("tree.eccentricities"),
            "tree.peripheral_set_us": per_call_us("tree.peripheral_set"),
            "tree.clusters_us": per_call_us("tree.clusters"),
            "tree.canonical_code_us": per_call_us("tree.canonical_code"),
            "tree.delete_vertices_us": per_call_us("tree.delete_vertices"),
            "oracle.busy_s": oracle_busy,
            "oracle.trees": len(self.oracle_runs),
            "oracle.states": sum(factorial(t.n) for _, t, _ in self.oracle_runs),
            "oracle.edge_visits": edge_visits,
            "oracle.levels": sum(exact + 1 for _, _, exact in self.oracle_runs),
            "oracle.ns_per_edge_visit": ratio(1e9 * oracle_busy, edge_visits),
        }
        for n, times in oracle_by_n.items():
            m[f"oracle.n{n}.first_tree_s"] = times[0]
            m[f"oracle.n{n}.median_tree_s"] = statistics.median(times)
        return m, layer_busy


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="file the spans are written to")
    ap.add_argument("cli_argv", nargs=argparse.REMAINDER,
                    help="-- followed by the treebound CLI arguments to mirror")
    args = ap.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
    cli_args = cli.build_parser().parse_args(cli_argv)
    if cli_args.command not in ("table1", "verify", "oracle"):
        raise SystemExit(f"no traced pass for the {cli_args.command!r} subcommand")

    span = Tracer()
    run = Pass(span)
    with span(f"cli.{cli_args.command}") as root:
        values = getattr(run, cli_args.command)(cli_args)
    with span("probe"):
        run.probe(cli_args.distsum)
    metrics, layer_busy = run.metrics(root.id)

    with open(args.spans, "w", encoding="utf-8") as fh:
        for s in span.spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")
    print(json.dumps({"values": values, "problems": run.problems, "metrics": metrics,
                      "layer_busy_s": layer_busy}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
