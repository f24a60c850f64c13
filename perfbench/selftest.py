"""Self-test of the benchmark at tiny sizes (about half a minute).

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Runs every workload path, untraced and traced, on small inputs: `table1`
at n = 6..7, `verify` at n = 3..5 and `oracle` on one tree at n = 6.  Each
must pass its output checks and report every metric.  Then it feeds
deliberately corrupted expectations and requires the output checks to
count them as failures.  Exits 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import run
import workloads as wl

SEED = 7


def tiny_cases(store: dict) -> list[tuple[wl.Case, tuple[str, ...]]]:
    """(case, per-layer metrics that must be non-zero on it)."""
    sweep = wl.case("sweep", SEED, store)
    verify = wl.case("verify", SEED, store)
    return [
        (wl.Case("sweep-tiny", ("table1", "--n-min", "6", "--n-max", "7", "--jobs", "2"),
                 sweep.setup_argv, workers=2),
         ("enumeration.busy_s", "enumeration.trees", "bounds.busy_s", "bounds.peel_steps",
          "bounds.recompute_ratio", "tree.clusters_us", "tree.delete_vertices_us")),
        (wl.Case("verify-tiny", ("verify", "--n-min", "3", "--n-max", "5"),
                 verify.setup_argv, workers=1),
         ("enumeration.trees", "bounds.calls", "oracle.busy_s", "oracle.edge_visits",
          "oracle.n5.first_tree_s", "oracle.n5.median_tree_s")),
        (wl.oracle_case("oracle-tiny", 6, 1, SEED, store),
         ("enumeration.codec_us", "oracle.trees", "oracle.levels", "oracle.ns_per_edge_visit",
          "oracle.n6.first_tree_s")),
    ]


def main() -> int:
    store = wl.load_store()
    problems = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for case, nonzero in tiny_cases(store):
        for trace in (False, True):
            rec = run.measure(case, store, seconds=0, trace=trace, setup_repeats=1)
            label = f"{case.name} trace={int(trace)}"
            check(rec["correct"] and rec["failed"] == 0,
                  f"{label}: {rec['attempted']} runs pass their checks {rec['failures']}")
            names = run.PER_LAYER if trace else run.END_TO_END
            check(set(rec["metrics"]) == set(names), f"{label}: reports every metric")
            if trace:
                zero = [k for k in nonzero if not rec["metrics"][k]["value"]]
                check(not zero, f"{label}: layer metrics measured" + (f", zero: {zero}" if zero else ""))
            else:
                check(all(rec["metrics"][k]["value"] > 0 for k in names),
                      f"{label}: end-to-end metrics are positive")

    # corrupted expectations must be counted, not stop the run
    verify_case, oracle_case = tiny_cases(store)[1][0], tiny_cases(store)[2][0]
    bad = copy.deepcopy(store)
    key = " ".join(verify_case.argv)
    bad["runs"][key]["stdout"] = bad["runs"][key]["stdout"].replace("0,6", "0,5")
    rec = run.measure(verify_case, bad, seconds=0, trace=False, setup_repeats=2)
    # 2 set-up pairs pass; the program's and the reference's workload run fail
    check(rec["failed"] == 2 and rec["attempted"] == 6 and not rec["correct"],
          f"corrupted verify stdout counts 2 failures of 6 runs (got {rec['failed']} "
          f"of {rec['attempted']})")

    bad = copy.deepcopy(store)
    g6 = oracle_case.inputs[oracle_case.argv[2]].strip()
    bad["profiles"]["6"][g6][-1] += 1
    rec = run.measure(oracle_case, bad, seconds=0, trace=True, setup_repeats=1)
    check(rec["failed"] == 2 and rec["attempted"] == 3,
          f"corrupted oracle profile fails the CLI run and the traced pass (got {rec['failed']})")

    print(f"{'selftest passed' if not problems else f'{len(problems)} check(s) failed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
