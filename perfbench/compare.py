"""Compare two sets of benchmark result records, workload by workload.

Usage (from the root of a checkout):

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by perfbench/run.py (see
.bench_out/results/).  For every workload and metric in both sets it prints
each side's median and quartiles over the records, and the change of the
median; end-to-end metrics also get their bound from BENCHMARK.json and a
verdict.  Results whose oracle backend differs are refused: with another
BFS kernel the oracle layer is a different program.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"no result records in {directory}")
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    backends = {r["env"]["oracle_backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refused: results mix oracle backends {sorted(backends)}", file=sys.stderr)
        return 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    def by_key(records):
        out: dict = {}
        for r in records:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
        return out

    def summary(values):
        q1, q2, q3 = quartiles(values)
        return f"{q2:.4g} [{q1:.4g}-{q3:.4g}] x{len(values)}"

    b, n = by_key(base), by_key(new)
    print(f"{'workload':<10} {'metric':<28} {'base median [q1-q3] xruns':>34} "
          f"{'new median [q1-q3] xruns':>34} {'change':>8}  verdict")
    for key in sorted(b.keys() & n.keys()):
        base_median, new_median = quartiles(b[key])[1], quartiles(n[key])[1]
        change = (new_median - base_median) / base_median if base_median else 0.0
        verdict = ""
        if key[1] in bounds:
            bound, better = bounds[key[1]]
            worse = change if better == "lower" else -change
            verdict = f"{'WORSE' if worse > bound else 'ok'} (bound {bound:.0%})"
        print(f"{key[0]:<10} {key[1]:<28} {summary(b[key]):>34} {summary(n[key]):>34} "
              f"{change:>+8.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
