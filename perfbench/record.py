"""Record the expected outputs the benchmark checks every run against.

Usage (from the root of a checkout; takes about two minutes):

    python3 perfbench/record.py

Runs each fixed CLI invocation the benchmark and its self-test make, and
keeps its exit code and stdout.  For the oracle workloads it keeps the
depth profile of every free tree on 6 and on 9 vertices, from
`treebound oracle --output json`, so that any seed's sample can be checked.
Writes perfbench/expected/outputs.json.  Re-record only when the program's
output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl

RUNS = (
    ("table1", "--n-min", "6", "--n-max", "12", "--jobs", "2"),
    ("verify", "--n-min", "3", "--n-max", "7"),
    ("table1", "--n-min", "6", "--n-max", "6", "--jobs", "2"),
    ("verify", "--n-min", "3", "--n-max", "3"),
    ("oracle", "--make", "star:3"),
    # self-test sizes
    ("table1", "--n-min", "6", "--n-max", "7", "--jobs", "2"),
    ("verify", "--n-min", "3", "--n-max", "5"),
)
PROFILE_SIZES = (6, 9)


def cli(*argv: str) -> run.Exited:
    done = run.spawn([sys.executable, "-m", "treebound.cli", *argv], wl.SRC)
    print(f"exit {done.exit_code} in {done.wall_s:.2f}s: treebound {' '.join(argv)}")
    return done


def main() -> int:
    wl.WORK.mkdir(exist_ok=True)
    store = {"runs": {}, "profiles": {}}
    for argv in RUNS:
        done = cli(*argv)
        store["runs"][" ".join(argv)] = {"exit_code": done.exit_code, "stdout": done.stdout}
    for n in PROFILE_SIZES:
        listing = cli("enumerate", "--n", str(n))
        path = wl.WORK / f"all-trees-n{n}.g6"
        path.write_text(listing.stdout, encoding="ascii")
        done = cli("oracle", "--input", str(path), "--output", "json")
        if done.exit_code != 0:
            raise SystemExit(f"oracle failed on the trees with n={n}")
        store["profiles"][str(n)] = {d["tree"]: d["profile"] for d in json.loads(done.stdout)}
    wl.EXPECTED.parent.mkdir(exist_ok=True)
    wl.EXPECTED.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {wl.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
