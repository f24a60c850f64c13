"""Workload definitions and recorded expectations for the treebound benchmark.

Every path here is relative to the checkout root, which is the working
directory of every benchmark script.  Expected outputs were recorded from
the program by ``perfbench/record.py`` and live in ``expected/outputs.json``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected" / "outputs.json"
WORK = Path(".bench_out")  # inputs, result records and span dumps
SRC = Path("src")

WORKLOADS = ("sweep", "verify", "oracle-n9")
ORACLE_SAMPLE = 1  # trees per oracle-n9 input, drawn from the 47 at n = 9


@dataclass(frozen=True)
class Case:
    """One CLI invocation to measure, with its set-up twin and its inputs."""

    name: str
    argv: tuple[str, ...]
    setup_argv: tuple[str, ...]
    workers: int                                  # processes the CLI computes on
    inputs: dict = field(default_factory=dict)    # relative path -> file text
    # nominal wall time of (argv, setup_argv) on the reference program, near
    # its median on the 2-core machine the benchmark was tuned on; run.py
    # multiplies the program/reference time ratios by it
    reference_s: tuple[float, float] = (1.0, 1.0)


@dataclass(frozen=True)
class Expectation:
    exit_code: int
    stdout: str


def load_store(path: Path = EXPECTED) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def oracle_case(name: str, n: int, k: int, seed: int, store: dict,
                reference_s: tuple[float, float] = (1.0, 1.0)) -> Case:
    """`oracle --input` on k trees sampled by the seed from all trees on n."""
    pool = sorted(store["profiles"][str(n)])
    sample = random.Random(seed).sample(pool, k)
    path = f"{WORK}/{name}-seed{seed}.g6"
    return Case(
        name,
        ("oracle", "--input", path),
        ("oracle", "--make", "star:3"),
        workers=1,
        inputs={path: "\n".join(sample) + "\n"},
        reference_s=reference_s,
    )


def case(name: str, seed: int, store: dict) -> Case:
    """The benchmark workload `name`; the seed only selects oracle-n9's trees."""
    if name == "sweep":
        return Case(
            name,
            ("table1", "--n-min", "6", "--n-max", "12", "--jobs", "2"),
            ("table1", "--n-min", "6", "--n-max", "6", "--jobs", "2"),
            workers=2,
            reference_s=(2.4, 0.34),
        )
    if name == "verify":
        return Case(name, ("verify", "--n-min", "3", "--n-max", "7"),
                    ("verify", "--n-min", "3", "--n-max", "3"), workers=1,
                    reference_s=(0.6, 0.45))
    if name == "oracle-n9":
        return oracle_case(name, 9, ORACLE_SAMPLE, seed, store, reference_s=(2.7, 0.5))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def render_oracle(lines: list[str], profiles: dict) -> str:
    """Text stdout of `treebound oracle --input` for trees with known profiles."""
    out = []
    for g6 in lines:
        profile = profiles[g6]
        out.append(f"tree {g6} n={ord(g6[0]) - 63} diameter={len(profile) - 1}")
        out.append("depth,count")
        out += [f"{d},{c}" for d, c in enumerate(profile)]
    return "\n".join(out) + "\n"


def expectation(argv, inputs: dict, store: dict) -> Expectation:
    """Recorded exit code and stdout of one CLI invocation."""
    argv = list(argv)
    if argv[0] == "oracle" and "--input" in argv:
        text = inputs[argv[argv.index("--input") + 1]]
        lines = text.split()
        profiles = {g6: store["profiles"][str(ord(g6[0]) - 63)][g6] for g6 in lines}
        return Expectation(0, render_oracle(lines, profiles))
    run = store["runs"][" ".join(argv)]
    return Expectation(run["exit_code"], run["stdout"])


_TABLE1_ROW = re.compile(
    r"^n=(\d+) trees=(\d+) delta-star=(\d+) delta-prime-v1=(\d+) delta-prime-v2=(\d+)"
)
_VERIFY_ROW = re.compile(r"^n=(\d+) trees=(\d+)$")
_SLACK_ROW = re.compile(r"^(-?\d+),(\d+)$")
_ORACLE_HEAD = re.compile(r"^tree (\S+) n=\d+ diameter=\d+$")


def parse_values(command: str, stdout: str) -> dict:
    """The numbers a CLI text report carries, in the shape the traced pass
    produces, so in-process values can be checked against the CLI's."""
    lines = stdout.splitlines()
    if command == "table1":
        rows = {}
        for line in lines:
            m = _TABLE1_ROW.match(line)
            if m:
                n, trees, ds, v1, v2 = m.groups()
                rows[n] = {"trees": int(trees), "delta-star": int(ds),
                           "delta-prime-v1": int(v1), "delta-prime-v2": int(v2)}
        return {"rows": rows}
    if command == "verify":
        rows, slack = {}, {}
        for line in lines:
            if m := _VERIFY_ROW.match(line):
                rows[m.group(1)] = int(m.group(2))
            elif m := _SLACK_ROW.match(line):
                slack[m.group(1)] = int(m.group(2))
        violations = int(lines[-1].removeprefix("violations-total="))
        return {"rows": rows, "slack": slack, "violations": violations}
    if command == "oracle":
        profiles, current = {}, None
        for line in lines:
            if m := _ORACLE_HEAD.match(line):
                current = profiles.setdefault(m.group(1), [])
            elif line != "depth,count":
                current.append(int(line.split(",")[1]))
        return {"profiles": profiles}
    raise ValueError(f"no value parser for {command!r}")
