"""treebound benchmark: one workload through the `treebound` CLI, checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Load is a closed loop: one CLI process at a time, each started from this
process only after the previous one exited.  Each run first times the
workload's set-up twin (the same subcommand on its smallest input) several
times, then repeats the workload itself until the time budget is spent.
Every CLI run's exit code and stdout are checked against the outputs
recorded in expected/outputs.json; a wrong output counts as a failure and
the run goes on.

The host's CPU speed drifts by tens of percent over seconds to minutes, so
with tracing off every CLI run is paired with a run of the same command on
the reference program (reference/treebound, the program as it was when the
benchmark was added), the order alternating from pair to pair.  The timed
end-to-end metrics are the median over pairs of program time / reference
time, times the reference's time for that workload on the machine the
benchmark was tuned on (Case.reference_s): seconds at the tuning machine's
speed.  The unscaled medians of both programs are printed and kept in the
result record.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1 repeats
pairs of one CLI run and one traced in-process pass (perfbench/layers.py,
each in a fresh interpreter) and reports the per-layer metrics.  Either way
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; a result record with the environment and every sample
goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

SETUP_REPEATS = 5
CLI_TIMEOUT_S = 150
REFERENCE = wl.HERE / "reference"  # the program frozen when the benchmark was added
# metric names and units, as BENCHMARK.json declares them
_SPEC = json.loads((wl.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def child_env(src: Path = wl.SRC) -> dict:
    """Environment for every child: the sources under `src` (the checkout's
    own by default), and no TREEBOUND_* defaults leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TREEBOUND_")}
    env["PYTHONPATH"] = str(src.resolve())
    return env


@dataclass
class Exited:
    exit_code: int
    stdout: str
    wall_s: float
    peak_rss_mb: float


def spawn(argv: list[str], src: Path) -> Exited:
    """Run argv to completion; wall time from spawn to exit, and the peak
    resident set of the process tree (wait4 reports the maximum over the
    child and every descendant it reaped, such as pool workers)."""
    with tempfile.TemporaryFile(dir=wl.WORK) as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(src), start_new_session=True)
        timer = threading.Timer(CLI_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return Exited(proc.returncode, text, wall, usage.ru_maxrss / 1024)


class Tally:
    """Counts runs attempted and failed; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def run_cli(argv, expected: wl.Expectation, tally: Tally, label: str,
            src: Path = wl.SRC) -> Exited:
    """One checked CLI run of the program under `src`."""
    done = spawn([sys.executable, "-m", "treebound.cli", *argv], src)
    same = done.stdout == expected.stdout
    tally.count(done.exit_code == expected.exit_code and same,
                f"{label}{' (reference)' if src == REFERENCE else ''}: exit {done.exit_code}, "
                f"stdout {'matches' if same else 'differs'}")
    return done


def paired(argv, expected: wl.Expectation, tally: Tally, label: str,
           index: int) -> tuple[Exited, Exited]:
    """The program's and the reference's run of argv, back to back; pair
    `index` decides which goes first, so neither always does."""
    order = (wl.SRC, REFERENCE) if index % 2 == 0 else (REFERENCE, wl.SRC)
    runs = {src: run_cli(argv, expected, tally, label, src) for src in order}
    return runs[wl.SRC], runs[REFERENCE]


def environment() -> dict:
    """What a result depends on besides the code.  compare.py refuses to
    compare results whose oracle backend differs."""
    sys.path.insert(0, str(wl.SRC))
    import networkx
    import numpy
    from treebound import _bfs_kernels, oracle

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = None  # a plain checkout is not a git repository
    if Path(".git").exists():  # never let git search the parent directories
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "oracle_backend": oracle.backend_name(),
        "numba_imports": _bfs_kernels.HAS_NUMBA,
        "git_sha": sha,
    }


def measure_setup(case: wl.Case, store: dict, tally: Tally, repeats: int,
                  reference: bool) -> dict:
    """`repeats` runs of the set-up twin; with `reference`, each paired
    with a reference run."""
    expected = wl.expectation(case.setup_argv, case.inputs, store)
    label = f"setup {' '.join(case.setup_argv)}"
    samples = {"setup_s": [], "reference_setup_s": []}
    for i in range(repeats):
        if reference:
            done, ref = paired(case.setup_argv, expected, tally, label, i)
            samples["reference_setup_s"].append(ref.wall_s)
        else:
            done = run_cli(case.setup_argv, expected, tally, label)
        samples["setup_s"].append(done.wall_s)
    return samples


def keep_going(started: float, budget: float, durations: list[float]) -> bool:
    """At least one sample; then another only if it should fit the budget."""
    if not durations:
        return True
    return time.perf_counter() - started + statistics.mean(durations) <= budget


def measure_cli(case, store, tally, started, budget) -> dict:
    """Pairs of one program and one reference run of the workload."""
    expected = wl.expectation(case.argv, case.inputs, store)
    samples = {"wall_s": [], "reference_wall_s": [], "peak_rss_mb": []}
    durations = []
    while keep_going(started, budget, durations):
        t0 = time.perf_counter()
        done, ref = paired(case.argv, expected, tally, case.name, len(durations))
        durations.append(time.perf_counter() - t0)
        samples["wall_s"].append(done.wall_s)
        samples["reference_wall_s"].append(ref.wall_s)
        samples["peak_rss_mb"].append(done.peak_rss_mb)
    return samples


def traced_pass(case: wl.Case, store: dict, tally: Tally) -> dict:
    """One traced in-process pass in a fresh interpreter, so the oracle's
    depth-table cache starts as cold as in a CLI process."""
    spans = wl.WORK / f"spans-{case.name}.jsonl"
    try:
        proc = subprocess.run(
            [sys.executable, str(wl.HERE / "layers.py"), "--spans", str(spans), "--", *case.argv],
            capture_output=True, text=True, env=child_env(), timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        tally.count(False, f"traced pass timed out after {CLI_TIMEOUT_S}s")
        return {}
    if proc.returncode != 0:
        tally.count(False, f"traced pass exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return {}
    result = json.loads(proc.stdout.splitlines()[-1])
    cli_values = wl.parse_values(case.argv[0], wl.expectation(case.argv, case.inputs, store).stdout)
    ok = result["values"] == cli_values and not result["problems"]
    tally.count(ok, f"traced pass: {result['problems'] or 'values differ from the CLI'}")
    return result


def measure_layers(case, store, tally, started, budget, setup_s) -> dict:
    """Pairs of one CLI run and one traced pass, so that the wall time and
    the busy time each pair compares are taken close together."""
    expected = wl.expectation(case.argv, case.inputs, store)
    samples = {"wall_s": [], "peak_rss_mb": [], "cli.fanout_efficiency": [], "cli.residual_s": []}
    durations = []
    while keep_going(started, budget, durations):
        t0 = time.perf_counter()
        done = run_cli(case.argv, expected, tally, case.name)
        wall_s = done.wall_s
        samples["wall_s"].append(wall_s)
        samples["peak_rss_mb"].append(done.peak_rss_mb)
        result = traced_pass(case, store, tally)
        durations.append(time.perf_counter() - t0)
        if not result:
            continue
        for name, value in result["metrics"].items():
            samples.setdefault(name, []).append(value)
        busy = result["layer_busy_s"]
        # the traced pass is serial; the CLI spreads the same work over `workers`
        samples["cli.fanout_efficiency"].append(busy / (case.workers * wall_s))
        samples["cli.residual_s"].append(wall_s - setup_s - busy / case.workers)
    return samples


def measure(case: wl.Case, store: dict, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one case for about `seconds`; returns the result record."""
    started = time.perf_counter()
    wl.WORK.mkdir(exist_ok=True)
    for path, text in case.inputs.items():
        Path(path).write_text(text, encoding="ascii")
    tally = Tally()
    samples = measure_setup(case, store, tally, setup_repeats, reference=not trace)
    setup_s = statistics.median(samples["setup_s"])
    if not trace:
        samples.update(measure_cli(case, store, tally, started, seconds))
        names = END_TO_END
    else:
        samples.update(measure_layers(case, store, tally, started, seconds, setup_s))
        names = PER_LAYER
    unscaled = {name: statistics.median(values) for name, values in samples.items()
                if name.endswith(("wall_s", "setup_s")) and values}
    # a layer metric no traced pass produced belongs to a layer this workload skips
    metrics = {
        name: {"value": statistics.median(samples[name]) if samples.get(name) else 0.0,
               "unit": unit}
        for name, unit in names.items()
    }
    if not trace:
        for name, reference_s in zip(("wall_s", "setup_s"), case.reference_s):
            ratios = [a / b for a, b in zip(samples[name], samples[f"reference_{name}"])]
            metrics[name]["value"] = statistics.median(ratios) * reference_s
    return {
        "workload": case.name,
        "argv": list(case.argv),
        "trace": trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed / tally.attempted,
        "failures": tally.notes,
        "metrics": metrics,
        "unscaled": unscaled,
        "samples": samples,
        "seconds": time.perf_counter() - started,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (wl.SRC / "treebound" / "cli.py").is_file():
        print(f"error: no treebound sources under {wl.SRC}/ in {Path.cwd()}; "
              "run from the root of a treebound checkout", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("TREEBOUND_")]:
        del os.environ[key]  # so the recorded backend is the one the children run
    store = wl.load_store()
    env = environment()
    record = measure(wl.case(args.workload, args.seed, store), store, args.seconds,
                     bool(args.trace))
    record.update(seed=args.seed, env=env)

    results = wl.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for note in record["failures"]:
        print(f"FAILED {note}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print("unscaled medians " + " ".join(f"{k} {v:.4f}" for k, v in record["unscaled"].items()))
    print(f"failed_share {record['failed_share']:.4f} "
          f"({record['failed']} of {record['attempted']} runs)")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
