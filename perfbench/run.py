"""pipesim benchmark: end-to-end CLI runs, or an in-process traced run.

Run from the root of a pipesim checkout:

    python3 perfbench/run.py --workload feedback-greedy --seed 0 --seconds 60 --trace 0

``--trace 0`` drives the CLI as users do: one client in a closed loop, each
operation a fresh ``python -m pipesim.cli`` child started only after the
previous one exited, with stdout captured and checked.  It reports wall time
(``wall_s``), transactions per second of the ``run`` command
(``txn_per_s``), peak resident memory (``peak_rss_mb``) and set-up time
(``setup_s``), each as the median over the run.  Times are scaled to a
reference host speed (see ``Clock``).

``--trace 1`` calls each layer's public functions in-process with spans
around them (see traced.py) and reports per-layer times and deterministic
counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with sample
counts and quartiles, goes to ``.perfbench_out/`` and a summary to stderr.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads as W  # noqa: E402

OUT_DIR = ".perfbench_out"
# Set-up children started before each operation.  Set-up takes well under a
# second, so several per operation give its median enough samples.
SETUPS_PER_OP = 3

# Timed in a fresh interpreter: everything before analysis or simulation.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import pipesim
setup = pipesim.load_pipeline_file(sys.argv[1])
for route in setup.routes.values():
    pipesim.validate_config(route, setup.configs, join=setup.join)
    pipesim.elaborate(route, setup.decls)
print(repr(time.perf_counter() - t0))
"""


# The reference work's time on an idle core of the machine the benchmark was
# defined on (Intel Xeon, CPython 3.11.7).  It only sets the scale of the
# reported times.
REFERENCE_NOMINAL_S = 0.0057
REFERENCE_REPEATS = 3


def reference_work() -> int:
    """A fixed pure-Python load in the program's mix: Fraction arithmetic,
    int-keyed dicts and sets, a heap of tuples and string formatting."""
    total, seen, heap, counts = Fraction(0), set(), [], {}
    for i in range(1, 4000):
        state = (i * 2654435761) & 0xFFFF
        seen.add(state)
        counts[state & 255] = counts.get(state & 255, 0) + 1
        heapq.heappush(heap, (state, i))
        if i % 8 == 0:
            total += Fraction(state, i)
    while heap:
        heapq.heappop(heap)
    text = ",".join(f"{k}:{v}" for k, v in sorted(counts.items()))
    return len(seen) + len(text) + total.denominator % 7


def reference_time() -> float:
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.thread_time()
        reference_work()
        times.append(time.thread_time() - start)
    return statistics.median(times)


class Clock:
    """Scales child times to a reference host speed.

    On a shared host a core's speed changes by up to 1.9x from one second to
    the next, and can stay slow for most of a minute, most likely as another
    tenant's load on the same physical core comes and goes.  Speed on one
    core does not predict speed on another.  So before each operation the
    benchmark times the fixed reference work on every core it may use and
    pins itself and the launcher, and so the children, to the fastest; it
    times the reference again after every child.  A child's time is scaled
    by the reference's nominal time over the mean of the two timings around
    it.  The reference is timed in thread CPU time, so that another process
    taking the core meanwhile does not count as slowness.  The scaling is
    exact only if the child slows down as much as the reference does; the
    workloads' operations slow somewhat less (see perfbench/README.md).
    """

    def __init__(self, launcher_pid: int):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.launcher_pid = launcher_pid
        self.references: list[float] = []

    def choose_cpu(self) -> None:
        """Pin this process and the launcher, and so the children, to the
        fastest core."""
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = reference_time()
        cpu = min(times, key=times.__getitem__)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(self.launcher_pid, {cpu})
        self.last = times[cpu]

    def scale(self, seconds: float) -> float:
        before, self.last = self.last, reference_time()
        self.references.append(self.last)
        return seconds * REFERENCE_NOMINAL_S / ((before + self.last) / 2)


def child_env(root: Path, hash_seed: int) -> dict[str, str]:
    """The caller's environment without PYTHON* settings, plus the source
    tree and a per-child hash seed, so that hash-order dependence in the
    output shows up as a digest mismatch."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


# A child's peak RSS as os.wait4 reports it is at least the resident size of
# the process that started it, because Linux counts the memory a child shares
# with its parent until exec.  So the children are started by this small
# helper process, not by the benchmark, whose golden data and model would
# otherwise set the floor of peak_rss_mb.
LAUNCHER_CODE = """\
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, cwd, env, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_maxrss / 1024.0]), flush=True)
"""


class Launcher:
    """The helper process that starts the children, one at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", LAUNCHER_CODE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, argv: list[str], root: Path, hash_seed: int, stdout_path: Path) -> tuple[int, float, float]:
        """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
        request = [[sys.executable, *argv], str(root), child_env(root, hash_seed),
                   str(stdout_path), str(stdout_path.with_suffix(".err"))]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with code {self.proc.wait()}")
        code, wall, rss = json.loads(reply)
        return code, wall, rss

    def close(self) -> None:
        """Stop the launcher once its current child, if any, has exited."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


class Run:
    """One benchmark invocation: its generated files and the children it starts."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.seed = seed
        self.workload = W.generate(workload, seed)
        # One directory per workload: each run overwrites the large outputs.
        self.work = root / OUT_DIR / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.pipe = self.work / "pipeline.pipe"
        self.pipe.write_text(self.workload.text(), encoding="utf-8")
        self.inputs = self.work / "inputs.txt"
        self.inputs.write_text(self.workload.inputs_text(), encoding="utf-8")
        self.csv = self.work / "trace.csv"
        self.hash_rng = random.Random(f"hash/{seed}")
        self.launcher = Launcher()

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.close()

    def argv(self, command: list[str]) -> list[str]:
        paths = {"{pipe}": self.pipe, "{inputs}": self.inputs, "{csv}": self.csv}
        return ["-m", "pipesim.cli"] + [str(paths.get(arg, arg)) for arg in command]

    def hash_seed(self) -> int:
        return self.hash_rng.randrange(1, 2**32)

    def cli_op(self, clock: Clock | None = None) -> tuple[list[float], float, list[tuple[int, bytes]], str | None]:
        """One operation: the workload's commands in order.  Returns the wall
        time of each command (scaled by ``clock`` if given), the peak RSS,
        each (exit code, stdout) and the trace CSV if one was written."""
        if self.csv.exists():
            self.csv.unlink()
        walls, rss, outputs = [], 0.0, []
        for i, command in enumerate(self.workload.commands):
            path = self.work / f"command{i}.out"
            code, seconds, peak = self.launcher.spawn(self.argv(command), self.root, self.hash_seed(), path)
            walls.append(clock.scale(seconds) if clock else seconds)
            rss = max(rss, peak)
            outputs.append((code, path.read_bytes()))
        csv_text = self.csv.read_text(encoding="utf-8") if self.csv.exists() else None
        return walls, rss, outputs, csv_text

    def setup_time(self, clock: Clock) -> float:
        path = self.work / "setup.out"
        code, _, _ = self.launcher.spawn(["-c", SETUP_CODE, str(self.pipe)], self.root, self.hash_seed(), path)
        if code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        return clock.scale(float(path.read_text()))


def run_cli(run: Run, golden: dict, seconds: float) -> dict:
    expected = checks.expected_data(run.workload)
    setups, walls, rss, txn_rates, errors = [], [], [], [], []
    failed = 0
    clock = Clock(run.launcher.proc.pid)
    start = time.perf_counter()
    # Start another round only if a typical round still fits in the window.
    while not walls or (time.perf_counter() - start) * (1 + 1 / len(walls)) <= seconds:
        # Set-up children interleave with the operations, so that both see
        # the same stretch of host load.
        clock.choose_cpu()
        setups += [run.setup_time(clock) for _ in range(SETUPS_PER_OP)]
        command_walls, peak, outputs, csv_text = run.cli_op(clock)
        walls.append(sum(command_walls))
        rss.append(peak)
        problems = checks.check_cli_op(run.workload, golden, outputs, csv_text, expected)
        if problems:
            failed += 1
            errors += [f"op {len(walls) - 1}: {p}" for p in problems]
        # Transactions exited per second of the run command.
        for command, took in zip(run.workload.commands, command_walls):
            if command[0] == "run":
                txn_rates.append(len(run.workload.inputs) / took)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "txn_per_s": (statistics.median(txn_rates), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    samples = {"wall_s": walls, "txn_per_s": txn_rates, "peak_rss_mb": rss, "setup_s": setups,
               "reference_s": clock.references}
    details = {
        "samples": samples,
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "error_rate": failed / len(walls),
        "errors": errors[:20],
    }
    return {"metrics": metrics, "attempted": len(walls), "failed": failed, "details": details}


def run_traced(run: Run, golden: dict, seconds: float) -> dict:
    sys.path.insert(0, str(run.root / "src"))
    import pipesim
    import traced

    if Path(pipesim.__file__).resolve().parent != (run.root / "src" / "pipesim").resolve():
        raise RuntimeError(f"imported pipesim from {pipesim.__file__}, not from this checkout")
    spans_path = run.work / f"spans-seed{run.seed}.json"
    metrics, attempted, failed, details = traced.traced_run(
        run.workload, str(run.pipe), golden, seconds, spans_path
    )
    details["spans_file"] = str(spans_path.relative_to(run.root))
    details["error_rate"] = failed / attempted
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pipesim" / "cli.py").is_file():
        print("error: run from the root of a pipesim checkout (no src/pipesim here)", file=sys.stderr)
        return 2
    golden = checks.load_golden(args.workload, args.seed % W.VARIANTS)
    if golden is None:
        print(f"error: no golden data for {args.workload}; run perfbench/record.py", file=sys.stderr)
        return 2
    # Compile the package once, as an installed package would be, so that no
    # timed child pays for byte-compiling it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "pipesim")],
                   check=True, env=child_env(root, 0), stdout=subprocess.DEVNULL)

    with Run(root, args.workload, args.seed) as run:
        result = (run_traced if args.trace else run_cli)(run, golden, args.seconds)

    record = {"workload": args.workload, "seed": args.seed, "variant": args.seed % W.VARIANTS,
              "trace": args.trace, **result}
    (run.work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for error in result["details"]["errors"]:
        print(f"FAIL {error}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:24} {value:.6g} {unit}", file=sys.stderr)
    print(f"attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
