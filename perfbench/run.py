"""Run one benchmark workload through in-process `redhyp.cli.dispatch`.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

One client issues the workload's ops one after another (a closed loop),
each as a CLI argument vector with --deterministic and the default
--threads 1.  Whole passes over the op list repeat while the next pass is
expected to end within --seconds; there is always at least one.  Between
ops the process moves to the least contended CPU (see CpuPicker).

--trace 0 prints the end-to-end metrics; --trace 1 wraps each layer's
public functions (see tracer.py), prints per-layer self times and counters,
and writes the spans to .perfbench_out/.  Outputs are checked outside the
timed region (see workloads.py); at the default seed every report is also
compared with its pinned answer in pinned.json.

The last line of stdout is the result object; the line before it holds the
run's metadata.  Run from the repository root; the program is imported from
src/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
PINS = BENCH_DIR / "pinned.json"
WORKLOADS = ("sweep", "bigclass", "pipeline", "audit")
DEFAULT_SEED = 0
SETUP_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Op latency percentiles go to the metadata line: with at most a few dozen
# ops per run outside sweep, the median is one or two single executions and
# spreads too much between runs to gate on.  Only sweep has at least ten
# samples beyond its 99th percentile, so only sweep reports op_ms_p99.
TAIL_WORKLOADS = ("sweep",)


def import_program(cpus: "CpuPicker") -> float:
    """Import redhyp from this checkout's src/ SETUP_REPEATS times, dropping
    it from sys.modules in between; returns the median seconds of one import."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "redhyp" or m.startswith("redhyp.")]:
            del sys.modules[name]
        cpus.pick(force=True)
        started = time.perf_counter()
        import redhyp.cli  # imports every layer
        times.append(time.perf_counter() - started)
    if src.resolve() not in Path(redhyp.cli.__file__).resolve().parents:
        raise ImportError(f"redhyp was imported from {redhyp.cli.__file__}, not {src}")
    return statistics.median(times)


def spin(iterations: int) -> float:
    """Seconds taken by a fixed pure-Python loop."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return time.perf_counter() - started


def calibrate() -> float:
    """Median seconds of three runs of the calibration loop."""
    return statistics.median(spin(1_000_000) for _ in range(3))


class CpuPicker:
    """Keeps the process on the least contended of its allowed CPUs.

    On a shared machine one CPU can run a fixed loop 1.5x slower than
    another for tens of seconds at a time, and CPU time slows with wall
    time.  At most once per INTERVAL seconds, and only between ops, a
    short probe loop runs on each allowed CPU (the first MAX_CPUS of them)
    and the process is pinned to the fastest.  The fastest probe times are
    kept in `probes`, a record of the machine's speed while it ran.
    """

    INTERVAL = 0.5
    MAX_CPUS = 4

    def __init__(self):
        allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        self.cpus = sorted(allowed)[:self.MAX_CPUS]
        self.last = -math.inf
        self.probes: list[float] = []

    def pick(self, force: bool = False) -> None:
        if not self.cpus or (not force and time.perf_counter() - self.last < self.INTERVAL):
            return
        times = {cpu: self._probe(cpu) for cpu in self.cpus}
        best = min(times, key=times.get)
        os.sched_setaffinity(0, {best})
        self.probes.append(times[best])
        self.last = time.perf_counter()

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return spin(60_000)


def report_pin(code: int, text: str) -> str:
    return f"{code} {hashlib.sha256(text.encode()).hexdigest()[:16]}"


def set_up(workload: str, seed: int, work: Path, cpus: CpuPicker):
    """Generate the inputs SETUP_REPEATS times; returns the last ops, their
    checker and the median seconds of one generation."""
    from workloads import BUILDERS, Checker
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        checker = Checker()
        cpus.pick(force=True)
        started = time.perf_counter()
        ops = BUILDERS[workload](seed, work, checker)
        times.append(time.perf_counter() - started)
    return ops, checker, statistics.median(times)


def run_passes(ops, seconds: float, cpus: CpuPicker, tracer=None):
    """Closed loop over the op list; returns per-pass walls (the sum of the
    pass's op latencies), per-op latencies and each pass's (exit code,
    report) outcomes."""
    from redhyp import cli
    walls, latencies, passes = [], [], []
    # The inputs and checks built during set-up stay alive; freezing them
    # keeps the program's garbage collections from scanning the benchmark's heap.
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        while True:
            outcomes = []
            wall = 0.0
            for n, op in enumerate(ops):
                cpus.pick()
                if tracer is not None:
                    tracer.op = n
                op_started = time.perf_counter()
                try:
                    outcomes.append(cli.dispatch(op.argv))
                except Exception as exc:  # escaping dispatch fails the op, not the run
                    outcomes.append((None, f"raised {exc!r}"))
                latency = time.perf_counter() - op_started
                latencies.append(latency)
                wall += latency
            walls.append(wall)
            passes.append(outcomes)
            if time.perf_counter() - started + wall > seconds:
                return walls, latencies, passes
    finally:
        gc.unfreeze()


def check_outcomes(ops, passes, pins: dict[str, str] | None):
    """Failed op executions and the first few reasons.

    An execution fails when its report differs from the first pass's, when
    the independent check rejects the first pass's report, or (with pins)
    when exit code and report digest differ from the pinned answer.
    """
    failed, reasons = 0, []
    for n, op in enumerate(ops):
        code, text = passes[0][n]
        try:
            why = op.check(code, text)
        except Exception as exc:  # a malformed report must count, not crash the run
            why = f"check raised {exc!r}"
        if why is None and pins is not None and pins.get(op.label) != report_pin(code, text):
            why = f"pinned {pins.get(op.label)}, got {report_pin(code, text)}"
        for outcomes in passes:
            bad = why or (None if outcomes[n] == passes[0][n]
                          else "report differs between passes")
            if bad:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{op.label}: {bad}")
    return failed, reasons


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "redhyp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric with its unit."""
    from tracer import COUNTERS, SPAN_NAMES
    names = {f"{span}_s": "s" for span in SPAN_NAMES}
    names.update({c: ("bytes" if c == "fileio.bytes_parsed" else "count") for c in COUNTERS})
    names.update({"embed.oracle_s": "s", "embed.oracle_leaves": "count",
                  "trace.wall_s": "s", "trace.overhead_s": "s"})
    return names


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 pins: dict[str, str] | None, cpus: CpuPicker, import_s: float = 0.0):
    """Set up, measure and check one workload; returns (result, meta)."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    try:
        cpus.pick(force=True)
        calibration_before = calibrate()
        ops, checker, generate_s = set_up(workload, seed, work, cpus)
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cpus.probes.clear()
        try:
            walls, latencies, passes = run_passes(ops, seconds, cpus, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cpus.pick(force=True)
        calibration_after = calibrate()
        failed, reasons = check_outcomes(ops, passes, pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops) * len(passes)
    units = per_layer_names() if trace else END_TO_END_UNITS
    if trace:
        values = {name: value / len(passes) for name, value in tracer.layer_metrics().items()}
        values["embed.oracle_s"] = checker.oracle_s
        values["embed.oracle_leaves"] = checker.oracle_leaves
        values["trace.wall_s"] = sum(walls) / len(passes)
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - sum(tracer.self_s.values()) / len(passes))
        tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.jsonl")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": import_s + generate_s,
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    meta = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "commit": commit_id(), "source_sha256": source_digest(),
        "ops_per_pass": len(ops), "passes": len(passes), "samples": len(latencies),
        "pass_wall_s": walls, "import_s": import_s, "generate_s": generate_s,
        "calibration_before_s": calibration_before,
        "calibration_after_s": calibration_after,
        "probe_s": statistics.median(cpus.probes) if cpus.probes else None,
        "probes": len(cpus.probes),
        "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "op_ms_p50": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
        "pinned": pins is not None, "failures": reasons,
    }
    if workload in TAIL_WORKLOADS:
        meta["op_ms_p99"] = {"value": percentile(latencies, 0.99) * 1000, "unit": "ms"}
        meta["samples_beyond_p99"] = len(latencies) - math.ceil(0.99 * len(latencies))
    return result, meta


def load_pins(workload: str, seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(PINS.read_text()).get(workload, {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cpus = CpuPicker()
    try:
        import_s = import_program(cpus)
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result, meta = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), load_pins(args.workload, args.seed),
                                cpus, import_s)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
