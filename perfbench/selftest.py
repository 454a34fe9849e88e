"""Self-test of the benchmark; exits 0 when every check holds.

    python3 perfbench/selftest.py

1. A corrupted pinned answer is counted as a failed op.
2. `run.py` prints, for every workload and both trace modes, exactly the
   metrics BENCHMARK.json names, with their units, plus the metadata
   (including failed_frac and op latency percentiles), and the traced self
   times add up.
3. In a directory holding only BENCHMARK.json and perfbench/, `run.py`
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

META_KEYS = {"python", "nproc", "commit", "seed", "ops_per_pass", "samples",
             "calibration_before_s", "calibration_after_s", "failed_frac"}


def check(condition: bool, message: str, problems: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        problems.append(message)


def corrupted_pin_counts(problems: list[str]) -> None:
    cpus = run.CpuPicker()
    run.import_program(cpus)
    pins = run.load_pins("audit", run.DEFAULT_SEED)
    label = sorted(pins)[0]
    code, digest = pins[label].split()
    bad = dict(pins, **{label: f"{code} {'0' * len(digest)}"})
    result, meta = run.run_workload("audit", run.DEFAULT_SEED, 0, False, bad, cpus)
    check(result["failed"] == meta["passes"] and not result["correct"],
          f"corrupted pin for {label} counts as a failed op", problems)


def emitted_metrics(problems: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", str(mode)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
            meta_line, result_line = out.stdout.strip().splitlines()[-2:]
            result, meta = json.loads(result_line), json.loads(meta_line)["meta"]
            name = f"{workload} --trace {mode}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0,
                  f"{name}: result keys, correct, 0 failed", problems)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name}: every {key} metric with its unit", problems)
            check(META_KEYS <= set(meta) and meta["failed_frac"]["unit"] == "fraction",
                  f"{name}: metadata", problems)
            tails = ("op_ms_p50", "op_ms_p99") if workload in run.TAIL_WORKLOADS else ("op_ms_p50",)
            check(all(meta.get(k, {}).get("unit") == "ms" for k in tails),
                  f"{name}: {', '.join(tails)} in the metadata", problems)
            if mode == 1:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                layers = sum(v for k, v in values.items() if k.endswith("_s") and
                             not k.startswith(("trace.", "embed.oracle")))
                total = layers + values["trace.overhead_s"]
                check(abs(total - values["trace.wall_s"]) <= 1e-6 * values["trace.wall_s"]
                      and 0 <= values["trace.overhead_s"] < 0.5 * values["trace.wall_s"],
                      f"{name}: self times + overhead = traced wall", problems)


def bare_directory_fails(problems: list[str]) -> None:
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(out.returncode != 0 and '"metrics"' not in out.stdout,
              "without src/ the benchmark fails and prints no result", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    corrupted_pin_counts(problems)
    bare_directory_fails(problems)
    emitted_metrics(problems)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
