"""Regenerate pinned.json: each op's exit code and report digest at the
default seed, written only when every independent check passes.

    python3 perfbench/pin.py

Run it only when a change is meant to alter reports, and say so in the
change; otherwise a difference from the pins is a failed op.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import (DEFAULT_SEED, PINS, ROOT, WORKLOADS, CpuPicker, check_outcomes,
                 import_program, report_pin, run_passes, set_up)


def main() -> int:
    cpus = CpuPicker()
    import_program(cpus)
    pins = {}
    for workload in WORKLOADS:
        work = ROOT / ".perfbench_work" / f"pin-{workload}"
        try:
            ops, _, _ = set_up(workload, DEFAULT_SEED, work, cpus)
            _, _, passes = run_passes(ops, 0, cpus)
            failed, reasons = check_outcomes(ops, passes, None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if failed:
            print(f"{workload}: {failed} ops fail their checks: {reasons}", file=sys.stderr)
            return 1
        pins[workload] = {op.label: report_pin(*outcome)
                          for op, outcome in zip(ops, passes[0])}
        print(f"{workload}: pinned {len(ops)} ops", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
