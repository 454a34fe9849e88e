"""List the lines inside src/redhyp functions that the Tier-1 tests never run.

Runs pytest in this process under a standard-library sys.settrace line hook
(no coverage package is needed), then prints, for each src/redhyp/*.py, the
lines inside functions that never ran, and the total.  Lines that only a
subprocess runs (the `python -m redhyp.cli` tests) count as never run.

    python tools/never_run.py                  # the whole Tier-1 suite
    python tools/never_run.py tests/test_qsystem.py -k clean

Extra arguments go to pytest.  "Lines inside functions" are the lines of
every function, method, lambda and comprehension code object compiled from
the file, without each one's header line; module- and class-level
statements are left out, since importing runs them.  A frame stops being
traced once every line of its code object has run, so hot loops cost little.
The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "redhyp"


def _function_lines(code: CodeType) -> dict[CodeType, set[int]]:
    """Every function code object nested in `code` (through class bodies,
    which are not functions themselves), with its body lines."""
    out: dict[CodeType, set[int]] = {}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_OPTIMIZED:
                lines = {line for _, _, line in const.co_lines() if line is not None}
                lines.discard(const.co_firstlineno)
                out[const] = lines
            out.update(_function_lines(const))
    return out


def _expected() -> dict[str, set[int]]:
    """Per source file, the lines inside its functions."""
    expected = {}
    for path in sorted(SRC.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        lines: set[int] = set()
        for body in _function_lines(module).values():
            lines |= body
        expected[str(path)] = lines
    return expected


def _ranges(lines: list[int]) -> str:
    """1 2 3 7 9 10 -> '1-3 7 9-10'."""
    parts, start = [], None
    for n, line in enumerate(lines):
        if start is None:
            start = line
        if n + 1 == len(lines) or lines[n + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return " ".join(parts)


def main(argv: list[str]) -> int:
    import pytest

    expected = _expected()
    ran: dict[str, set[int]] = {name: set() for name in expected}
    # Per code object, the body lines not yet seen; an empty set stops tracing it.
    todo: dict[CodeType, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            left = todo[frame.f_code]
            left.discard(frame.f_lineno)
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            if not left:
                return None
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in ran:
            return None
        left = todo.get(code)
        if left is None:
            left = todo[code] = ({line for _, _, line in code.co_lines() if line is not None}
                                 - {code.co_firstlineno} - ran[code.co_filename])
        return local if left else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = inside = 0
    for name, lines in expected.items():
        missed = sorted(lines - ran[name])
        total += len(missed)
        inside += len(lines)
        if missed:
            print(f"{Path(name).relative_to(ROOT)}: {len(missed)} never run: {_ranges(missed)}")
    print(f"never run: {total} of {inside} lines inside src/redhyp functions")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
