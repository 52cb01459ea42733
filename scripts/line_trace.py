#!/usr/bin/env python3
"""List the lines of src/d2dcache that a pytest run never executes.

Runs pytest in this process with the given arguments under a line tracer
(sys.settrace, and threading.settrace for the runner's worker threads), then
prints each executable line of the package that no test reached as

    src/d2dcache/<module>.py:<line>  <source>

Standard library only. The exit code is pytest's. Example:

    python3 scripts/line_trace.py tests --ignore=tests/test_acceptance.py
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "d2dcache"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module or any code object in it."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's RESUME
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PKG) + "/"
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PKG.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in hit:
                print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
