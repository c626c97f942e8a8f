"""Which lines of the package the tier-1 tests never run.

    python3 tests/linecov.py

Runs the tier-1 suite in this process under ``sys.settrace`` (and
``threading.settrace``), tracing only frames whose code lives in
``src/cktiles``, then prints every executable line that no test reached, as
``path:line: source``, and a count.  A line is executable when the line
table of some code object compiled from the file names it (``co_lines``);
a function's ``def`` line counts as reached when the function is called.

Only this process is traced: the CLI tests that run the package in a
subprocess reach their lines unseen, so a line they alone run is reported.
It is a report with no threshold.  The exit status is pytest's.

Standard library only, apart from the suite it runs; pytest does not collect
it.  Tracing slows the suite several times over.
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cktiles"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]


def executable_lines(path):
    """The line numbers the line tables of ``path``'s code objects name."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def tracer(files, reached):
    """A global trace function adding (file, line) to ``reached`` for frames in ``files``."""
    traced = {}  # co_filename -> the resolved path if it is in ``files``, else None

    def line_events(frame, event, arg):
        if event == "line":
            reached.add((traced[frame.f_code.co_filename], frame.f_lineno))
        return line_events

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            path = Path(os.path.realpath(name))
            traced[name] = path if path in files else None
        if traced[name] is None:
            return None
        reached.add((traced[name], frame.f_lineno))
        return line_events

    return calls


def main():
    import pytest

    files = set(PACKAGE.rglob("*.py"))
    reached = set()
    trace = tracer(files, reached)
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = total = 0
    for path in sorted(files):
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text().splitlines()
        for line in sorted(lines - {line for p, line in reached if p == path}):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} of {total} executable lines in {PACKAGE.relative_to(ROOT)} not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
