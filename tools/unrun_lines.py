"""Print the lines of ``src/contourstat`` that the tier-1 test session never runs.

Usage (from the repository root, with the test extra installed)::

    python tools/unrun_lines.py

It runs the tier-1 pytest session in this process under a line trace
(``sys.settrace`` and ``threading.settrace``) limited to the package's files.
It takes each module's executable lines from its code objects (``co_lines``)
and prints every line that never ran, as ``path:line: text``.  Lines run only
in a child process, such as ``__main__.py`` under ``python -m contourstat``,
are listed too.  The trace slows the session.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contourstat"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

ran = set()  # (file name, line number)


def trace_lines(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace_lines


def trace_calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(PACKAGE) + os.sep):
        return trace_lines(frame, event, arg)
    return None


def executable_lines(code):
    yield from (line for _, _, line in code.co_lines() if line)  # None or 0: no source line
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from executable_lines(const)


threading.settrace(trace_calls)
sys.settrace(trace_calls)
try:
    status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
finally:
    sys.settrace(None)
    threading.settrace(None)
for path in sorted(PACKAGE.glob("*.py")):
    source = path.read_text()
    lines, text = executable_lines(compile(source, str(path), "exec")), source.splitlines()
    for n in sorted(set(lines) - {line for name, line in ran if name == str(path)}):
        print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
sys.exit(status)
