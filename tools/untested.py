"""List the package statements that no test executes:
``python tools/untested.py [PYTEST_ARGS...]`` (``-q tests`` by default).

The script runs pytest in this process under a ``sys.settrace`` line tracer
that records only frames of ``src/onlinefair``, then prints
``file:line: statement`` for each statement of the package that never ran,
and exits with pytest's status.  A statement ran when any line of it did
(for a compound statement such as ``if`` or ``try``, any line of its whole
body).  ``def`` and ``class`` statements, imports and docstrings are not
listed: they run when their module loads.

It sees only this process.  Code that runs only in a child process, such as
the body of ``cli.run`` and the ``__main__`` guard that calls it, which the
tests reach by starting ``python -m onlinefair.cli``, is listed although a
test runs it.  A statement that only some of hypothesis's random examples
reach is listed in the runs that draw none of them.  It needs only the
standard library and pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PACKAGE = HERE / "src" / "onlinefair"


def statements(path: Path):
    """(first line, last line) of each listed statement of a source file."""
    tree = ast.parse(path.read_text(), str(path))
    scopes = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node) is not None}
    skip = (*scopes[1:], ast.Import, ast.ImportFrom)
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and not isinstance(node, skip)
                  and node not in docstrings)


def main(argv: list[str]) -> int:
    import pytest  # before tracing starts, so that its import is not traced

    sys.path.insert(0, str(HERE / "src"))
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text().splitlines()
        for first, last in statements(path):
            if lines.isdisjoint(range(first, last + 1)):
                print(f"{path.relative_to(HERE)}:{first}: {source[first - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
