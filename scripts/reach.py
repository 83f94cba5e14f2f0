#!/usr/bin/env python3
"""Print the executable lines of `src/mckaygraphs` that no CLI command runs.

Usage: PYTHONPATH=src python scripts/reach.py

Every command of `cli_digest.commands()` runs through `mckaygraphs.cli.main`
with `--output` to a temporary file, under a line tracer (`sys.settrace`)
that is set before the package is imported, so module-level lines count too.
A line is executable when a compiled code object of its module maps an
instruction to it.  For each module the script prints how many executable
lines never ran, then each such line with its number.  Tracing makes the
commands several times slower than `cli_digest.py`.
"""

import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mckaygraphs"


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def main() -> int:
    ran: dict[Path, set[int]] = {}
    resolved: dict[str, Path | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = Path(name).resolve()
            resolved[name] = path if path.parent == SRC else None
        path = resolved[name]
        if path is None:
            return None
        lines = ran.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    try:
        from cli_digest import commands
        from mckaygraphs import cli

        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            for args in commands():
                cli.main(args + ["--output", out])
    finally:
        sys.settrace(None)

    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        missing = sorted(executable_lines(path) - ran.get(path, set()))
        print(f"{path.name}: {len(missing)} executable lines not run")
        for line in missing:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
