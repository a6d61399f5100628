"""List the ``netsteer`` functions and methods that no command and no
benchmark workload enters.

    python3 tools/unreached.py

Runs, in this process and under ``sys.setprofile``, every command of
``tools/cli_snapshot.py`` once per output format (into a temporary
directory), then the warm-up calls, one pass of the operations and the
check of each operation of every perfbench workload (seed 1).  Then prints,
one a line and in source order, ``module.qualname`` of each function or
method defined in ``src/netsteer/*.py`` whose code never ran.  A name it
prints is reached by no CLI command and no benchmark call, only by tests,
if at all.  Exits 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "netsteer"
SEED = 1


def definitions() -> list[tuple[str, int, str]]:
    """(file, first line, module.qualname) of every function and method of
    the package, the first line being that of its first decorator, as in
    its code object's ``co_firstlineno``."""
    out = []

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((str(path), first, f"{prefix}.{child.name}"))
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_bytes()), path.resolve(), path.stem)
    return out


def run_cli_commands(outdir: Path) -> None:
    from cli_snapshot import commands
    from netsteer.cli import main

    for name, argv in commands(outdir):
        for fmt in ("json", "csv"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(argv + ["--format", fmt, "--out", str(outdir / f"{name}.{fmt}")])


def run_workloads(workdir: Path) -> None:
    import workloads

    for name, build in workloads.WORKLOADS.items():
        (workdir / name).mkdir()
        workload = build(SEED, workdir / name)
        for call in workload.warmup:
            call()
        for op in workload.ops:
            op.check(op.call())


def main() -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tools"), str(REPO / "perfbench")]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            run_cli_commands(Path(tmp) / "cli")
            run_workloads(Path(tmp))
        finally:
            sys.setprofile(None)
    for path, line, name in definitions():
        if (path, line) not in entered:
            print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
