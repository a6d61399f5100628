"""Compare the CLI outputs of a git ref's ``src`` with the working tree's.

    python3 tools/snapshot_diff.py REF

Extracts ``git archive REF src`` into a temporary directory, runs
``tools/cli_snapshot.py`` once against that ``src`` and once against the
working tree's ``src`` (each in a subprocess with only that ``src`` on
``PYTHONPATH`` and without writing bytecode), and prints
``diff -r -x fixtures`` of the two snapshots.  Exits 0 when they are equal,
1 on any difference, 2 when a step fails.  Nothing is written outside the
temporary directory.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO / "tools" / "cli_snapshot.py"


def _snapshot(src: Path, outdir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(SNAPSHOT), str(outdir)], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: snapshot_diff.py REF", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            archive = subprocess.run(["git", "archive", argv[0], "src"], cwd=REPO, check=True,
                                     capture_output=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tmp / "ref", filter="data")
            _snapshot(tmp / "ref" / "src", tmp / "before")
            _snapshot(REPO / "src", tmp / "after")
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(map(str, exc.cmd))} exited {exc.returncode}", file=sys.stderr)
            if exc.stderr:
                sys.stderr.write(exc.stderr.decode(errors="replace"))
            return 2
        diff = subprocess.run(["diff", "-r", "-x", "fixtures", "before", "after"], cwd=tmp,
                              capture_output=True, text=True)
        sys.stdout.write(diff.stdout)
        sys.stderr.write(diff.stderr)
        return diff.returncode      # diff's own: 0 equal, 1 different, 2 trouble


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
